module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Timer = Splitbft_sim.Timer
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Keys = Splitbft_types.Keys
module Message = Splitbft_types.Message
module Session = Splitbft_types.Session
module Enclave_identity = Splitbft_types.Enclave_identity
module Attestation = Splitbft_tee.Attestation
module Measurement = Splitbft_tee.Measurement
module Signature = Splitbft_crypto.Signature
module Box = Splitbft_crypto.Box
module Hmac = Splitbft_crypto.Hmac
module Stats = Splitbft_util.Stats
module Ts_tbl = Splitbft_util.Htbl.Int64
module Tracer = Splitbft_obs.Tracer
module Trace_ctx = Splitbft_obs.Trace_ctx

type protocol =
  | Pbft
  | Minbft
  | Splitbft of { ready_quorum : int }

type config = {
  id : Ids.client_id;
  n : int;
  reply_quorum : int;
  window : int;
  retry_timeout_us : float;
  retry_backoff : float;
  retry_cap_us : float;
  retry_jitter : float;
  protocol : protocol;
}

let default_config protocol ~n ~id =
  let f =
    match protocol with
    | Minbft -> Ids.f_of_n_hybrid n
    | Pbft | Splitbft _ -> Ids.f_of_n n
  in
  { id;
    n;
    reply_quorum = f + 1;
    window = 1;
    retry_timeout_us = 400_000.0;
    retry_backoff = 2.0;
    retry_cap_us = 1_600_000.0;
    retry_jitter = 0.1;
    protocol }

type pending = {
  op : string;
  mutable request : Message.request;
  mutable sent_at : float;
  mutable votes : (Ids.replica_id * string) list;  (* validated results *)
  mutable retry : Timer.t;
  mutable cur_delay_us : float;  (* grows by [retry_backoff] up to the cap *)
  mutable ctx : Trace_ctx.t option;  (* root trace context, if sampled *)
  mutable root : int;  (* open root span id, or -1 *)
  mutable retransmits : int;
  on_result : latency_us:float -> result:string -> unit;
}

type phase = Handshaking | Ready

type t = {
  cfg : config;
  engine : Engine.t;
  net : Network.t;
  rng : Splitbft_util.Rng.t;
  mutable phase : phase;
  mutable on_ready : unit -> unit;
  mutable next_ts : int64;
  inflight : pending Ts_tbl.t;
  mutable queue : (string * (latency_us:float -> result:string -> unit)) list;
      (* waiting for a window slot, newest first *)
  mutable completed : int;
  lat : Stats.t;
  mutable stopped : bool;
  (* Divergence evidence (flight recorder only): winning results of recent
     completions, so a corrupt replica's vote is flagged even when it
     arrives after the honest f+1 quorum already answered the request.
     Bounded FIFO; empty unless a flight recorder is attached. *)
  recent : string Ts_tbl.t;
  recent_order : int64 Queue.t;
  (* SplitBFT session state *)
  session : Session.keys;
  mutable exec_acks : Ids.replica_id list;
  mutable provisioned : (Ids.replica_id * string) list;  (* (replica, box public) already sent *)
  retry_label : string;
  no_retry : Timer.t;  (* never armed: a pending's [retry] until its own is made *)
}

let create engine net cfg =
  (* Keyed on (engine seed, client id) rather than split off the engine's
     root generator: the client's session keys, retry jitter and encryption
     nonces are then a pure function of the scenario seed and its own id,
     independent of how many replicas, clients or other rng consumers were
     created before it — so workload traces reproduce across harness
     rewirings and client-count changes. *)
  let rng =
    Splitbft_util.Rng.of_key (Engine.seed engine) ~domain:"client"
      ~stream:(Int64.of_int cfg.id)
  in
  let retry_label = Printf.sprintf "client%d-retry" cfg.id in
  let t =
    { cfg;
      engine;
      net;
      rng;
      phase = (match cfg.protocol with Splitbft _ -> Handshaking | Pbft | Minbft -> Ready);
      on_ready = (fun () -> ());
      next_ts = 0L;
      inflight = Ts_tbl.create 64;
      queue = [];
      completed = 0;
      lat = Stats.create ();
      stopped = false;
      recent = Ts_tbl.create 64;
      recent_order = Queue.create ();
      session = Session.generate rng;
      exec_acks = [];
      provisioned = [];
      retry_label;
      no_retry = Timer.create engine ~label:retry_label ~delay:0.0 ~callback:ignore }
  in
  t

let protocol_string = function
  | Pbft -> "pbft"
  | Minbft -> "minbft"
  | Splitbft _ -> "splitbft"

(* ----- request construction / reply validation ----- *)

let make_request t ~ts ~op : Message.request =
  match t.cfg.protocol with
  | Splitbft _ ->
    let payload = Session.encrypt_op t.session ~client:t.cfg.id ~timestamp:ts op in
    Session.authenticate_request t.session
      { Message.client = t.cfg.id; timestamp = ts; payload; auth = "" }
  | (Pbft | Minbft) as p ->
    let r = { Message.client = t.cfg.id; timestamp = ts; payload = op; auth = "" } in
    { r with
      auth =
        Keys.make_authenticator ~protocol:(protocol_string p) ~client:t.cfg.id ~n:t.cfg.n
          (Message.request_auth_bytes r) }

let validate_reply t (rp : Message.reply) : string option =
  if rp.client <> t.cfg.id then None
  else
    match t.cfg.protocol with
    | Splitbft _ ->
      if Session.reply_auth_ok t.session rp then
        match
          Session.decrypt_result t.session ~client:t.cfg.id ~timestamp:rp.timestamp
            ~replica:rp.sender rp.result
        with
        | Ok result -> Some result
        | Error _ -> None
      else None
    | (Pbft | Minbft) as p ->
      let key =
        Keys.client_replica_key ~protocol:(protocol_string p) ~client:t.cfg.id
          ~replica:rp.sender
      in
      if Hmac.verify ~key ~msg:(Message.reply_auth_bytes rp) ~tag:rp.r_auth then
        Some rp.result
      else None

(* ----- sending ----- *)

let broadcast t ?ctx msg =
  let payload = Message.encode_traced ?ctx msg in
  for j = 0 to t.cfg.n - 1 do
    Network.send t.net ~src:(Addr.client t.cfg.id) ~dst:(Addr.replica j) payload
  done

(* Root span for a request's whole trace.  [forced] marks roots created
   retroactively for slow requests (promoted at their first retransmit,
   back-dated to the original send); retransmissions reuse the pending's
   context, so they join the original trace rather than forking one. *)
let open_root t ~ts ~at ~forced =
  match Engine.tracer t.engine with
  | None -> (None, -1)
  | Some tr ->
    let trace = Tracer.client_trace ~client:t.cfg.id ~ts in
    let id =
      Tracer.open_span tr ~trace ~name:"request" ~cat:"client"
        ~pid:(Addr.client t.cfg.id) ~tid:"client" ~at ()
    in
    (Some { Trace_ctx.trace; span = id; forced }, id)

(* Seeded jitter: each armed delay is perturbed by up to ±retry_jitter so
   clients retrying into the same outage desynchronize — deterministically,
   since the rng derives from the engine seed. *)
let jittered t delay =
  if t.cfg.retry_jitter <= 0.0 then delay
  else
    delay
    *. (1.0 +. (t.cfg.retry_jitter *. ((2.0 *. Splitbft_util.Rng.float t.rng 1.0) -. 1.0)))

let dispatch t ~op ~on_result =
  t.next_ts <- Int64.add t.next_ts 1L;
  let ts = t.next_ts in
  let request = make_request t ~ts ~op in
  let p =
    { op;
      request;
      sent_at = Engine.now t.engine;
      votes = [];
      retry = t.no_retry;
      cur_delay_us = t.cfg.retry_timeout_us;
      ctx = None;
      root = -1;
      retransmits = 0;
      on_result }
  in
  (match Engine.tracer t.engine with
  | Some tr when Tracer.sampled_ts tr ts ->
    let ctx, root = open_root t ~ts ~at:p.sent_at ~forced:false in
    p.ctx <- ctx;
    p.root <- root
  | _ -> ());
  Ts_tbl.replace t.inflight ts p;
  let resend () =
    if (not t.stopped) && Ts_tbl.mem t.inflight ts then begin
      p.retransmits <- p.retransmits + 1;
      (* A retransmission marks the request slow: promote it to an
         always-sampled trace (back-dated to the first send) if head
         sampling had skipped it. *)
      (match (p.ctx, Engine.tracer t.engine) with
      | None, Some tr ->
        let ctx, root = open_root t ~ts ~at:(Engine.now t.engine) ~forced:true in
        Tracer.set_start tr root ~at:p.sent_at;
        p.ctx <- ctx;
        p.root <- root
      | _ -> ());
      broadcast t ?ctx:p.ctx (Message.Request p.request);
      (* Exponential backoff, capped: a cluster mid-recovery is not helped
         by a fixed-period request storm. *)
      p.cur_delay_us <- min t.cfg.retry_cap_us (p.cur_delay_us *. t.cfg.retry_backoff);
      Timer.set_delay p.retry (jittered t p.cur_delay_us);
      Timer.restart p.retry
    end
  in
  p.retry <-
    Timer.create t.engine
      ~cls:(Engine.Choice { host = Addr.client t.cfg.id; lane = -1 })
      ~label:t.retry_label ~delay:(jittered t p.cur_delay_us) ~callback:resend;
  broadcast t ?ctx:p.ctx (Message.Request p.request);
  Timer.restart p.retry

let rec pump t =
  if
    t.phase = Ready && (not t.stopped)
    && Ts_tbl.length t.inflight < t.cfg.window
  then begin
    match List.rev t.queue with
    | [] -> ()
    | (op, on_result) :: rest ->
      t.queue <- List.rev rest;
      dispatch t ~op ~on_result;
      pump t
  end

let submit t ~op ~on_result =
  t.queue <- (op, on_result) :: t.queue;
  pump t

(* ----- reply handling ----- *)

(* The client is the natural witness for corrupt-result faults: it holds
   the session keys, so it is the only party that can compare the f+1
   decrypted votes.  When a flight recorder is attached, any validated
   vote that disagrees with the quorum's winning result is recorded as
   evidence against the replica that signed it — at completion time for
   votes already in, and via [recent] for votes that straggle in after
   the quorum answered.  Without a recorder this whole path is inert. *)
let divergence_evidence t ~replica ~ts =
  Engine.flight_record t.engine ~host:(Addr.replica replica) ~kind:"evidence"
    ~detail:(Printf.sprintf "vote-divergence replica=%d client=%d ts=%Ld" replica t.cfg.id ts)

let remember_result t ~ts ~result =
  Ts_tbl.replace t.recent ts result;
  Queue.push ts t.recent_order;
  if Queue.length t.recent_order > 512 then Ts_tbl.remove t.recent (Queue.pop t.recent_order)

let on_reply t (rp : Message.reply) =
  match Ts_tbl.find_opt t.inflight rp.timestamp with
  | None ->
    if Option.is_some (Engine.flight t.engine) then (
      match Ts_tbl.find_opt t.recent rp.timestamp with
      | None -> ()
      | Some winner -> (
        match validate_reply t rp with
        | Some r when not (String.equal r winner) ->
          divergence_evidence t ~replica:rp.sender ~ts:rp.timestamp
        | _ -> ()))
  | Some p -> (
    match validate_reply t rp with
    | None -> ()
    | Some result ->
      if not (List.mem_assoc rp.sender p.votes) then begin
        p.votes <- (rp.sender, result) :: p.votes;
        let matching =
          List.length (List.filter (fun (_, r) -> String.equal r result) p.votes)
        in
        if matching >= t.cfg.reply_quorum then begin
          Ts_tbl.remove t.inflight rp.timestamp;
          Timer.stop p.retry;
          if Option.is_some (Engine.flight t.engine) then begin
            List.iter
              (fun (sender, r) ->
                if not (String.equal r result) then
                  divergence_evidence t ~replica:sender ~ts:rp.timestamp)
              p.votes;
            remember_result t ~ts:rp.timestamp ~result
          end;
          t.completed <- t.completed + 1;
          let latency = Engine.now t.engine -. p.sent_at in
          Stats.add t.lat latency;
          (match Engine.tracer t.engine with
          | Some tr when p.root >= 0 ->
            Tracer.add_arg tr p.root "latency_us" latency;
            Tracer.add_arg tr p.root "retransmits" (float_of_int p.retransmits);
            Tracer.finish tr p.root ~at:(Engine.now t.engine)
          | _ -> ());
          p.on_result ~latency_us:latency ~result;
          pump t
        end
      end)

(* ----- SplitBFT handshake ----- *)

let expected_measurements = [ Enclave_identity.preparation; Enclave_identity.execution ]

let on_session_quote t (sq : Message.session_quote) =
  match Attestation.decode sq.sq_quote with
  | Error _ -> ()
  | Ok quote ->
    let meas_ok =
      List.exists (fun m -> Measurement.equal m quote.Attestation.measurement)
        expected_measurements
    in
    let quote_ok = Attestation.verify quote in
    (* The quote binds the enclave's signing key; the signing key endorses
       the box key. *)
    let sig_ok =
      Signature.verify ~public:quote.Attestation.report_data
        ~msg:(Message.session_quote_signing_bytes sq)
        ~signature:sq.sq_sig
    in
    if meas_ok && quote_ok && sig_ok then begin
      (* Key the dedup on the enclave's instance nonce too: a restarted
         enclave re-attests with a fresh nonce and must be re-provisioned
         (its box key is unchanged, but sessions established after its last
         seal are gone). *)
      let already =
        List.mem (sq.sq_replica, sq.sq_box_public ^ ":" ^ sq.sq_nonce) t.provisioned
      in
      if not already then begin
        t.provisioned <-
          (sq.sq_replica, sq.sq_box_public ^ ":" ^ sq.sq_nonce) :: t.provisioned;
        let provision =
          if Measurement.equal quote.Attestation.measurement Enclave_identity.execution
          then Session.encode_for_execution t.session
          else Session.encode_for_preparation t.session
        in
        match Box.encrypt ~public:sq.sq_box_public ~rng:t.rng provision with
        | Error _ -> ()
        | Ok sk_box ->
          let msg =
            Message.Session_key
              { Message.sk_client = t.cfg.id; sk_replica = sq.sq_replica; sk_box }
          in
          Network.send t.net ~src:(Addr.client t.cfg.id)
            ~dst:(Addr.replica sq.sq_replica)
            (Message.encode msg)
      end
    end

let on_session_ack t (sa : Message.session_ack) =
  match t.cfg.protocol with
  | Pbft | Minbft -> ()
  | Splitbft { ready_quorum } ->
    let auth_ok =
      Hmac.verify_with t.session.Session.auth_key
        ~msg:(Message.session_ack_auth_bytes sa)
        ~tag:sa.sa_auth
    in
    if auth_ok && not (List.mem sa.sa_replica t.exec_acks) then begin
      t.exec_acks <- sa.sa_replica :: t.exec_acks;
      if t.phase = Handshaking && List.length t.exec_acks >= ready_quorum then begin
        t.phase <- Ready;
        t.on_ready ();
        pump t
      end
    end

(* ----- wiring ----- *)

let on_payload t ~src:_ payload =
  if not t.stopped then begin
    match Message.decode payload with
    | Error _ -> ()
    | Ok (Message.Reply rp) -> on_reply t rp
    | Ok (Message.Session_quote sq) -> on_session_quote t sq
    | Ok (Message.Session_ack sa) -> on_session_ack t sa
    | Ok _ -> ()
  end

let start t ~on_ready =
  t.on_ready <- on_ready;
  Network.register t.net (Addr.client t.cfg.id) (fun ~src payload ->
      on_payload t ~src payload);
  match t.cfg.protocol with
  | Pbft | Minbft ->
    t.phase <- Ready;
    on_ready ();
    pump t
  | Splitbft _ ->
    broadcast t (Message.Session_init { Message.si_client = t.cfg.id })

let stop t =
  t.stopped <- true;
  Ts_tbl.iter (fun _ p -> Timer.stop p.retry) t.inflight

let id t = t.cfg.id
let is_ready t = t.phase = Ready
let completed t = t.completed
let outstanding t = Ts_tbl.length t.inflight
let latencies t = t.lat
