module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Resource = Splitbft_sim.Resource
module Timer = Splitbft_sim.Timer
module Cost_model = Splitbft_tee.Cost_model
module Platform = Splitbft_tee.Platform
module Measurement = Splitbft_tee.Measurement
module Sealing = Splitbft_tee.Sealing
module Sha256 = Splitbft_crypto.Sha256
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Keys = Splitbft_types.Keys
module Message = Splitbft_types.Message
module Hmac = Splitbft_crypto.Hmac
module Aead = Splitbft_crypto.Aead
module State_machine = Splitbft_app.State_machine
module Quorum = Splitbft_consensus.Quorum
module Votes = Splitbft_consensus.Votes
module Client_table = Splitbft_consensus.Client_table
module Tracer = Splitbft_obs.Tracer
module Trace_ctx = Splitbft_obs.Trace_ctx

let protocol_name = "minbft"

type config = {
  n : int;
  id : Ids.replica_id;
  cost : Cost_model.t;
  workers : int;
  batch_size : int;
  batch_timeout_us : float;
  checkpoint_interval : int;
  suspect_timeout_us : float;
  recovery_retry_us : float;
}

let default_config ~n ~id =
  { n;
    id;
    cost = Cost_model.default;
    workers = 4;
    batch_size = 1;
    batch_timeout_us = 10_000.0;
    checkpoint_interval = 64;
    suspect_timeout_us = 500_000.0;
    recovery_retry_us = 150_000.0 }

type byzantine_mode =
  | Honest
  | Faulty_tee_equivocate
  | Mute_commits
  | Corrupt_execution

(* An ordered-log entry: one Prepare accepted from the primary, in counter
   order. *)
type entry = {
  e_counter : int64;
  e_digest : string;
  e_batch : Message.request list;
  e_attesters : unit Quorum.t;  (* primary + commit senders *)
  mutable e_executed : bool;
}

type t = {
  cfg : config;
  f : int;
  engine : Engine.t;
  net : Network.t;
  pool : Resource.Pool.pool;
  core : Resource.t;
  usig : Usig.t;
  app : State_machine.t;
  mutable view : Ids.view;
  windows : Usig.Window.w array;  (* per-sender counter windows *)
  holdback : (int * int64, Mmsg.t) Hashtbl.t;
  mutable order : entry list;  (* newest first; counter order when reversed *)
  by_counter : (int64, entry) Hashtbl.t;
  pending_commits : (int64, Mmsg.commit) Votes.t;
  mutable executed_upto : int;  (* executed prefix length of (rev order) *)
  mutable last_exec_counter : int64;
  mutable exec_index : int;  (* global execution position, across views *)
  executed_digests : (int64 * string) list ref;  (* (exec index, digest) *)
  checkpoints : (int64, Mmsg.checkpoint) Votes.t;
  mutable clients : Client_table.t;
  mutable pending : Message.request list;
  mutable pending_count : int;
  batch_timer : Timer.t;
  awaiting : (Ids.client_id * int64, unit) Hashtbl.t;
  suspect_timer : Timer.t;
  viewchanges : (Ids.view, unit) Votes.t;
  mutable crashed : bool;
  mutable epoch : int;
      (* incarnation counter: work queued before a crash must not run after
         a restart, so deferred closures check the epoch they captured *)
  mutable byz : byzantine_mode;
  mutable executed_total : int;
  (* crash-recovery (sealed checkpoints + state transfer).  The USIG [t.usig]
     itself survives crashes: it is trusted hardware with its own
     persistence, and its counter keeps growing monotonically. *)
  platform : Platform.t;
  seal_key : Aead.key;
  initial_snapshot : string;
  mutable persist_log : (string * string) list;  (* sealed blobs, newest first *)
  snapshots : (int64, string) Hashtbl.t;  (* own snapshot at own checkpoint counters *)
  exec_index_at : (int64, int) Hashtbl.t;  (* counter -> exec index after executing it *)
  mutable stable_proof : (int64 * string * Mmsg.checkpoint list) option;
  sync_votes : (int64, string * Message.request list) Votes.t;
  mutable sync_replies : (int * int64 * int) list;
      (* one live slot per replier: (replier, vouched head counter, view) *)
  mutable recovering : bool;
  mutable recovered_count : int;
  mutable alerts : string list;  (* newest first *)
  recovery_timer : Timer.t;
  mutable cur_ctx : Trace_ctx.t option;
      (* trace context of the message being handled; [broadcast]/[send_reply]
         default to it, so everything a handler emits joins its trace *)
}

let primary t = t.view mod t.cfg.n
let is_primary t = primary t = t.cfg.id

let payload_cost t payload =
  t.cfg.cost.serialize_per_byte_us *. float_of_int (String.length payload)

(* Creating a UI crosses into the trusted subsystem. *)
let ui_create_cost t = t.cfg.cost.ecall_transition_us +. t.cfg.cost.sign_us
let ui_verify_cost t = t.cfg.cost.verify_us

(* Synthetic always-sampled root for replica-initiated causality (primary
   suspicion, recovery), installed as the current context around the
   initiating call so the cascade it triggers is traceable. *)
let forced_ctx t ~name =
  match Engine.tracer t.engine with
  | None -> None
  | Some tr ->
    let trace = Tracer.fresh_forced_trace tr in
    let at = Engine.now t.engine in
    let id =
      Tracer.open_span tr ~trace ~name ~cat:"replica.forced" ~pid:t.cfg.id
        ~tid:"core" ~at ()
    in
    Tracer.finish tr id ~at;
    Some { Trace_ctx.trace; span = id; forced = true }

(* MinBFT wire messages carry the same backward-compatible trace trailer
   the shared [Message] codec uses, with the same exact-parse fallback
   against magic-tail collisions in legacy payloads. *)
let decode_mmsg_traced payload =
  match Trace_ctx.strip payload with
  | body, (Some _ as ctx) -> (
    match Mmsg.decode body with
    | Ok m -> Ok (m, ctx)
    | Error _ -> (
      match Mmsg.decode payload with Ok m -> Ok (m, None) | Error e -> Error e))
  | _, None -> (
    match Mmsg.decode payload with Ok m -> Ok (m, None) | Error e -> Error e)

let broadcast t ?ctx ~cost msg =
  let ctx = match ctx with Some _ as c -> c | None -> t.cur_ctx in
  let payload = Trace_ctx.append ctx (Mmsg.encode msg) in
  Resource.Pool.submit t.pool
    ~cost:(cost +. payload_cost t payload)
    (fun () ->
      for j = 0 to t.cfg.n - 1 do
        if j <> t.cfg.id then
          Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j) payload
      done)

let send_reply t ?ctx (reply : Message.reply) =
  let ctx = match ctx with Some _ as c -> c | None -> t.cur_ctx in
  let payload = Message.encode_traced ?ctx (Message.Reply reply) in
  Resource.Pool.submit t.pool
    ~cost:(t.cfg.cost.reply_auth_us +. payload_cost t payload)
    (fun () -> Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.client reply.client) payload)

(* Re-armed on progress so a loaded-but-progressing replica never
   suspects its primary. *)
let refresh_suspect_timer t =
  if Hashtbl.length t.awaiting = 0 then Timer.stop t.suspect_timer
  else Timer.restart t.suspect_timer

let make_reply t ~(req : Message.request) ~result : Message.reply =
  let rp =
    { Message.view = t.view;
      timestamp = req.timestamp;
      client = req.client;
      sender = t.cfg.id;
      result;
      r_auth = "" }
  in
  let key =
    Keys.client_replica_key ~protocol:protocol_name ~client:req.client ~replica:t.cfg.id
  in
  { rp with r_auth = Hmac.mac ~key (Message.reply_auth_bytes rp) }

(* ----- execution ----- *)

let rec try_execute t =
  (* While recovering, the normal path must not execute: a freshly admitted
     entry could jump ahead of gap entries still being state-transferred,
     misaligning execution indices across replicas. *)
  if t.recovering then ()
  else
  let entries = List.rev t.order in
  let rec loop i = function
    | [] -> ()
    | (e : entry) :: rest ->
      if i < t.executed_upto then loop (i + 1) rest
      else if (not e.e_executed) && Quorum.count e.e_attesters >= t.f + 1
      then begin
        e.e_executed <- true;
        t.executed_upto <- i + 1;
        t.last_exec_counter <- e.e_counter;
        t.exec_index <- t.exec_index + 1;
        t.executed_digests := (Int64.of_int t.exec_index, e.e_digest) :: !(t.executed_digests);
        Hashtbl.replace t.exec_index_at e.e_counter t.exec_index;
        let exec_cost = t.cfg.cost.exec_op_us *. float_of_int (List.length e.e_batch) in
        let replies = ref [] in
        List.iter
          (fun (req : Message.request) ->
            Hashtbl.remove t.awaiting (req.client, req.timestamp);
            if not (Client_table.executed t.clients req.client req.timestamp) then begin
              let result =
                match t.byz with
                | Corrupt_execution -> "CORRUPT"
                | Honest | Faulty_tee_equivocate | Mute_commits ->
                  t.app.State_machine.apply req.payload
              in
              let reply = make_reply t ~req ~result in
              Client_table.record t.clients req.client req.timestamp (Some reply);
              replies := reply :: !replies;
              t.executed_total <- t.executed_total + 1
            end)
          e.e_batch;
        refresh_suspect_timer t;
        let outgoing = List.rev !replies in
        (* The closure runs after the handler returns; pin its trace context
           now so replies still join the committing message's trace. *)
        let ctx = t.cur_ctx in
        Resource.submit t.core ~cost:exec_cost (fun () ->
            List.iter (send_reply t ?ctx) outgoing);
        maybe_checkpoint t e.e_counter;
        loop (i + 1) rest
      end
  in
  loop 0 entries

and maybe_checkpoint t counter =
  if t.executed_upto mod t.cfg.checkpoint_interval = 0 then begin
    let snapshot = t.app.State_machine.snapshot () in
    let state_digest = Sha256.digest snapshot in
    (* Cache the snapshot so a Statereply can serve bytes matching the
       certified digest. *)
    Hashtbl.replace t.snapshots counter snapshot;
    let unsigned =
      { Mmsg.k_counter = counter;
        k_state_digest = state_digest;
        k_sender = t.cfg.id;
        k_ui = { Usig.counter = 0L; cert = "" } }
    in
    let k_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Checkpoint unsigned)) in
    let signed = { unsigned with Mmsg.k_ui } in
    (* Our own vote joins the certificate so a stable proof can be
       assembled from f+1 UI-signed checkpoints including ours. *)
    ignore (Votes.add t.checkpoints ~key:counter ~sender:t.cfg.id signed);
    broadcast t ~cost:(ui_create_cost t) (Mmsg.Checkpoint signed);
    seal_checkpoint_state t ~counter ~snapshot
  end

(* ----- rollback-protected sealed checkpoints ----- *)

and encode_recovery_image t ~counter ~snapshot =
  W.to_string
    (fun w () ->
      W.u64 w counter;
      W.varint w t.view;
      W.varint w t.exec_index;
      W.u64 w t.last_exec_counter;
      W.bytes w snapshot;
      W.list w
        (fun w (i, d) ->
          W.u64 w i;
          W.bytes w d)
        !(t.executed_digests))
    ()

(* Each seal bumps the platform's monotonic counter and binds the new value
   into the image — the same rollback defense as the SplitBFT compartments,
   for the comparison rows. *)
and seal_checkpoint_state t ~counter:_ ~snapshot =
  let seal_counter = Platform.counter_increment t.platform "ckpt" in
  let sealed =
    Sealing.seal ~key:t.seal_key ~rng:(Platform.rng t.platform)
      (encode_recovery_image t ~counter:seal_counter ~snapshot)
  in
  t.persist_log <- ("ckpt:minbft", sealed) :: t.persist_log

let decode_recovery_image s =
  R.parse
    (fun r ->
      let counter = R.u64 r in
      let view = R.varint r in
      let exec_index = R.varint r in
      let last_exec_counter = R.u64 r in
      let snapshot = R.bytes r in
      let executed =
        R.list r (fun r ->
            let i = R.u64 r in
            let d = R.bytes r in
            (i, d))
      in
      (counter, view, exec_index, last_exec_counter, snapshot, executed))
    s

(* ----- prepare / commit ----- *)

let accept_prepare t (p : Mmsg.prepare) =
  let counter = p.p_ui.Usig.counter in
  if not (Hashtbl.mem t.by_counter counter) then begin
    let digest = Message.digest_of_batch p.p_batch in
    let e =
      { e_counter = counter;
        e_digest = digest;
        e_batch = p.p_batch;
        e_attesters = Quorum.create ();
        e_executed = false }
    in
    ignore (Quorum.add e.e_attesters ~sender:(primary t) ());
    Hashtbl.replace t.by_counter counter e;
    t.order <- e :: t.order;
    List.iter
      (fun (req : Message.request) ->
        Hashtbl.replace t.awaiting (req.client, req.timestamp) ())
      p.p_batch;
    refresh_suspect_timer t;
    (* Fold in commits that raced ahead of the prepare. *)
    let raced = Votes.get t.pending_commits counter in
    Votes.remove t.pending_commits counter;
    List.iter
      (fun (c : Mmsg.commit) ->
        if String.equal c.c_digest digest then
          ignore (Quorum.add e.e_attesters ~sender:c.c_sender ()))
      raced;
    if not (is_primary t) then begin
      match t.byz with
      | Mute_commits -> ()
      | Honest | Faulty_tee_equivocate | Corrupt_execution ->
        let commit =
          { Mmsg.c_view = t.view;
            c_primary_counter = counter;
            c_digest = digest;
            c_sender = t.cfg.id;
            c_ui = { Usig.counter = 0L; cert = "" } }
        in
        let signed =
          { commit with c_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Commit commit)) }
        in
        ignore (Quorum.add e.e_attesters ~sender:t.cfg.id ());
        broadcast t ~cost:(ui_create_cost t) (Mmsg.Commit signed)
    end;
    try_execute t
  end

let on_commit t (c : Mmsg.commit) =
  if c.c_view = t.view then begin
    match Hashtbl.find_opt t.by_counter c.c_primary_counter with
    | Some e ->
      if String.equal c.c_digest e.e_digest then begin
        ignore (Quorum.add e.e_attesters ~sender:c.c_sender ());
        try_execute t
      end
    | None ->
      ignore (Votes.add t.pending_commits ~key:c.c_primary_counter ~sender:c.c_sender c)
  end

let on_checkpoint t (k : Mmsg.checkpoint) =
  if Votes.add t.checkpoints ~key:k.k_counter ~sender:k.k_sender k then begin
    let all = Votes.get t.checkpoints k.k_counter in
    let matching =
      List.filter (fun (e : Mmsg.checkpoint) -> String.equal e.k_state_digest k.k_state_digest) all
    in
    if List.length matching >= t.f + 1 then begin
      (* Keep the newest f+1 certificate around: it is the proof served to
         recovering replicas alongside the matching snapshot. *)
      (match t.stable_proof with
      | Some (c, _, _) when Int64.compare c k.k_counter >= 0 -> ()
      | Some _ | None ->
        t.stable_proof <- Some (k.k_counter, k.k_state_digest, matching);
        Hashtbl.iter
          (fun c _ ->
            if Int64.compare c k.k_counter < 0 then Hashtbl.remove t.snapshots c)
          (Hashtbl.copy t.snapshots);
        Hashtbl.iter
          (fun c _ ->
            if Int64.compare c k.k_counter < 0 then Hashtbl.remove t.exec_index_at c)
          (Hashtbl.copy t.exec_index_at));
      (* Stable: trim executed entries below the checkpoint. *)
      t.order <-
        List.filter
          (fun (e : entry) ->
            (not e.e_executed) || Int64.compare e.e_counter k.k_counter > 0)
          t.order;
      let removed = Hashtbl.length t.by_counter in
      Hashtbl.iter
        (fun counter (e : entry) ->
          if e.e_executed && Int64.compare counter k.k_counter <= 0 then
            Hashtbl.remove t.by_counter counter)
        (Hashtbl.copy t.by_counter);
      ignore removed;
      t.executed_upto <- List.length (List.filter (fun e -> e.e_executed) t.order)
    end
  end

(* ----- batching (primary) ----- *)

let rec flush_batch t =
  if is_primary t && t.pending_count > 0 then begin
    let take = min t.cfg.batch_size t.pending_count in
    let all = List.rev t.pending in
    let rec split i acc rest =
      if i = 0 then (List.rev acc, rest)
      else match rest with [] -> (List.rev acc, []) | x :: tl -> split (i - 1) (x :: acc) tl
    in
    let batch, remaining = split take [] all in
    t.pending <- List.rev remaining;
    t.pending_count <- t.pending_count - take;
    let make reqs =
      let unsigned = { Mmsg.p_view = t.view; p_batch = reqs; p_ui = { Usig.counter = 0L; cert = "" } } in
      { unsigned with
        Mmsg.p_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Prepare unsigned)) }
    in
    (match t.byz with
    | Faulty_tee_equivocate when List.length batch > 0 ->
      (* Compromised USIG: assign the same counter to two conflicting
         Prepares and show each to half the backups. *)
      let p_a = make batch in
      let tampered =
        match batch with
        | [] -> []
        | first :: rest -> { first with Message.payload = first.payload ^ "\x00evil" } :: rest
      in
      Usig.tamper_set t.usig (Int64.sub p_a.Mmsg.p_ui.Usig.counter 1L);
      let p_b = make tampered in
      let pay_a = Mmsg.encode (Mmsg.Prepare p_a) in
      let pay_b = Mmsg.encode (Mmsg.Prepare p_b) in
      Resource.Pool.submit t.pool ~cost:(2.0 *. ui_create_cost t) (fun () ->
          for j = 0 to t.cfg.n - 1 do
            if j <> t.cfg.id then
              Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j)
                (if j mod 2 = 1 then pay_a else pay_b)
          done)
    | Honest | Faulty_tee_equivocate | Mute_commits | Corrupt_execution ->
      let p = make batch in
      accept_prepare t p;
      broadcast t ~cost:(ui_create_cost t) (Mmsg.Prepare p));
    if t.pending_count >= t.cfg.batch_size then flush_batch t
    else if t.pending_count > 0 then Timer.start t.batch_timer
    else Timer.stop t.batch_timer
  end

(* ----- view change (simplified; see DESIGN.md) ----- *)

let enter_view t v =
  if v > t.view then begin
    t.view <- v;
    t.order <- List.filter (fun (e : entry) -> e.e_executed) t.order;
    Votes.reset t.pending_commits;
    t.executed_upto <- List.length t.order;
    refresh_suspect_timer t;
    if is_primary t then begin
      let nv = { Mmsg.n_view = v; n_sender = t.cfg.id; n_ui = { Usig.counter = 0L; cert = "" } } in
      let nv = { nv with Mmsg.n_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Newview nv)) } in
      broadcast t ~cost:(ui_create_cost t) (Mmsg.Newview nv);
      flush_batch t
    end
  end

let on_viewchange t (v : Mmsg.viewchange) =
  if Votes.add t.viewchanges ~key:v.v_new_view ~sender:v.v_sender () then begin
    if v.v_new_view > t.view && Votes.count t.viewchanges v.v_new_view >= t.f + 1 then
      enter_view t v.v_new_view
  end

let start_view_change t =
  let target = t.view + 1 in
  let vc = { Mmsg.v_new_view = target; v_sender = t.cfg.id; v_ui = { Usig.counter = 0L; cert = "" } } in
  let vc = { vc with Mmsg.v_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Viewchange vc)) } in
  ignore (Votes.add t.viewchanges ~key:target ~sender:t.cfg.id ());
  broadcast t ~cost:(ui_create_cost t) (Mmsg.Viewchange vc)

(* ----- requests ----- *)

let resend_cached_reply t (r : Message.request) =
  match Client_table.cached_reply t.clients r.client r.timestamp with
  | Some reply -> send_reply t reply
  | None -> ()

let request_auth_ok (r : Message.request) ~replica =
  Keys.check_authenticator ~protocol:protocol_name ~client:r.client ~replica
    ~msg:(Message.request_auth_bytes r) ~auth:r.auth

let on_request t (r : Message.request) =
  if Client_table.executed t.clients r.client r.timestamp then resend_cached_reply t r
  else begin
    Hashtbl.replace t.awaiting (r.client, r.timestamp) ();
    refresh_suspect_timer t;
    if is_primary t then begin
      let queued =
        List.exists
          (fun (q : Message.request) -> q.client = r.client && q.timestamp = r.timestamp)
          t.pending
      in
      let ordered =
        Hashtbl.fold
          (fun _ (e : entry) acc ->
            acc
            || List.exists
                 (fun (q : Message.request) ->
                   q.client = r.client && q.timestamp = r.timestamp)
                 e.e_batch)
          t.by_counter false
      in
      if not (queued || ordered) then begin
        t.pending <- r :: t.pending;
        t.pending_count <- t.pending_count + 1;
        if t.pending_count >= t.cfg.batch_size then flush_batch t
        else Timer.start t.batch_timer
      end
    end
  end

(* ----- dispatch with per-sender counter windows ----- *)

let sender_of t (msg : Mmsg.t) =
  match msg with
  | Mmsg.Prepare p -> p.Mmsg.p_view mod t.cfg.n
  | _ -> Mmsg.sender msg

let handle t (msg : Mmsg.t) =
  match msg with
  | Mmsg.Prepare p ->
    if p.p_view = t.view && not (is_primary t) then accept_prepare t p
  | Mmsg.Commit c -> on_commit t c
  | Mmsg.Checkpoint k -> on_checkpoint t k
  | Mmsg.Viewchange v -> on_viewchange t v
  | Mmsg.Newview n -> if n.n_view > t.view then enter_view t n.n_view
  | Mmsg.Statereq _ | Mmsg.Statereply _ -> ()
  (* dispatched around the USIG path in [on_payload]; never reach here *)

(* Process each sender's stream strictly in counter order; this is what
   makes the USIG's non-equivocation guarantee effective. *)
let rec admit t sender (msg : Mmsg.t) =
  let counter = (Mmsg.ui msg).Usig.counter in
  match Usig.Window.admit t.windows.(sender) counter with
  | `Next ->
    handle t msg;
    drain_holdback t sender
  | `Future -> Hashtbl.replace t.holdback (sender, counter) msg
  | `Seen -> ()  (* replayed or rolled-back identifier *)

and drain_holdback t sender =
  let next = Int64.add (Usig.Window.last t.windows.(sender)) 1L in
  match Hashtbl.find_opt t.holdback (sender, next) with
  | Some msg ->
    Hashtbl.remove t.holdback (sender, next);
    admit t sender msg
  | None -> ()

(* ----- state transfer (crash-recovery) ----- *)

let request_state t =
  t.cur_ctx <- forced_ctx t ~name:"recovery";
  broadcast t ~cost:0.0 (Mmsg.Statereq { Mmsg.q_requester = t.cfg.id });
  t.cur_ctx <- None

(* Serve our checkpoint proof + snapshot + executed suffix to a recovering
   peer.  The snapshot is only offered when its digest matches the stable
   certificate and we know our execution index at that point — otherwise
   the requester recovers from suffix entries alone. *)
let on_state_request t (q : Mmsg.state_request) =
  if q.q_requester <> t.cfg.id && (not t.recovering)
     && q.q_requester >= 0 && q.q_requester < t.cfg.n
  then begin
    let proof, stable_counter, snapshot, exec_prefix =
      match t.stable_proof with
      | Some (counter, digest, proof) -> (
        match (Hashtbl.find_opt t.snapshots counter, Hashtbl.find_opt t.exec_index_at counter) with
        | Some snap, Some prefix when String.equal (Sha256.digest snap) digest ->
          (proof, counter, snap, prefix)
        | _ -> ([], 0L, "", 0))
      | None -> ([], 0L, "", 0)
    in
    let entries =
      List.rev t.order
      |> List.filter (fun (e : entry) ->
             e.e_executed && Int64.compare e.e_counter stable_counter > 0)
      |> List.map (fun (e : entry) ->
             { Mmsg.t_counter = e.e_counter; t_digest = e.e_digest; t_batch = e.e_batch })
    in
    let windows =
      Array.to_list (Array.mapi (fun i w -> (i, Usig.Window.last w)) t.windows)
    in
    let reply =
      { Mmsg.s_replier = t.cfg.id;
        s_requester = q.q_requester;
        s_view = t.view;
        s_proof = proof;
        s_stable_counter = stable_counter;
        s_snapshot = snapshot;
        s_exec_prefix = exec_prefix;
        s_entries = entries;
        s_windows = windows }
    in
    let payload = Mmsg.encode (Mmsg.Statereply reply) in
    Resource.Pool.submit t.pool ~cost:(payload_cost t payload) (fun () ->
        Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica q.q_requester) payload)
  end

(* Keep [order] sorted newest-counter-first when recovery inserts below the
   live head. *)
let rec insert_sorted (e : entry) = function
  | [] -> [ e ]
  | (x : entry) :: rest as l ->
    if Int64.compare e.e_counter x.e_counter >= 0 then e :: l
    else x :: insert_sorted e rest

(* Apply a state-transferred entry: advances the execution index exactly as
   the live path would, so indices stay aligned with the rest of the
   cluster.  No client replies — peers already answered these requests. *)
let install_entry t ~counter ~digest ~(batch : Message.request list) =
  t.last_exec_counter <- counter;
  t.exec_index <- t.exec_index + 1;
  t.executed_digests := (Int64.of_int t.exec_index, digest) :: !(t.executed_digests);
  Hashtbl.replace t.exec_index_at counter t.exec_index;
  List.iter
    (fun (req : Message.request) ->
      Hashtbl.remove t.awaiting (req.client, req.timestamp);
      if not (Client_table.executed t.clients req.client req.timestamp) then begin
        ignore (t.app.State_machine.apply req.payload);
        Client_table.record t.clients req.client req.timestamp None;
        t.executed_total <- t.executed_total + 1
      end)
    batch;
  match Hashtbl.find_opt t.by_counter counter with
  | Some e -> e.e_executed <- true
  | None ->
    let e =
      { e_counter = counter;
        e_digest = digest;
        e_batch = batch;
        e_attesters = Quorum.create ();
        e_executed = true }
    in
    Hashtbl.replace t.by_counter counter e;
    t.order <- insert_sorted e t.order

let finish_recovery_if_caught_up t =
  if t.recovering && List.length t.sync_replies >= t.f + 1 then begin
    let heads =
      List.sort (fun a b -> Int64.compare b a) (List.map (fun (_, h, _) -> h) t.sync_replies)
    in
    (* f+1 repliers vouch for at least this head, so one of them is honest:
       reaching it means we hold the full executed prefix. *)
    let target = List.nth heads t.f in
    if Int64.compare t.last_exec_counter target >= 0 then begin
      let views =
        List.sort (fun a b -> Int.compare b a) (List.map (fun (_, _, v) -> v) t.sync_replies)
      in
      let v = List.nth views t.f in
      if v > t.view then t.view <- v;
      t.recovering <- false;
      t.recovered_count <- t.recovered_count + 1;
      t.sync_replies <- [];
      Votes.reset t.sync_votes;
      Timer.stop t.recovery_timer;
      (* Re-derive the executed prefix length over the rebuilt order. *)
      let rec prefix n = function
        | (e : entry) :: rest when e.e_executed -> prefix (n + 1) rest
        | _ -> n
      in
      t.executed_upto <- prefix 0 (List.rev t.order);
      for s = 0 to t.cfg.n - 1 do
        if s <> t.cfg.id then drain_holdback t s
      done;
      refresh_suspect_timer t;
      try_execute t
    end
  end

let on_state_reply t (s : Mmsg.state_reply) =
  if t.recovering && s.s_requester = t.cfg.id && s.s_replier <> t.cfg.id
     && s.s_replier >= 0 && s.s_replier < t.cfg.n
  then begin
    (* 1. Snapshot install, when the f+1 UI-signed certificate checks out
       and it extends what the sealed checkpoint restored. *)
    if Int64.compare s.s_stable_counter t.last_exec_counter > 0 then begin
      let digest = Sha256.digest s.s_snapshot in
      let matching =
        List.filter
          (fun (k : Mmsg.checkpoint) ->
            Int64.equal k.k_counter s.s_stable_counter
            && String.equal k.k_state_digest digest)
          s.s_proof
      in
      let senders =
        List.sort_uniq compare (List.map (fun (k : Mmsg.checkpoint) -> k.k_sender) matching)
      in
      let certified =
        List.length senders >= t.f + 1
        && List.for_all
             (fun (k : Mmsg.checkpoint) ->
               Usig.verify_ui ~id:k.k_sender
                 ~msg:(Mmsg.signed_part (Mmsg.Checkpoint k))
                 k.k_ui)
             matching
      in
      if certified then
        match t.app.State_machine.restore s.s_snapshot with
        | Error _ -> ()
        | Ok () ->
          t.last_exec_counter <- s.s_stable_counter;
          t.exec_index <- s.s_exec_prefix;
          t.order <-
            List.filter
              (fun (e : entry) -> Int64.compare e.e_counter s.s_stable_counter > 0)
              t.order;
          Hashtbl.iter
            (fun c _ ->
              if Int64.compare c s.s_stable_counter <= 0 then Hashtbl.remove t.by_counter c)
            (Hashtbl.copy t.by_counter)
    end;
    (* 2. Vote in suffix entries — content-addressed, so a single reply's
       bytes are trusted only once f+1 distinct repliers vouch for the
       digest.  Each reply lists entries counter-ascending, so installs
       happen in order. *)
    List.iter
      (fun (e : Mmsg.state_entry) ->
        if String.equal e.t_digest (Message.digest_of_batch e.t_batch) then begin
          ignore
            (Votes.add t.sync_votes ~key:e.t_counter ~sender:s.s_replier
               (e.t_digest, e.t_batch));
          if Int64.compare e.t_counter t.last_exec_counter > 0 then begin
            let votes = Votes.get t.sync_votes e.t_counter in
            let agreeing = List.filter (fun (d, _) -> String.equal d e.t_digest) votes in
            if List.length agreeing >= t.f + 1 then
              install_entry t ~counter:e.t_counter ~digest:e.t_digest ~batch:e.t_batch
          end
        end)
      s.s_entries;
    (* 3. Fast-forward per-sender windows past counters the transfer covers
       (forward-only, so a lying replier can cost liveness, never safety). *)
    List.iter
      (fun (i, c) ->
        if i >= 0 && i < t.cfg.n && i <> t.cfg.id then
          Usig.Window.fast_forward t.windows.(i) c)
      s.s_windows;
    (* 4. One live slot per replier: a retry round's reply supersedes. *)
    let head =
      List.fold_left
        (fun acc (e : Mmsg.state_entry) ->
          if Int64.compare e.t_counter acc > 0 then e.t_counter else acc)
        s.s_stable_counter s.s_entries
    in
    t.sync_replies <-
      (s.s_replier, head, s.s_view)
      :: List.filter (fun (r, _, _) -> r <> s.s_replier) t.sync_replies;
    finish_recovery_if_caught_up t
  end

let mmsg_name = function
  | Mmsg.Prepare _ -> "prepare"
  | Mmsg.Commit _ -> "commit"
  | Mmsg.Checkpoint _ -> "checkpoint"
  | Mmsg.Viewchange _ -> "viewchange"
  | Mmsg.Newview _ -> "newview"
  | Mmsg.Statereq _ -> "statereq"
  | Mmsg.Statereply _ -> "statereply"

(* Handling span, opened when the core picks the message up (back-dated to
   its arrival so verification time is covered) and installed as the
   current context for whatever the handler emits. *)
let open_handle_span t ctx ~name ~crypto ~serialize ~at =
  match (Engine.tracer t.engine, ctx) with
  | Some tr, Some { Trace_ctx.trace; span; forced } ->
    let id =
      Tracer.open_span tr ~parent:span ~trace
        ~name:(protocol_name ^ ":" ^ name) ~cat:"replica" ~pid:t.cfg.id
        ~tid:"core" ~at ()
    in
    Tracer.add_arg tr id "crypto_us" crypto;
    Tracer.add_arg tr id "serialize_us" serialize;
    Tracer.add_arg tr id "core_us" t.cfg.cost.pbft_core_us;
    t.cur_ctx <- Some { Trace_ctx.trace; span = id; forced };
    Some (tr, id)
  | _ ->
    t.cur_ctx <- ctx;
    None

let close_handle_span t sp =
  t.cur_ctx <- None;
  match sp with
  | Some (tr, id) -> Tracer.finish tr id ~at:(Engine.now t.engine)
  | None -> ()

let on_payload t ~src:_ payload =
  if not t.crashed then begin
    (* Deferred closures only run if the replica is still in the same
       incarnation — work queued before a crash must not fire afterwards. *)
    let epoch = t.epoch in
    let live () = t.epoch = epoch && not t.crashed in
    let received = Engine.now t.engine in
    if Mmsg.is_minbft_payload payload then begin
      match decode_mmsg_traced payload with
      | Error _ -> ()
      | Ok (msg, tctx) ->
        let sender = sender_of t msg in
        (match msg with
        | Mmsg.Statereq _ | Mmsg.Statereply _ ->
          (* No UI of their own; certificates inside a Statereply are
             checked by [on_state_reply]. *)
          if sender >= 0 && sender < t.cfg.n && sender <> t.cfg.id then
            Resource.Pool.submit t.pool ~cost:(payload_cost t payload) (fun () ->
                if live () then
                  Resource.submit t.core ~cost:t.cfg.cost.pbft_core_us (fun () ->
                      if live () then begin
                        let sp =
                          open_handle_span t tctx ~name:(mmsg_name msg)
                            ~crypto:0.0 ~serialize:(payload_cost t payload)
                            ~at:received
                        in
                        (match msg with
                        | Mmsg.Statereq q -> on_state_request t q
                        | Mmsg.Statereply s -> on_state_reply t s
                        | _ -> ());
                        close_handle_span t sp
                      end))
        | _ ->
          if sender >= 0 && sender < t.cfg.n && sender <> t.cfg.id then
            Resource.Pool.submit t.pool
              ~cost:(ui_verify_cost t +. payload_cost t payload)
              (fun () ->
                if
                  live ()
                  && Usig.verify_ui ~id:sender ~msg:(Mmsg.signed_part msg) (Mmsg.ui msg)
                then
                  Resource.submit t.core ~cost:t.cfg.cost.pbft_core_us (fun () ->
                      if live () then begin
                        let sp =
                          open_handle_span t tctx ~name:(mmsg_name msg)
                            ~crypto:(ui_verify_cost t)
                            ~serialize:(payload_cost t payload) ~at:received
                        in
                        admit t sender msg;
                        close_handle_span t sp
                      end)))
    end
    else
      match Message.decode_traced payload with
      | Ok (Message.Request r, tctx) ->
        Resource.Pool.submit t.pool
          ~cost:(t.cfg.cost.client_auth_us +. payload_cost t payload)
          (fun () ->
            if live () && request_auth_ok r ~replica:t.cfg.id then
              Resource.submit t.core ~cost:t.cfg.cost.pbft_core_us (fun () ->
                  if live () then begin
                    let sp =
                      open_handle_span t tctx ~name:"request"
                        ~crypto:t.cfg.cost.client_auth_us
                        ~serialize:(payload_cost t payload) ~at:received
                    in
                    on_request t r;
                    close_handle_span t sp
                  end))
      | Ok _ | Error _ -> ()
  end

(* ----- construction ----- *)

let measurement =
  Measurement.of_source ~name:"minbft-replica" ~version:"1"
    ~code:"baseline minbft replica checkpoint state"

let create engine net cfg ~app =
  if cfg.n < 3 then invalid_arg "Minbft.Replica.create: need n >= 3";
  let platform = Platform.create engine ~id:cfg.id in
  let rec t =
    lazy
      { cfg;
        f = Ids.f_of_n_hybrid cfg.n;
        engine;
        net;
        pool =
          Resource.Pool.create engine
            ~name:(Printf.sprintf "minbft%d-pool" cfg.id)
            ~workers:cfg.workers;
        core = Resource.create engine ~name:(Printf.sprintf "minbft%d-core" cfg.id);
        usig = Usig.create ~id:cfg.id;
        app;
        view = 0;
        windows = Array.init cfg.n (fun _ -> Usig.Window.create ());
        holdback = Hashtbl.create 64;
        order = [];
        by_counter = Hashtbl.create 256;
        pending_commits = Votes.create ();
        executed_upto = 0;
        last_exec_counter = 0L;
        exec_index = 0;
        executed_digests = ref [];
        checkpoints = Votes.create ();
        clients = Client_table.create ();
        pending = [];
        pending_count = 0;
        batch_timer =
          Timer.create engine
            ~label:(Printf.sprintf "minbft%d-batch" cfg.id)
            ~delay:cfg.batch_timeout_us
            ~callback:(fun () -> flush_batch (Lazy.force t));
        awaiting = Hashtbl.create 64;
        suspect_timer =
          Timer.create engine
            ~label:(Printf.sprintf "minbft%d-suspect" cfg.id)
            ~delay:cfg.suspect_timeout_us
            ~callback:
              (fun () ->
              let t = Lazy.force t in
              if Hashtbl.length t.awaiting > 0 then begin
                t.cur_ctx <- forced_ctx t ~name:"suspect";
                start_view_change t;
                t.cur_ctx <- None;
                Timer.restart t.suspect_timer
              end);
        viewchanges = Votes.create ();
        crashed = false;
        epoch = 0;
        byz = Honest;
        executed_total = 0;
        platform;
        seal_key = Aead.prepare (Platform.sealing_key platform measurement);
        initial_snapshot = app.State_machine.snapshot ();
        persist_log = [];
        snapshots = Hashtbl.create 8;
        exec_index_at = Hashtbl.create 64;
        stable_proof = None;
        sync_votes = Votes.create ();
        sync_replies = [];
        recovering = false;
        recovered_count = 0;
        alerts = [];
        recovery_timer =
          Timer.create engine
            ~label:(Printf.sprintf "minbft%d-recovery" cfg.id)
            ~delay:cfg.recovery_retry_us
            ~callback:
              (fun () ->
              let t = Lazy.force t in
              (* Commits in flight during the crash are gone for good, so a
                 single request round can leave a gap; keep asking until the
                 vouched head is reached. *)
              if t.recovering && not t.crashed then begin
                request_state t;
                Timer.restart t.recovery_timer
              end);
        cur_ctx = None }
  in
  let t = Lazy.force t in
  Network.register net (Addr.replica cfg.id) (fun ~src payload -> on_payload t ~src payload);
  t

let id t = t.cfg.id
let view t = t.view
let executed_count t = t.executed_total
let last_executed_counter t = t.last_exec_counter
let executed_log t = List.rev !(t.executed_digests)
let app_digest t = State_machine.digest t.app

(* Crash quiesces: bump the incarnation so deferred pool/core work is
   dropped, silence every timer, and clear in-flight request state.  Only
   [persist_log] (disk), the platform (hardware counters, sealing secret)
   and the USIG (trusted, persistent) survive. *)
let crash t =
  t.crashed <- true;
  t.epoch <- t.epoch + 1;
  Timer.stop t.batch_timer;
  Timer.stop t.suspect_timer;
  Timer.stop t.recovery_timer;
  t.pending <- [];
  t.pending_count <- 0;
  Hashtbl.reset t.awaiting;
  t.recovering <- false;
  Network.unregister t.net (Addr.replica t.cfg.id)

let is_crashed t = t.crashed
let set_byzantine t mode = t.byz <- mode

(* ----- restart with rollback-protected recovery ----- *)

let refuse t reason = t.alerts <- reason :: t.alerts

let restart t =
  if t.crashed then begin
    (* The process image is gone: wipe all volatile state back to genesis
       before consulting the sealed checkpoint. *)
    t.epoch <- t.epoch + 1;
    t.view <- 0;
    Array.iteri (fun i _ -> t.windows.(i) <- Usig.Window.create ()) t.windows;
    Hashtbl.reset t.holdback;
    t.order <- [];
    Hashtbl.reset t.by_counter;
    Votes.reset t.pending_commits;
    t.executed_upto <- 0;
    t.last_exec_counter <- 0L;
    t.exec_index <- 0;
    t.executed_digests := [];
    Votes.reset t.checkpoints;
    (* A stale reply cache would make re-execution skip operations the
       snapshot does not cover, so the client table starts fresh too. *)
    t.clients <- Client_table.create ();
    t.pending <- [];
    t.pending_count <- 0;
    Hashtbl.reset t.awaiting;
    Votes.reset t.viewchanges;
    Hashtbl.reset t.snapshots;
    Hashtbl.reset t.exec_index_at;
    t.stable_proof <- None;
    Votes.reset t.sync_votes;
    t.sync_replies <- [];
    t.recovering <- false;
    ignore (t.app.State_machine.restore t.initial_snapshot);
    let counter = Platform.counter_read t.platform "ckpt" in
    let verdict =
      match List.assoc_opt "ckpt:minbft" t.persist_log with
      | None ->
        if Int64.compare counter 0L > 0 then
          Error
            (Printf.sprintf
               "minbft: rollback detected — counter at %Ld but no sealed checkpoint on disk"
               counter)
        else Ok None
      | Some sealed -> (
        match Sealing.unseal ~key:t.seal_key sealed with
        | Error e -> Error ("minbft: sealed checkpoint rejected: " ^ e)
        | Ok image -> (
          match decode_recovery_image image with
          | Error e -> Error ("minbft: sealed checkpoint undecodable: " ^ e)
          | Ok (sealed_counter, view, exec_index, last_exec_counter, snapshot, executed) ->
            if Int64.compare sealed_counter counter <> 0 then
              Error
                (Printf.sprintf
                   "minbft: rollback detected — sealed checkpoint bound to counter %Ld, \
                    platform counter is %Ld"
                   sealed_counter counter)
            else (
              match t.app.State_machine.restore snapshot with
              | Error e -> Error ("minbft: sealed snapshot rejected by application: " ^ e)
              | Ok () -> Ok (Some (view, exec_index, last_exec_counter, executed)))))
    in
    match verdict with
    | Error reason -> refuse t reason (* refuse loudly and stay down *)
    | Ok restored ->
      (match restored with
      | None -> ()
      | Some (view, exec_index, last_exec_counter, executed) ->
        t.view <- view;
        t.exec_index <- exec_index;
        t.last_exec_counter <- last_exec_counter;
        t.executed_digests := executed);
      t.crashed <- false;
      t.recovering <- true;
      Network.register t.net (Addr.replica t.cfg.id) (fun ~src payload ->
          on_payload t ~src payload);
      request_state t;
      Timer.restart t.recovery_timer
  end

let is_recovering t = t.recovering
let recovered t = t.recovered_count > 0 && not t.recovering
let recovery_alerts t = List.rev t.alerts
let persisted t = List.rev t.persist_log
let tamper_counter t name = Platform.counter_tamper_reset t.platform name
