module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Resource = Splitbft_sim.Resource
module Timer = Splitbft_sim.Timer
module Cost_model = Splitbft_tee.Cost_model
module Platform = Splitbft_tee.Platform
module Sealing = Splitbft_tee.Sealing
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Keys = Splitbft_types.Keys
module Message = Splitbft_types.Message
module Hmac = Splitbft_crypto.Hmac
module Aead = Splitbft_crypto.Aead
module State_machine = Splitbft_app.State_machine
module Client_table = Splitbft_consensus.Client_table
module Sealed_image = Splitbft_consensus.Sealed_image
module Tracer = Splitbft_obs.Tracer
module Trace_ctx = Splitbft_obs.Trace_ctx

type t = {
  protocol : string;
  n : int;
  id : Ids.replica_id;
  cost : Cost_model.t;
  batch_size : int;
  engine : Engine.t;
  net : Network.t;
  pool : Resource.Pool.pool;
  core : Resource.t;
  app : State_machine.t;
  initial_snapshot : string;
  platform : Platform.t;
  seal_key : Aead.key;
  receive : string -> unit;
  flush : unit -> unit;
  state_request : unit -> string;
  mutable clients : Client_table.t;
  pending : Message.request Queue.t;  (* batch queue, FIFO *)
  awaiting : (Ids.client_id * int64, unit) Hashtbl.t;
  batch_timer : Timer.t;
  suspect_timer : Timer.t;
  recovery_timer : Timer.t;
  disk : (string, int * string) Hashtbl.t;  (* tag -> (write number, data) *)
  mutable writes : int;
  mutable crashed : bool;
  mutable epoch : int;
      (* incarnation counter: work queued before a crash must not run after
         a restart, so deferred closures check the epoch they captured *)
  mutable recovering : bool;
  mutable recovered_count : int;
  mutable alerts : string list;  (* newest first *)
  mutable executed_total : int;
  mutable cur_ctx : Trace_ctx.t option;
      (* trace context of the message being handled; sends default to it,
         so everything a handler emits joins its trace *)
}

let payload_cost h payload =
  h.cost.serialize_per_byte_us *. float_of_int (String.length payload)

(* ----- sending ----- *)

let spray h ~cost payloads =
  Resource.Pool.submit h.pool ~cost (fun () ->
      for j = 0 to h.n - 1 do
        if j <> h.id then
          List.iter
            (Network.send h.net ~src:(Addr.replica h.id) ~dst:(Addr.replica j))
            (payloads j)
      done)

let send_in h ctx ~cost dst payload =
  let payload = Trace_ctx.append ctx payload in
  Resource.Pool.submit h.pool
    ~cost:(cost +. payload_cost h payload)
    (fun () -> Network.send h.net ~src:(Addr.replica h.id) ~dst payload)

let send h ~cost dst payload = send_in h h.cur_ctx ~cost dst payload

let broadcast h ~cost payload =
  let payload = Trace_ctx.append h.cur_ctx payload in
  spray h ~cost:(cost +. payload_cost h payload) (fun _ -> [ payload ])

let send_reply h ctx (reply : Message.reply) =
  send_in h ctx ~cost:h.cost.reply_auth_us (Addr.client reply.client)
    (Message.encode (Message.Reply reply))

(* ----- tracing ----- *)

let forced h ~name f =
  h.cur_ctx <-
    Option.map
      (fun tr ->
        let trace = Tracer.fresh_forced_trace tr in
        let at = Engine.now h.engine in
        let span =
          Tracer.open_span tr ~trace ~name ~cat:"replica.forced" ~pid:h.id ~tid:"core" ~at ()
        in
        Tracer.finish tr span ~at;
        { Trace_ctx.trace; span; forced = true })
      (Engine.tracer h.engine);
  f ();
  h.cur_ctx <- None

(* ----- handling ----- *)

let admit h payload ~ctx ~name ~crypto ~core ~verify handle =
  let epoch = h.epoch in
  let serialize = payload_cost h payload in
  let received = Engine.now h.engine in
  Resource.Pool.submit h.pool ~cost:(crypto +. serialize) (fun () ->
      if h.epoch = epoch && verify () then
        Resource.submit h.core ~cost:core (fun () ->
            if h.epoch = epoch && not h.crashed then begin
              (* The handling span covers verification (started when the
                 payload arrived) through the handler, with the monolithic
                 replica's cost split the way the enclave spans split
                 theirs. *)
              let span =
                match (Engine.tracer h.engine, ctx) with
                | Some tr, Some { Trace_ctx.trace; span; forced } ->
                  let id =
                    Tracer.open_span tr ~parent:span ~trace ~name:(h.protocol ^ ":" ^ name)
                      ~cat:"replica" ~pid:h.id ~tid:"core" ~at:received ()
                  in
                  Tracer.add_arg tr id "crypto_us" crypto;
                  Tracer.add_arg tr id "serialize_us" serialize;
                  Tracer.add_arg tr id "core_us" core;
                  h.cur_ctx <- Some { Trace_ctx.trace; span = id; forced };
                  Some (tr, id)
                | _ ->
                  h.cur_ctx <- ctx;
                  None
              in
              handle ();
              h.cur_ctx <- None;
              match span with
              | Some (tr, id) -> Tracer.finish tr id ~at:(Engine.now h.engine)
              | None -> ()
            end))

(* ----- clients ----- *)

let request_auth_ok h (r : Message.request) =
  Keys.check_authenticator ~protocol:h.protocol ~client:r.client ~replica:h.id
    ~msg:(Message.request_auth_bytes r) ~auth:r.auth

let executed h (r : Message.request) = Client_table.executed h.clients r.client r.timestamp
let await h (r : Message.request) = Hashtbl.replace h.awaiting (r.client, r.timestamp) ()
let note_assigned h (r : Message.request) = Client_table.note_assigned h.clients r.client r.timestamp

let reset_assignments h =
  Client_table.reset_assignments h.clients;
  Queue.iter (note_assigned h) h.pending

let refresh_suspect_timer h =
  if Hashtbl.length h.awaiting = 0 then Timer.stop h.suspect_timer
  else Timer.restart h.suspect_timer

let on_request h ~proposer (r : Message.request) =
  if executed h r then
    Option.iter (send_reply h h.cur_ctx)
      (Client_table.cached_reply h.clients r.client r.timestamp)
  else begin
    await h r;
    refresh_suspect_timer h;
    if proposer && not (Client_table.already_assigned h.clients r.client r.timestamp) then begin
      note_assigned h r;
      Queue.push r h.pending;
      if Queue.length h.pending >= h.batch_size then h.flush ()
      else Timer.start h.batch_timer
    end
  end

let make_reply h ~view ~(req : Message.request) ~result : Message.reply =
  let rp =
    { Message.view; timestamp = req.timestamp; client = req.client; sender = h.id; result;
      r_auth = "" }
  in
  let key = Keys.client_replica_key ~protocol:h.protocol ~client:req.client ~replica:h.id in
  { rp with r_auth = Hmac.mac ~key (Message.reply_auth_bytes rp) }

(* Runs [run] on each request of the batch not executed before; [run]
   returns the reply its client-table entry caches, if any. *)
let execute_with h batch ~run =
  List.fold_left
    (fun replies (req : Message.request) ->
      Hashtbl.remove h.awaiting (req.client, req.timestamp);
      if executed h req then replies
      else begin
        let reply = run req in
        Client_table.record h.clients req.client req.timestamp reply;
        h.executed_total <- h.executed_total + 1;
        match reply with Some r -> r :: replies | None -> replies
      end)
    [] batch
  |> List.rev

let execute h ~view ~result batch =
  execute_with h batch ~run:(fun req -> Some (make_reply h ~view ~req ~result:(result req)))

let install h batch =
  ignore
    (execute_with h batch ~run:(fun req ->
         ignore (h.app.State_machine.apply req.payload);
         None))

let send_replies h ~cost replies =
  refresh_suspect_timer h;
  (* The closure runs after the handler returns; pin its trace context now
     so replies still join the committing message's trace. *)
  let ctx = h.cur_ctx in
  Resource.submit h.core ~cost (fun () -> List.iter (send_reply h ctx) replies)

(* ----- batching ----- *)

let rec propose_batches h ~ready ~propose =
  if (not (Queue.is_empty h.pending)) && ready () then begin
    let rec take k acc =
      if k = 0 || Queue.is_empty h.pending then List.rev acc
      else take (k - 1) (Queue.pop h.pending :: acc)
    in
    propose (take h.batch_size []);
    if Queue.length h.pending >= h.batch_size then propose_batches h ~ready ~propose
    else if Queue.is_empty h.pending then Timer.stop h.batch_timer
    else Timer.start h.batch_timer
  end

let pause h =
  Timer.stop h.batch_timer;
  Timer.stop h.suspect_timer

(* ----- disk and recovery ----- *)

let persist h tag data =
  h.writes <- h.writes + 1;
  Hashtbl.replace h.disk tag (h.writes, data)

let ckpt_tag h = "ckpt:" ^ h.protocol

let seal_checkpoint h write body =
  persist h (ckpt_tag h)
    (Sealed_image.seal
       ~counter:(Platform.counter_increment h.platform "ckpt")
       ~seal:(Sealing.seal ~key:h.seal_key ~rng:(Platform.rng h.platform))
       write body)

(* Enters state transfer, or re-asks in it. *)
let request_state h =
  forced h ~name:"recovery" (fun () -> broadcast h ~cost:0.0 (h.state_request ()));
  Timer.restart h.recovery_timer

let end_recovery h =
  h.recovering <- false;
  h.recovered_count <- h.recovered_count + 1;
  Timer.stop h.recovery_timer

let crash h =
  h.crashed <- true;
  h.epoch <- h.epoch + 1;
  Timer.stop h.batch_timer;
  Timer.stop h.suspect_timer;
  Timer.stop h.recovery_timer;
  Queue.clear h.pending;
  Hashtbl.reset h.awaiting;
  h.recovering <- false;
  Network.unregister h.net (Addr.replica h.id)

let listen h =
  Network.register h.net (Addr.replica h.id) (fun ~src:_ payload ->
      if not h.crashed then h.receive payload)

let restore_app h snapshot =
  Result.map (fun () -> ignore (h.app.State_machine.drain_effects ())) (h.app.restore snapshot)

let restart h ~wipe ~read ~restore =
  if h.crashed then begin
    wipe ();
    (* The reply cache must not survive either: stale "already executed"
       entries would make re-execution skip operations and diverge. *)
    h.clients <- Client_table.create ();
    ignore (restore_app h h.initial_snapshot);
    let verdict =
      match
        Sealed_image.check ~who:h.protocol ~slack:0
          ~counter:(Platform.counter_read h.platform "ckpt")
          ~unseal:(Sealing.unseal ~key:h.seal_key)
          (Option.map snd (Hashtbl.find_opt h.disk (ckpt_tag h)))
          read
      with
      | Sealed_image.Fresh -> Ok ()
      | Refused reason -> Error reason
      | Restored (fields, snapshot) -> (
        match restore_app h snapshot with
        | Error e -> Error (h.protocol ^ ": sealed snapshot rejected by application: " ^ e)
        | Ok () -> Ok (restore fields snapshot))
    in
    match verdict with
    | Error reason -> h.alerts <- reason :: h.alerts  (* stay down, loudly *)
    | Ok () ->
      h.crashed <- false;
      h.epoch <- h.epoch + 1;
      h.recovering <- true;
      listen h;
      request_state h
  end

(* ----- construction ----- *)

let create engine net ~protocol ~n ~id ~cost ~workers ~batch_size ~batch_timeout_us
    ~suspect_timeout_us ~recovery_retry_us ~measurement ~app ~receive ~flush ~suspect
    ~state_request =
  let platform = Platform.create engine ~id in
  let timer name ~delay callback =
    Timer.create engine ~label:(Printf.sprintf "%s%d-%s" protocol id name) ~delay ~callback
  in
  let rec h =
    lazy
      { protocol;
        n;
        id;
        cost;
        batch_size;
        engine;
        net;
        pool =
          Resource.Pool.create engine ~name:(Printf.sprintf "%s%d-pool" protocol id) ~workers;
        core = Resource.create engine ~name:(Printf.sprintf "%s%d-core" protocol id);
        app;
        initial_snapshot = app.State_machine.snapshot ();
        platform;
        seal_key = Aead.prepare (Platform.sealing_key platform measurement);
        receive;
        flush;
        state_request;
        clients = Client_table.create ();
        pending = Queue.create ();
        awaiting = Hashtbl.create 64;
        batch_timer = timer "batch" ~delay:batch_timeout_us flush;
        suspect_timer =
          timer "suspect" ~delay:suspect_timeout_us (fun () ->
              let h = Lazy.force h in
              if Hashtbl.length h.awaiting > 0 then forced h ~name:"suspect" suspect);
        recovery_timer =
          timer "recovery" ~delay:recovery_retry_us (fun () ->
              (* Re-request: commits in flight during the crash are gone,
                 so a single round can leave a gap below the cluster head. *)
              let h = Lazy.force h in
              if h.recovering && not h.crashed then request_state h);
        disk = Hashtbl.create 16;
        writes = 0;
        crashed = false;
        epoch = 0;
        recovering = false;
        recovered_count = 0;
        alerts = [];
        executed_total = 0;
        cur_ctx = None }
  in
  let h = Lazy.force h in
  listen h;
  h

(* ----- introspection ----- *)

let executed_count h = h.executed_total
let app_digest h = State_machine.digest h.app

let persisted h =
  Hashtbl.fold (fun tag (i, data) acc -> (i, (tag, data)) :: acc) h.disk []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let is_crashed h = h.crashed
let is_recovering h = h.recovering
let recovered h = h.recovered_count > 0 && not h.recovering
let recovery_alerts h = List.rev h.alerts
let tamper_counter h name = Platform.counter_tamper_reset h.platform name
