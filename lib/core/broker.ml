module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Resource = Splitbft_sim.Resource
module Timer = Splitbft_sim.Timer
module Enclave = Splitbft_tee.Enclave
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Message = Splitbft_types.Message
module Registry = Splitbft_obs.Registry
module Tracer = Splitbft_obs.Tracer
module Trace_ctx = Splitbft_obs.Trace_ctx
module Req_tbl = Splitbft_util.Htbl.Int_int64
module Lru = Splitbft_util.Lru.Make (Req_tbl)
module Feed = Splitbft_storage.Feed
module Ledger = Splitbft_storage.Ledger
module Ledger_entry = Splitbft_storage.Entry

type fault =
  | Env_honest
  | Env_mute
  | Env_starve of Ids.compartment
  | Env_delay of float
  | Env_drop_nth of int
  | Env_duplicate
  | Env_reorder

(* Where an unanswered request stands at this broker. *)
type req_state =
  | Waiting  (* held for a backlog only *)
  | Queued  (* in [pending] *)
  | Batched of float
      (* handed to Preparation at this time, no reply yet: a
         retransmission would only re-order it, so it is dropped while
         younger than [inflight_ttl_us].  One stuck longer (its batch was
         lost without a view change, e.g. to a starved enclave) is queued
         again, so the client's retry is re-driven. *)

type req = {
  stamp : int;  (* arrival order, fixed by the first copy *)
  mutable body : Message.request;  (* the latest copy *)
  mutable ctx : Trace_ctx.t option;
      (* trace context, so it can ride the In_batch ecall even though
         batching decouples it from the arrival that carried it *)
  mutable state : req_state;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Network.t;
  enclave_of : Ids.compartment -> Enclave.t;
  loop : Resource.t;  (* the event-loop thread *)
  threads : Resource.t list;  (* every distinct ecall thread, for crash quiesce *)
  thread_of : Ids.compartment -> int -> Resource.t;
      (* ecall thread per (compartment, lane): protocol messages of lane
         [l] — seqno [s] with [(s-1) mod lanes = l] — ride lane [l]'s
         thread, so consensus rounds for different seqnos pipeline instead
         of queueing behind one another *)
  lanes : int;
  mutable next_batch_lane : int;  (* round-robin stripe for In_batch ecalls *)
  c_lane_ecalls : Registry.counter array;  (* per-lane; empty when lanes = 1 *)
  mutable view : Ids.view;
      (* belief, liveness-only: the highest view any compartment entered;
         suspicion names it *)
  mutable prep_view : Ids.view;
      (* the view Preparation entered, which is the view batches are
         ordered in: Confirmation enters a view when it starts the view
         change, Preparation only once the NewView is out *)
  pending : Message.request Queue.t;
      (* batch queue, FIFO, of the copy each request was queued with *)
  reqs : req Req_tbl.t;
      (* every unanswered request, held on every replica: a backup that
         becomes primary proposes them at once *)
  batch_timer : Timer.t;
  mutable arrivals : int;  (* the next arrival stamp *)
  suspect_timer : Timer.t;
  mutable suspect_delay_us : float;
      (* current suspicion delay.  The first suspicion of a view fires
         after [cfg.suspect_timeout_us]; consecutive suspicions without a
         reply escalate to [cfg.viewchange_timeout_us] and double from
         there (capped), PBFT's weak-synchrony timeout growth.  A
         constant re-suspicion period livelocks under message loss: every
         NewView keeps arriving just after the backups have already
         suspected their way into the next view.  Progress (any reply)
         resets the delay. *)
  recovery_timer : Timer.t;
  mutable storage : (string * string) list;  (* newest first *)
  mutable feed : Feed.t option;
      (* committed-log fan-out to follower replicas; [Some] iff the
         rollback-protected ledger is enabled.  Lives on the untrusted
         host: followers read already-committed, f+1-vouched entries, so
         serving them needs no enclave transition. *)
  mutable fault : fault;
  mutable env_output_seq : int;
      (* count of enclave outputs this environment has handled, the
         deterministic clock [Env_drop_nth] drops against *)
  mutable crashed : bool;
  mutable epoch : int;
      (* incarnation counter: bumped on crash so callbacks scheduled by a
         previous incarnation (in-flight ecall completions, delayed work,
         queued loop submissions) are recognizably stale and dropped *)
  mutable alerts : string list;  (* newest first; e.g. rollback detections *)
  mutable recovering : bool;
  mutable recovery_started_at : float;
  mutable recovered_count : int;
  replied : string Lru.t;
      (* plain reply encodings by (client, timestamp), so a retransmission
         of an answered request is served from here — what any untrusted
         relay could do, since replies are end-to-end authenticated *)
  mutable recovery_ctx : Trace_ctx.t option;
  mutable recovery_span : int;  (* open span covering recovery, or -1 *)
  ecall_counter_of : Ids.compartment -> Registry.counter;
  c_batches : Registry.counter;
  h_batch_occupancy : Registry.histogram;
  c_suspect_firings : Registry.counter;
  c_restarts : Registry.counter;
  c_alerts : Registry.counter;
  g_recovery_us : Registry.gauge;
  c_state_bytes_out : Registry.counter;
  c_state_bytes_in : Registry.counter;
  c_retx_suppressed : Registry.counter;
  c_retx_replayed : Registry.counter;
}

let unanswered t = Req_tbl.length t.reqs

(* Batch only in a view this replica leads, that Preparation has entered,
   and that no compartment has already left for a view change. *)
let batching t =
  t.prep_view = t.view && Ids.primary_of_view ~n:t.cfg.n t.view = t.cfg.id

(* Static routing: which compartments log each incoming message type.  The
   Confirmation compartment receives PrePrepares in digest form. *)
let route (msg : Message.t) : (Ids.compartment * Message.t) list =
  match msg with
  | Message.Preprepare pp ->
    [ (Ids.Preparation, msg);
      (Ids.Confirmation, Message.Preprepare_digest (Message.summarize pp));
      (Ids.Execution, msg) ]
  | Message.Preprepare_digest _ -> [ (Ids.Confirmation, msg) ]
  | Message.Prepare _ -> [ (Ids.Preparation, msg); (Ids.Confirmation, msg) ]
  | Message.Commit _ -> [ (Ids.Execution, msg) ]
  | Message.Checkpoint _ ->
    [ (Ids.Preparation, msg); (Ids.Confirmation, msg); (Ids.Execution, msg) ]
  | Message.Viewchange _ ->
    (* Confirmation gets ViewChanges too: it originates them, and the join
       rule (f+1 for a higher view) must fire even when this replica's own
       suspicion timer never does. *)
    [ (Ids.Preparation, msg); (Ids.Confirmation, msg) ]
  | Message.Newview nv ->
    (* After the NewView itself, hand Confirmation the re-issued proposals
       in digest form — the same duplication a correct environment performs
       for fresh PrePrepares.  Confirmation verifies their signatures, so
       this is liveness-only assistance. *)
    [ (Ids.Preparation, msg); (Ids.Confirmation, msg); (Ids.Execution, msg) ]
    @ List.map
        (fun pd -> (Ids.Confirmation, Message.Preprepare_digest pd))
        nv.Message.nv_preprepares
  | Message.Session_init _ -> [ (Ids.Preparation, msg); (Ids.Execution, msg) ]
  | Message.Session_key _ -> [ (Ids.Preparation, msg); (Ids.Execution, msg) ]
  | Message.Batch_fetch _ | Message.Batch_data _ -> [ (Ids.Execution, msg) ]
  | Message.State_request _ | Message.State_reply _ -> [ (Ids.Execution, msg) ]
  | Message.Request _ | Message.Reply _ | Message.Session_quote _
  | Message.Session_ack _ | Message.Ledger_subscribe _ | Message.Ledger_feed _
  | Message.Read_request _ | Message.Read_reply _ ->
    (* follower-feed traffic terminates at the untrusted host, never
       inside a compartment *)
    []

(* Flight-recorder shorthand: a no-op unless a recorder is attached. *)
let flight t ~kind ~detail = Engine.flight_record t.engine ~host:(Addr.replica t.cfg.id) ~kind ~detail

let loop_cost t payload_len =
  t.cfg.cost.broker_dispatch_us
  +. (t.cfg.cost.serialize_per_byte_us *. float_of_int payload_len)

let tracer t = Engine.tracer t.engine

(* Span covering one host event-loop dispatch (queue wait + the metered
   (de)serialization/dispatch cost), parented on the trace the payload
   belongs to.  Returns the span id to finish when the work completes. *)
let loop_span t ctx ~name ~begun ~cost =
  match (tracer t, ctx) with
  | Some tr, Some { Trace_ctx.trace; span; _ } ->
    let id =
      Tracer.open_span tr ~parent:span ~trace ~name ~cat:"broker" ~pid:t.cfg.id
        ~tid:"host" ~at:begun ()
    in
    Tracer.add_arg tr id "serialize_us" cost;
    id
  | _ -> -1

let finish_span t id =
  match tracer t with
  | Some tr when id >= 0 -> Tracer.finish tr id ~at:(Engine.now t.engine)
  | _ -> ()

(* Synthetic always-sampled root for broker-initiated causality (primary
   suspicion, recovery): a zero-length root span whose id anchors the
   children. *)
let forced_root t ~name ~cat =
  match tracer t with
  | None -> None
  | Some tr ->
    let trace = Tracer.fresh_forced_trace tr in
    let at = Engine.now t.engine in
    let id =
      Tracer.open_span tr ~trace ~name ~cat ~pid:t.cfg.id ~tid:"host" ~at ()
    in
    Some (id, { Trace_ctx.trace; span = id; forced = true })

(* The untrusted disk keeps one entry per tag, as the baselines' does: a
   write replaces the entry under its tag, since restart reads only the
   newest.  Two kinds of record accumulate under their tag instead:
   ledger entries, until a cut covers them, and Execution's checkpoint
   deltas, until the next base of their slot drops them (they chain from
   the base two generations back). *)
let persist t tag data =
  let is = String.equal tag in
  let slot = if is (Execution.base_tag 0) then 0 else 1 in
  let drops tg =
    is tg || (is (Execution.base_tag slot) && String.equal tg (Execution.delta_tag slot))
  in
  if not (is Ledger.entry_tag || is (Execution.delta_tag 0) || is (Execution.delta_tag 1)) then
    t.storage <- List.filter (fun (tg, _) -> not (drops tg)) t.storage;
  t.storage <- (tag, data) :: t.storage

(* Host-side ledger garbage collection, driven by the enclave's signed
   [cut] marker: entries and segment headers at or below the cut are
   covered by the sealed compaction base and can be dropped. *)
let gc_ledger t cut =
  t.storage <-
    List.filter
      (fun (tag, data) ->
        if String.equal tag Ledger.entry_tag then
          match Ledger_entry.seq_of_record data with
          | Some seq -> seq > cut
          | None -> false
        else
          match Ledger.seal_tag_seq tag with
          | Some last -> last > cut
          | None -> true)
      t.storage

(* ----- ecalls ----- *)

(* Which lane thread carries an ecall: sequence-numbered protocol
   messages ride their seqno's lane; batches stripe round-robin (the
   assigned seqno is only known inside the enclave); everything else
   rides lane 0.  The lane choice only picks a thread — handler state
   transitions happen at issue time, so it cannot affect results. *)
let lane_of_input t (input : Wire.input) =
  if t.lanes = 1 then 0
  else
    match input with
    | Wire.In_net (Message.Preprepare pp) -> (pp.Message.seq - 1) mod t.lanes
    | Wire.In_net (Message.Preprepare_digest pd) -> (pd.Message.pd_seq - 1) mod t.lanes
    | Wire.In_net (Message.Prepare p) -> (p.Message.seq - 1) mod t.lanes
    | Wire.In_net (Message.Commit c) -> (c.Message.seq - 1) mod t.lanes
    | Wire.In_batch _ ->
      let l = t.next_batch_lane in
      t.next_batch_lane <- (l + 1) mod t.lanes;
      l
    | _ -> 0

(* [body] is the batch handed over in an [In_batch] ecall: the resulting
   Preprepare broadcast may arrive in summary (digest-signed) form with
   its body elided, and the re-attachment must use exactly the batch that
   produced it — riding the ecall's own completion closure makes that
   pairing immune to flush/completion interleaving. *)
let rec ecall t ?ctx ?body compartment (input : Wire.input) =
  let starved = match t.fault with Env_starve c -> c = compartment | _ -> false in
  if (not t.crashed) && not starved then begin
    let epoch = t.epoch in
    let lane = lane_of_input t input in
    let issue () =
      if t.epoch = epoch && not t.crashed then begin
        Registry.incr (t.ecall_counter_of compartment);
        if t.lanes > 1 then Registry.incr t.c_lane_ecalls.(lane);
        flight t ~kind:"ecall" ~detail:(Ids.compartment_name compartment);
        let enclave = t.enclave_of compartment in
        Enclave.ecall enclave
          ~thread:(t.thread_of compartment lane)
          ?ctx
          ~payload:(Wire.encode_input ?ctx input)
          ~on_done:(fun outputs -> on_outputs t epoch compartment ?body outputs)
          ()
      end
    in
    match t.fault with
    | Env_delay d ->
      ignore (Engine.schedule t.engine ~delay:d ~label:"broker:delayed-ecall" issue)
    | Env_honest | Env_mute | Env_starve _ | Env_drop_nth _ | Env_duplicate | Env_reorder ->
      issue ()
  end

(* The output-boundary faults: a byzantine environment cannot forge what
   an enclave says (outputs are signed inside), but it owns the channel
   that carries them — so it can discard, replay or reorder the output
   burst of any ecall completion before dispatching it. *)
and env_mangle_outputs t outputs =
  match t.fault with
  | Env_reorder -> List.rev outputs
  | Env_duplicate -> List.concat_map (fun o -> [ o; o ]) outputs
  | Env_drop_nth k when k > 0 ->
    List.filter
      (fun _ ->
        t.env_output_seq <- t.env_output_seq + 1;
        t.env_output_seq mod k <> 0)
      outputs
  | _ -> outputs

(* ----- enclave outputs ----- *)

and on_outputs t epoch origin ?body outputs =
  (* [epoch] pins the incarnation that issued the ecall: a completion that
     crosses a crash (or a crash + restart) must not leak into the next
     incarnation as a ghost callback. *)
  if t.epoch = epoch && (not t.crashed) && t.fault <> Env_mute then begin
    let outputs = env_mangle_outputs t outputs in
    let vectored =
      (* The pipelined host egress writes a whole completion burst (e.g.
         a batch's replies) in one event-loop dispatch, like writev: one
         dispatch fee, serialization still per byte.  The serial
         configuration keeps one dispatch per message, because each path
         wins on its own side of this test: vectoring every burst costs
         the serial pipeline throughput (hotpath batch1 -3.5%, Table 1
         fault-free ops 5,325 -> 5,297), and one dispatch per message
         costs the pipelined one (saturated 655,000 -> 643,150 ops/s). *)
      (t.lanes > 1 || t.cfg.exec_workers > 1)
      && match outputs with _ :: _ :: _ -> true | _ -> false
    in
    if not vectored then
      List.iter
        (fun payload ->
          let begun = Engine.now t.engine in
          let cost = loop_cost t (String.length payload) in
          Resource.submit t.loop ~cost (fun () ->
              if t.epoch = epoch && not t.crashed then
                match Wire.decode_output_traced payload with
                | Error _ -> ()
                | Ok (output, ctx) ->
                  let sp = loop_span t ctx ~name:"host:tx" ~begun ~cost in
                  apply_output t origin ?ctx ?body output;
                  finish_span t sp))
        outputs
    else begin
      let begun = Engine.now t.engine in
      let bytes =
        List.fold_left (fun acc p -> acc + String.length p) 0 outputs
      in
      let cost = loop_cost t bytes in
      let per = cost /. float_of_int (List.length outputs) in
      Resource.submit t.loop ~cost (fun () ->
          if t.epoch = epoch && not t.crashed then
            List.iter
              (fun payload ->
                match Wire.decode_output_traced payload with
                | Error _ -> ()
                | Ok (output, ctx) ->
                  let sp = loop_span t ctx ~name:"host:tx" ~begun ~cost:per in
                  apply_output t origin ?ctx ?body output;
                  finish_span t sp)
              outputs)
    end
  end

and apply_output t origin ?ctx ?body (output : Wire.output) =
  match output with
  | Wire.Out_send (dst, msg) ->
    let payload = Message.encode_traced ?ctx msg in
    (match msg with
    | Message.Reply rp ->
      request_replied t rp ~sent:(if Option.is_none ctx then Some payload else None)
    | _ -> ());
    (match msg with
    | Message.State_reply _ | Message.State_request _ ->
      Registry.add t.c_state_bytes_out (String.length payload)
    | _ -> ());
    Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst payload
  | Wire.Out_broadcast msg ->
    let msg =
      (* Re-attach the batch body the primary's Preparation elided: the
         broker copied this exact batch *in* with the very ecall whose
         outputs are being applied, so the body never needed to be copied
         back out of the enclave.  The signature covers the digest form,
         so the reconstructed full Preprepare verifies at every receiver;
         a broker that attached the wrong body could only make the
         proposal fail verification, never change what is ordered. *)
      match (msg, body) with
      | Message.Preprepare_digest pd, Some batch ->
        Message.Preprepare
          { Message.view = pd.pd_view;
            seq = pd.pd_seq;
            batch;
            sender = pd.pd_sender;
            pp_sig = pd.pd_sig }
      | _ -> msg
    in
    let payload = Message.encode_traced ?ctx msg in
    (match msg with
    | Message.State_reply _ | Message.State_request _ ->
      Registry.add t.c_state_bytes_out ((t.cfg.n - 1) * String.length payload)
    | _ -> ());
    for j = 0 to t.cfg.n - 1 do
      if j <> t.cfg.id then
        Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j) payload
    done;
    (* Local duplication to the sibling compartments (a correct environment
       forwards to all compartments at the same time, §4). *)
    List.iter
      (fun (compartment, m) ->
        if compartment <> origin then ecall t ?ctx compartment (Wire.In_net m))
      (route msg)
  | Wire.Out_persist { tag; data } ->
    persist t tag data;
    (match t.feed with
    | None -> ()
    | Some fd ->
      if String.equal tag Ledger.entry_tag then Feed.publish fd data
      else if String.equal tag Ledger.cut_tag then (
        match int_of_string_opt data with
        | None -> ()
        | Some cut ->
          Feed.set_base fd cut;
          gc_ledger t cut))
  | Wire.Out_entered_view v ->
    if v > t.view then begin
      t.view <- v;
      flight t ~kind:"view" ~detail:(string_of_int v);
      (* Give the new primary a full timeout before suspecting it too. *)
      if unanswered t > 0 then Timer.restart t.suspect_timer
    end;
    if origin = Ids.Preparation && v > t.prep_view then begin
      t.prep_view <- v;
      if batching t then propose_backlog t
    end
  | Wire.Out_alert msg ->
    t.alerts <- msg :: t.alerts;
    Registry.incr t.c_alerts;
    flight t ~kind:"recovery-alert" ~detail:msg
  | Wire.Out_recovered ->
    if t.recovering then begin
      t.recovering <- false;
      t.recovered_count <- t.recovered_count + 1;
      Registry.set t.g_recovery_us (Engine.now t.engine -. t.recovery_started_at);
      flight t ~kind:"recovered" ~detail:"";
      finish_span t t.recovery_span;
      t.recovery_span <- -1;
      t.recovery_ctx <- None
    end

(* ----- client requests, batching, suspicion ----- *)

(* [sent] is the reply's payload as just sent, when it carries no trace
   trailer and so is exactly [Message.encode (Reply rp)]. *)
and request_replied t (rp : Message.reply) ~sent =
  let key = (rp.client, rp.timestamp) in
  Req_tbl.remove t.reqs key;
  (* Plain encoding, not the traced one: a replay must not carry the
     original request's (long-finished) trace context. *)
  Lru.add t.replied key
    (match sent with Some payload -> payload | None -> Message.encode (Message.Reply rp));
  (* Progress: re-arm the timer for the remaining requests so a loaded but
     progressing system never suspects its primary — and wind any
     suspicion backoff down to the base timeout. *)
  t.suspect_delay_us <- t.cfg.suspect_timeout_us;
  Timer.set_delay t.suspect_timer t.cfg.suspect_timeout_us;
  if unanswered t = 0 then Timer.stop t.suspect_timer
  else Timer.restart t.suspect_timer

(* A new primary orders the backlog at once (PBFT §4.4): batches in flight
   under the deposed primary may never commit, so their suppression state
   goes, and every unanswered request joins the queue in arrival order.
   Requests the NewView re-proposes too execute once: Execution's client
   table drops the second copy. *)
and propose_backlog t =
  Req_tbl.fold
    (fun _ q acc -> match q.state with Queued -> acc | Waiting | Batched _ -> q :: acc)
    t.reqs []
  |> List.sort (fun a b -> Int.compare a.stamp b.stamp)
  |> List.iter (fun q ->
         q.state <- Queued;
         Queue.push q.body t.pending);
  flush_batch t

and flush_batch t =
  if batching t && not (Queue.is_empty t.pending) then begin
    (* O(batch): dequeue the head of the FIFO; nothing ever re-walks the
       whole queue. *)
    let take = min t.cfg.batch_size (Queue.length t.pending) in
    let rec grab i acc =
      if i = 0 then List.rev acc else grab (i - 1) (Queue.pop t.pending :: acc)
    in
    let batch = grab take [] in
    let now = Engine.now t.engine in
    (* The batch rides under the first sampled member's trace; the other
       members' contexts stay on their records for their replies.  A
       member answered while it was queued has no record left. *)
    let ctx =
      List.fold_left
        (fun ctx (r : Message.request) ->
          match Req_tbl.find_opt t.reqs (r.client, r.timestamp) with
          | None -> ctx
          | Some q ->
            q.state <- Batched now;
            if Option.is_some ctx then ctx else q.ctx)
        None batch
    in
    Registry.incr t.c_batches;
    Registry.observe t.h_batch_occupancy (float_of_int take);
    ecall t ?ctx ~body:batch Ids.Preparation (Wire.In_batch batch);
    if Queue.length t.pending >= t.cfg.batch_size then flush_batch t
    else if not (Queue.is_empty t.pending) then Timer.start t.batch_timer
    else Timer.stop t.batch_timer
  end

let on_request t ?ctx (r : Message.request) =
  let key = (r.client, r.timestamp) in
  match Lru.find t.replied key with
  | Some payload ->
    (* Early reject before any enclave transition is charged: an
       already-answered request is served from the reply cache. *)
    Registry.incr t.c_retx_replayed;
    Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.client r.client) payload
  | None ->
    (* A later copy replaces the body, so a junk copy that arrived first
       cannot pin it; the first arrival keeps its place in the backlog. *)
    let q =
      match Req_tbl.find_opt t.reqs key with
      | Some q ->
        q.body <- r;
        q
      | None ->
        let q = { stamp = t.arrivals; body = r; ctx = None; state = Waiting } in
        Req_tbl.replace t.reqs key q;
        t.arrivals <- t.arrivals + 1;
        q
    in
    if Option.is_some ctx then q.ctx <- ctx;
    Timer.start t.suspect_timer;
    if batching t then
      match q.state with
      | Queued -> ()
      | Batched since when Engine.now t.engine -. since < t.cfg.inflight_ttl_us ->
        (* Re-queueing would only re-order it.  The suspicion timer above
           still guards liveness. *)
        Registry.incr t.c_retx_suppressed
      | Waiting | Batched _ ->
        q.state <- Queued;
        Queue.push r t.pending;
        if Queue.length t.pending >= t.cfg.batch_size then flush_batch t
        else Timer.start t.batch_timer

let on_payload t ~src:_ payload =
  if not t.crashed then begin
    let epoch = t.epoch in
    let begun = Engine.now t.engine in
    let cost = loop_cost t (String.length payload) in
    Resource.submit t.loop ~cost (fun () ->
        if t.epoch = epoch && not t.crashed then
          match Message.decode_traced payload with
          | Error _ -> ()
          | Ok (Message.Request r, ctx) ->
            let sp = loop_span t ctx ~name:"host:rx" ~begun ~cost in
            on_request t ?ctx r;
            finish_span t sp
          | Ok (Message.Ledger_subscribe ls, ctx) ->
            (* Served entirely host-side: the feed replays already-committed
               sealed records, which the follower authenticates by f+1
               cross-replica digest agreement — not by trusting this host. *)
            let sp = loop_span t ctx ~name:"host:rx" ~begun ~cost in
            (match t.feed with
            | Some fd ->
              Feed.subscribe fd ~follower:ls.Message.lsu_follower ~from:ls.Message.lsu_from
            | None -> ());
            finish_span t sp
          | Ok (msg, ctx) ->
            let sp = loop_span t ctx ~name:"host:rx" ~begun ~cost in
            (match msg with
            | Message.State_reply _ | Message.State_request _ ->
              Registry.add t.c_state_bytes_in (String.length payload)
            | _ -> ());
            List.iter
              (fun (compartment, m) -> ecall t ?ctx compartment (Wire.In_net m))
              (route msg);
            finish_span t sp)
  end

let create engine net (cfg : Config.t) ~enclave_of =
  let obs = Engine.obs engine in
  let replica_label = ("replica", string_of_int cfg.id) in
  let ecall_counters =
    List.map
      (fun c ->
        ( c,
          Registry.counter obs
            ~labels:[ replica_label; ("compartment", Ids.compartment_name c) ]
            "broker.ecalls" ))
      Ids.all_compartments
  in
  if cfg.lanes < 1 then invalid_arg "Broker.create: lanes must be >= 1";
  let lanes = cfg.lanes in
  let loop = Resource.create engine ~name:(Printf.sprintf "broker%d-loop" cfg.id) in
  let thread_of, threads =
    match cfg.threading with
    | Config.Single_thread ->
      let shared =
        Resource.create engine ~name:(Printf.sprintf "broker%d-ecall" cfg.id)
      in
      ((fun (_ : Ids.compartment) (_ : int) -> shared), [ shared ])
    | Config.Per_enclave ->
      (* One thread per (compartment, lane); at lanes = 1 the resource
         names match the historical single-pipeline layout exactly. *)
      let table =
        List.map
          (fun c ->
            ( c,
              Array.init lanes (fun l ->
                  let name =
                    if lanes = 1 then
                      Printf.sprintf "broker%d-ecall-%s" cfg.id (Ids.compartment_name c)
                    else
                      Printf.sprintf "broker%d-ecall-%s-l%d" cfg.id
                        (Ids.compartment_name c) l
                  in
                  Resource.create engine ~name) ))
          Ids.all_compartments
      in
      ( (fun c l -> (List.assoc c table).(l)),
        List.concat_map (fun (_, arr) -> Array.to_list arr) table )
  in
  let c_lane_ecalls =
    if lanes = 1 then [||]
    else
      Array.init lanes (fun l ->
          Registry.counter obs
            ~labels:[ replica_label; ("lane", string_of_int l) ]
            "broker.lane_ecalls")
  in
  let rec t =
    lazy
      { cfg;
        engine;
        net;
        enclave_of;
        loop;
        threads;
        thread_of;
        lanes;
        next_batch_lane = 0;
        c_lane_ecalls;
        view = 0;
        prep_view = 0;
        pending = Queue.create ();
        reqs = Req_tbl.create 64;
        batch_timer =
          Timer.create engine
            ~cls:(Engine.Choice { host = Addr.replica cfg.id; lane = -1 })
            ~label:(Printf.sprintf "broker%d-batch" cfg.id)
            ~delay:cfg.batch_timeout_us
            ~callback:(fun () -> flush_batch (Lazy.force t));
        arrivals = 0;
        suspect_delay_us = cfg.suspect_timeout_us;
        suspect_timer =
          Timer.create engine
            ~cls:(Engine.Choice { host = Addr.replica cfg.id; lane = -1 })
            ~label:(Printf.sprintf "broker%d-suspect" cfg.id)
            ~delay:cfg.suspect_timeout_us
            ~callback:
              (fun () ->
              let t = Lazy.force t in
              if unanswered t > 0 then begin
                Registry.incr t.c_suspect_firings;
                flight t ~kind:"suspect" ~detail:(string_of_int t.view);
                (* View changes are always-sampled: give the suspicion a
                   forced root so the whole protocol cascade it triggers
                   is traceable even under 1-in-N sampling. *)
                let ctx =
                  match forced_root t ~name:"suspect" ~cat:"broker.suspect" with
                  | Some (id, ctx) ->
                    finish_span t id;
                    Some ctx
                  | None -> None
                in
                ecall t ?ctx Ids.Confirmation (Wire.In_suspect t.view);
                (* Keep escalating while requests stay unanswered, backing
                   off so a view change eventually outlasts its own round
                   trip (see [suspect_delay_us]). *)
                t.suspect_delay_us <-
                  Float.min
                    (Float.max t.cfg.viewchange_timeout_us (t.suspect_delay_us *. 2.0))
                    (t.cfg.viewchange_timeout_us *. 32.0);
                Timer.set_delay t.suspect_timer t.suspect_delay_us;
                Timer.restart t.suspect_timer
              end);
        recovery_timer =
          Timer.create engine
            ~cls:(Engine.Choice { host = Addr.replica cfg.id; lane = -1 })
            ~label:(Printf.sprintf "broker%d-recovery" cfg.id)
            ~delay:cfg.recovery_retry_us
            ~callback:
              (fun () ->
              let t = Lazy.force t in
              (* A state-request round can be lost with the messages that
                 were in flight at crash time; re-prompt Execution (which
                 just re-broadcasts its request — the other compartments
                 must not re-unseal) until recovery completes. *)
              if t.recovering && not t.crashed then begin
                ecall t ?ctx:t.recovery_ctx Ids.Execution (Wire.In_recover []);
                Timer.restart t.recovery_timer
              end);
        storage = [];
        feed = None;
        fault = Env_honest;
        env_output_seq = 0;
        crashed = false;
        epoch = 0;
        alerts = [];
        recovering = false;
        recovery_started_at = 0.0;
        recovered_count = 0;
        replied = Lru.create ~capacity:4096;
        recovery_ctx = None;
        recovery_span = -1;
        ecall_counter_of = (fun c -> List.assoc c ecall_counters);
        c_batches = Registry.counter obs ~labels:[ replica_label ] "broker.batches";
        h_batch_occupancy =
          Registry.histogram obs ~labels:[ replica_label ]
            ~buckets:[ 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 400.0 ]
            "broker.batch_occupancy";
        c_suspect_firings =
          Registry.counter obs ~labels:[ replica_label ] "broker.suspect_firings";
        c_restarts = Registry.counter obs ~labels:[ replica_label ] "broker.restarts";
        c_alerts = Registry.counter obs ~labels:[ replica_label ] "broker.recovery_alerts";
        g_recovery_us =
          Registry.gauge obs ~labels:[ replica_label ] "broker.recovery_duration_us";
        c_state_bytes_out =
          Registry.counter obs ~labels:[ replica_label ] "broker.state_transfer_bytes_out";
        c_state_bytes_in =
          Registry.counter obs ~labels:[ replica_label ] "broker.state_transfer_bytes_in";
        c_retx_suppressed =
          Registry.counter obs ~labels:[ replica_label ] "broker.retx_suppressed";
        c_retx_replayed =
          Registry.counter obs ~labels:[ replica_label ] "broker.retx_replayed" }
  in
  let t = Lazy.force t in
  if Config.storage cfg then
    t.feed <- Some (Feed.create ~net ~src:(Addr.replica cfg.id) ~replica:cfg.id);
  Network.register net (Addr.replica cfg.id) (fun ~src payload -> on_payload t ~src payload);
  t

let set_fault t fault = t.fault <- fault

let crash t =
  t.crashed <- true;
  flight t ~kind:"crash" ~detail:"";
  (* Quiesce: bump the incarnation so in-flight completions die on arrival,
     stop the timers and drop queued host-side work.  Storage survives —
     it is the (untrusted) disk recovery will read from. *)
  t.epoch <- t.epoch + 1;
  (* Stale-gauge reset: the dead incarnation's queue depths must not
     survive into dashboard samples taken while the host is down. *)
  Resource.quiesce t.loop;
  List.iter Resource.quiesce t.threads;
  Timer.stop t.batch_timer;
  Timer.stop t.suspect_timer;
  t.suspect_delay_us <- t.cfg.suspect_timeout_us;
  Timer.set_delay t.suspect_timer t.cfg.suspect_timeout_us;
  Timer.stop t.recovery_timer;
  Queue.clear t.pending;
  Req_tbl.reset t.reqs;
  (* The reply cache does not survive the crash either: replies minted by
     a pre-restart enclave incarnation may be under retired session keys,
     and replaying those forever would mute this replica for the client. *)
  Lru.clear t.replied;
  t.recovering <- false;
  t.recovery_span <- -1;
  t.recovery_ctx <- None;
  Network.unregister t.net (Addr.replica t.cfg.id)

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    t.view <- 0;  (* belief only; re-learned from Out_entered_view *)
    t.prep_view <- 0;
    t.recovering <- true;
    t.recovery_started_at <- Engine.now t.engine;
    Registry.incr t.c_restarts;
    (* The recovery-duration gauge still holds the previous incarnation's
       measurement; zero it so the dashboard shows "in progress", not a
       stale completed recovery. *)
    Registry.set t.g_recovery_us 0.0;
    flight t ~kind:"restart" ~detail:"";
    (* Recovery is always-sampled; the root span stays open until
       Out_recovered so its duration is the measured recovery time. *)
    (match forced_root t ~name:"recovery" ~cat:"broker.recovery" with
    | Some (id, ctx) ->
      t.recovery_span <- id;
      t.recovery_ctx <- Some ctx
    | None -> ());
    Network.register t.net (Addr.replica t.cfg.id) (fun ~src payload ->
        on_payload t ~src payload);
    (* Recovery handshake: hand each compartment the records it persisted,
       oldest first: its sealed checkpoint records and, for Execution, the
       ledger, whose chain it verifies, whose torn tail it truncates and
       whose rolled-back history it refuses.  The compartment decides what
       to trust.  The feed is rebuilt from the same ledger records;
       followers re-subscribe on their own timer, so subscription state
       need not survive the crash. *)
    let records = List.rev t.storage in
    let ledger = List.filter (fun (tag, _) -> Ledger.is_ledger_tag tag) records in
    List.iter
      (fun compartment ->
        let prefix = "ckpt:" ^ Ids.compartment_name compartment in
        let mine = List.filter (fun (tag, _) -> String.starts_with ~prefix tag) records in
        ecall t ?ctx:t.recovery_ctx compartment
          (Wire.In_recover (if compartment = Ids.Execution then mine @ ledger else mine)))
      Ids.all_compartments;
    Option.iter (fun fd -> Feed.reset fd ~records:ledger) t.feed;
    Timer.restart t.recovery_timer
  end

let is_crashed t = t.crashed
let persisted t = List.rev t.storage
let alerts t = List.rev t.alerts
let recovered t = t.recovered_count > 0 && not t.recovering

let reply_cache_keys t = Lru.fold t.replied ~init:[] ~f:(fun acc k _ -> k :: acc) |> List.rev

let inflight_keys t =
  Req_tbl.fold
    (fun k q acc -> match q.state with Batched _ -> k :: acc | Waiting | Queued -> acc)
    t.reqs []
  |> List.sort compare
