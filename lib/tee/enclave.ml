module Signature = Splitbft_crypto.Signature
module Resource = Splitbft_sim.Resource
module Stats = Splitbft_util.Stats
module Key_tbl = Splitbft_util.Htbl.String
module Registry = Splitbft_obs.Registry
module Tracer = Splitbft_obs.Tracer
module Trace_ctx = Splitbft_obs.Trace_ctx

(* The metered cost of the running ecall and its per-category attribution,
   reset on entry and read into the active span on exit.  [pending] stays
   the single source of truth for the metered cost; the others only
   classify where it came from.  An all-float record, so a charge stores
   unboxed floats instead of allocating a box per field. *)
type charges = {
  mutable pending : float;
  mutable crypto : float;
  mutable exec : float;
  mutable seal : float;
  mutable io : float;
  mutable ocall_transitions : float;
}

type env = {
  enclave : t;
  keypair : Signature.keypair;
  rng : Splitbft_util.Rng.t;
  charges : charges;
  mutable pending_outputs : string list; (* newest first *)
  mutable ocalls : int;
  (* Worker-pool plumbing, valid only while an ecall is executing: the
     caller's output sink (so deferred task outputs reach the same
     destination as the ecall's own outputs) and the transition span's
     context for stamping them. *)
  mutable deferred_sink : (string list -> unit) option;
  mutable ecall_out_ctx : Trace_ctx.t option;
}

and pool = {
  servers : Resource.t array;
  (* Conflict horizon per logical key: when the last writer finishes, and
     when the last reader finishes.  A task must start after the writers
     of everything it touches and after the readers of everything it
     writes — the classic RW/WR/WW hazard rule. *)
  write_free : float Key_tbl.t;
  read_free : float Key_tbl.t;
  c_tasks : Registry.counter;
  c_conflict_waits : Registry.counter;
  g_backlog_us : Registry.gauge;
  mutable in_order_at : float;  (* when the last in-order task's outputs leave *)
}

and t = {
  name : string;
  platform : Platform.t;
  meas : Measurement.t;
  cost_model : Cost_model.t;
  sealing_key : Splitbft_crypto.Aead.key;
  mutable env : env option; (* None until first ecall builds it *)
  mutable handler : handler option;
  mutable program : program;
  mutable crashed : bool;
  mutable subverted : bool;
  mutable calls : int;
  total_us : Float.Array.t;  (* one cell, so an ecall stores it unboxed *)
  mutable durations : Stats.t;
  quote_encoded : string;
  pool : pool option;
  c_ecalls : Registry.counter;
  c_ecalls_aborted : Registry.counter;
  c_ecall_us : Registry.counter;
  c_copy_bytes : Registry.counter;
  h_ecall_us : Registry.histogram;
}

and handler = string -> unit
and program = env -> handler

let create ?(workers = 1) platform ~name ~measurement
    ~cost_model ~key_seed ~program =
  if workers <= 0 then invalid_arg "Enclave.create: workers must be positive";
  let keypair = Signature.derive ~seed:key_seed in
  let quote =
    Attestation.create platform ~measurement ~report_data:keypair.Signature.public
  in
  let obs = Splitbft_sim.Engine.obs (Platform.engine platform) in
  let labels = [ ("enclave", name) ] in
  let pool =
    if workers <= 1 then None
    else
      Some
        { servers =
            Array.init workers (fun i ->
                Resource.create (Platform.engine platform)
                  ~name:(Printf.sprintf "%s-w%d" name i));
          write_free = Key_tbl.create 64;
          read_free = Key_tbl.create 64;
          c_tasks = Registry.counter obs ~labels "tee.pool_tasks";
          c_conflict_waits = Registry.counter obs ~labels "tee.pool_conflict_waits";
          g_backlog_us = Registry.gauge obs ~labels "tee.pool_backlog_us";
          in_order_at = 0.0 }
  in
  let t =
    { name;
      platform;
      meas = measurement;
      cost_model;
      sealing_key = Splitbft_crypto.Aead.prepare (Platform.sealing_key platform measurement);
      env = None;
      handler = None;
      program;
      crashed = false;
      subverted = false;
      calls = 0;
      total_us = Float.Array.make 1 0.0;
      durations = Stats.create ();
      quote_encoded = Attestation.encode quote;
      pool;
      c_ecalls = Registry.counter obs ~labels "tee.ecalls";
      c_ecalls_aborted = Registry.counter obs ~labels "tee.ecalls_aborted";
      c_ecall_us = Registry.counter obs ~labels "tee.ecall_us";
      c_copy_bytes = Registry.counter obs ~labels "tee.copy_bytes";
      h_ecall_us = Registry.histogram obs ~labels "tee.ecall_duration_us" }
  in
  t.env <-
    Some
      { enclave = t;
        keypair;
        rng = Splitbft_util.Rng.split (Platform.rng platform);
        charges =
          { pending = 0.0; crypto = 0.0; exec = 0.0; seal = 0.0; io = 0.0;
            ocall_transitions = 0.0 };
        pending_outputs = [];
        ocalls = 0;
        deferred_sink = None;
        ecall_out_ctx = None };
  t

let name t = t.name
let measurement t = t.meas
let platform t = t.platform

let the_env t =
  match t.env with
  | Some e -> e
  | None -> assert false

let public_key t = (the_env t).keypair.Signature.public

let instantiate t =
  match t.handler with
  | Some h -> h
  | None ->
    let h = t.program (the_env t) in
    t.handler <- Some h;
    h

(* Thread lane inside the replica's trace: the compartment part of
   "replicaN-compartment" (the whole name when there is no dash). *)
let lane t =
  match String.rindex_opt t.name '-' with
  | Some i -> String.sub t.name (i + 1) (String.length t.name - i - 1)
  | None -> t.name

let engine t = Platform.engine t.platform

(* Open the span covering this transition: a child of the caller's span
   when the payload belongs to a sampled trace, or a fresh orphan root
   (so aggregate cost attribution stays complete) when it does not. *)
let open_ecall_span t tracer ctx =
  let at = Splitbft_sim.Engine.now (engine t) in
  let pid = Platform.id t.platform in
  let tid = lane t in
  match ctx with
  | Some { Trace_ctx.trace; span; forced } ->
    let id =
      Tracer.open_span tracer ~parent:span ~trace ~name:("ecall:" ^ tid)
        ~cat:"enclave" ~pid ~tid ~at ()
    in
    Some (id, { Trace_ctx.trace; span = id; forced })
  | None ->
    if not (Tracer.record_orphans tracer) then None
    else
      let trace = Tracer.fresh_orphan_trace tracer in
      let id =
        Tracer.open_span tracer ~trace ~name:("ecall:" ^ tid) ~cat:"enclave" ~pid
          ~tid ~at ()
      in
      Some (id, { Trace_ctx.trace; span = id; forced = false })

let ecall t ~thread ?ctx ~payload ~on_done () =
  let cm = t.cost_model in
  let tracer = Splitbft_sim.Engine.tracer (engine t) in
  if t.crashed then begin
    (* An aborted ecall into a dead enclave: the transition is attempted,
       nothing comes back. *)
    Registry.incr t.c_ecalls_aborted;
    (match (tracer, ctx) with
    | Some tr, Some { Trace_ctx.trace; span; _ } ->
      let id =
        Tracer.open_span tr ~parent:span ~trace ~name:("ecall-aborted:" ^ lane t)
          ~cat:"enclave.aborted" ~pid:(Platform.id t.platform) ~tid:(lane t)
          ~at:(Splitbft_sim.Engine.now (engine t)) ()
      in
      Resource.submit thread ~cost:cm.ecall_transition_us (fun () ->
          Tracer.finish tr id ~at:(Splitbft_sim.Engine.now (engine t));
          on_done [])
    | _ -> Resource.submit thread ~cost:cm.ecall_transition_us (fun () -> on_done []))
  end
  else begin
    let env = the_env t in
    let ch = env.charges in
    ch.pending <- 0.0;
    env.pending_outputs <- [];
    ch.crypto <- 0.0;
    ch.exec <- 0.0;
    ch.seal <- 0.0;
    ch.io <- 0.0;
    ch.ocall_transitions <- 0.0;
    env.ocalls <- 0;
    let span = match tracer with Some tr -> open_ecall_span t tr ctx | None -> None in
    env.deferred_sink <- Some on_done;
    env.ecall_out_ctx <- (match span with Some (_, c) -> Some c | None -> None);
    let handler = instantiate t in
    handler payload;
    env.deferred_sink <- None;
    env.ecall_out_ctx <- None;
    let outputs = List.rev env.pending_outputs in
    env.pending_outputs <- [];
    (* Outputs leave the boundary stamped with THIS transition's span, so
       whatever the environment does with them parents here. *)
    let outputs =
      match span with
      | Some (_, out_ctx) -> List.map (Trace_ctx.append (Some out_ctx)) outputs
      | None -> outputs
    in
    let out_bytes = List.fold_left (fun acc o -> acc + String.length o) 0 outputs in
    let copied = String.length payload + out_bytes in
    let copy_us = cm.copy_per_byte_us *. float_of_int copied in
    let cost = cm.ecall_transition_us +. copy_us +. ch.pending in
    (match (tracer, span) with
    | Some tr, Some (id, _) ->
      let categorized = ch.crypto +. ch.exec +. ch.seal +. ch.io +. ch.ocall_transitions in
      Tracer.add_arg tr id "transitions" (float_of_int (1 + env.ocalls));
      Tracer.add_arg tr id "transition_us"
        (cm.ecall_transition_us +. ch.ocall_transitions);
      Tracer.add_arg tr id "copied_bytes" (float_of_int copied);
      Tracer.add_arg tr id "copy_us" copy_us;
      Tracer.add_arg tr id "crypto_us" ch.crypto;
      Tracer.add_arg tr id "exec_us" ch.exec;
      Tracer.add_arg tr id "seal_us" ch.seal;
      Tracer.add_arg tr id "io_us" ch.io;
      Tracer.add_arg tr id "other_us"
        (Float.max 0.0 (ch.pending -. categorized));
      Tracer.add_arg tr id "total_us" cost
    | _ -> ());
    ch.pending <- 0.0;
    t.calls <- t.calls + 1;
    Float.Array.set t.total_us 0 (Float.Array.get t.total_us 0 +. cost);
    Stats.add t.durations cost;
    Registry.incr t.c_ecalls;
    Registry.add_f t.c_ecall_us cost;
    Registry.add t.c_copy_bytes copied;
    Registry.observe t.h_ecall_us cost;
    Resource.submit thread ~cost (fun () ->
        (match (tracer, span) with
        | Some tr, Some (id, _) ->
          Tracer.finish tr id ~at:(Splitbft_sim.Engine.now (engine t))
        | _ -> ());
        on_done outputs)
  end

let crash t = t.crashed <- true
let is_crashed t = t.crashed

let restart t ~program =
  t.crashed <- false;
  t.subverted <- false;
  t.program <- program;
  t.handler <- None;
  (* Enclave memory does not survive teardown: the worker pool's conflict
     horizons restart empty, like every other in-enclave structure. *)
  match t.pool with
  | None -> ()
  | Some p ->
    Key_tbl.reset p.write_free;
    Key_tbl.reset p.read_free;
    p.in_order_at <- 0.0;
    (* The backlog gauge would otherwise hold the dead incarnation's last
       queue depth until the first post-restart pool task overwrites it. *)
    Registry.set p.g_backlog_us 0.0;
    Array.iter Resource.quiesce p.servers

(* Crash-path gauge reset without tearing the enclave down: a crashed
   host's enclaves stop receiving ecalls, so their pool backlog gauge
   would show the dead incarnation's queue until restart. *)
let quiesce t =
  match t.pool with
  | None -> ()
  | Some p ->
    Registry.set p.g_backlog_us 0.0;
    Array.iter Resource.quiesce p.servers

let subvert t program =
  t.subverted <- true;
  t.handler <- Some (program (the_env t))

let is_subverted t = t.subverted
let ecall_count t = t.calls
let ecall_total_us t = Float.Array.get t.total_us 0
let ecall_durations t = t.durations

let reset_stats t =
  t.calls <- 0;
  Float.Array.set t.total_us 0 0.0;
  t.durations <- Stats.create ()

let charge env us = env.charges.pending <- env.charges.pending +. us

let charge_crypto env us =
  env.charges.crypto <- env.charges.crypto +. us;
  charge env us

let charge_exec env us =
  env.charges.exec <- env.charges.exec +. us;
  charge env us

let charge_io env us =
  env.charges.io <- env.charges.io +. us;
  charge env us

let cost_model env = env.enclave.cost_model

let emit env payload = env.pending_outputs <- payload :: env.pending_outputs

let ocall env ?(cost = 0.0) payload =
  let cm = env.enclave.cost_model in
  env.ocalls <- env.ocalls + 1;
  env.charges.ocall_transitions <- env.charges.ocall_transitions +. cm.ocall_transition_us;
  charge env cm.ocall_transition_us;
  charge_io env cost;
  emit env payload

let env_keypair env = env.keypair
let env_platform_id env = Platform.id env.enclave.platform
let env_measurement env = env.enclave.meas
let env_now env = Splitbft_sim.Engine.now (Platform.engine env.enclave.platform)
let env_rng env = env.rng

let pool_size t = match t.pool with None -> 1 | Some p -> Array.length p.servers

(* Conflict horizons only matter while they are in the future; prune stale
   keys so long runs do not accumulate one entry per key ever touched. *)
let pool_prune_horizons p ~now =
  let prune tbl =
    if Key_tbl.length tbl > 4096 then
      Key_tbl.iter
        (fun k t -> if t <= now then Key_tbl.remove tbl k)
        (Key_tbl.copy tbl)
  in
  prune p.write_free;
  prune p.read_free

let pool_run ?(in_order = false) env f =
  match env.enclave.pool with
  | None -> ignore (f ())
  | Some p ->
    (* Run the task body now — state transitions stay in issue (sequence)
       order, so results are identical to serial execution by
       construction.  Only the task's *cost* and its outputs move to a
       worker: we snapshot the charge/output accumulators around [f],
       splice out what it contributed, and schedule that on the
       earliest-available worker, no earlier than the finish time of every
       conflicting task already scheduled. *)
    let ch = env.charges in
    let charge0 = ch.pending in
    let crypto0 = ch.crypto and exec0 = ch.exec in
    let seal0 = ch.seal and io0 = ch.io in
    let ocall_t0 = ch.ocall_transitions and ocalls0 = env.ocalls in
    let outputs0 = env.pending_outputs in
    env.pending_outputs <- [];
    let reads, writes = f () in
    let task_outputs = List.rev env.pending_outputs in
    env.pending_outputs <- outputs0;
    let delta = ch.pending -. charge0 in
    ch.pending <- charge0;
    ch.crypto <- crypto0;
    ch.exec <- exec0;
    ch.seal <- seal0;
    ch.io <- io0;
    ch.ocall_transitions <- ocall_t0;
    env.ocalls <- ocalls0;
    let cm = env.enclave.cost_model in
    let out_bytes =
      List.fold_left (fun acc o -> acc + String.length o) 0 task_outputs
    in
    let cost = delta +. (cm.copy_per_byte_us *. float_of_int out_bytes) in
    if cost <= 0.0 && task_outputs = [] then ()
    else begin
      let now = env_now env in
      let dep = ref 0.0 in
      let raise_dep tbl k =
        match Key_tbl.find_opt tbl k with
        | Some t -> if t > !dep then dep := t
        | None -> ()
      in
      List.iter (raise_dep p.write_free) reads;
      List.iter
        (fun k ->
          raise_dep p.write_free k;
          raise_dep p.read_free k)
        writes;
      let best = ref p.servers.(0) in
      Array.iter
        (fun s -> if Resource.free_at s < Resource.free_at !best then best := s)
        p.servers;
      if !dep > Float.max now (Resource.free_at !best) then
        Registry.incr p.c_conflict_waits;
      let start = Float.max !dep (Float.max now (Resource.free_at !best)) in
      let finish = start +. cost in
      List.iter (fun k -> Key_tbl.replace p.write_free k finish) writes;
      List.iter
        (fun k ->
          let prev =
            match Key_tbl.find_opt p.read_free k with Some t -> t | None -> 0.0
          in
          Key_tbl.replace p.read_free k (Float.max prev finish))
        reads;
      pool_prune_horizons p ~now;
      Registry.incr p.c_tasks;
      Registry.add env.enclave.c_copy_bytes out_bytes;
      Registry.set p.g_backlog_us (Float.max 0.0 (finish -. now));
      let ctx = env.ecall_out_ctx in
      let stamped = List.map (Trace_ctx.append ctx) task_outputs in
      let sink =
        match env.deferred_sink with Some s -> s | None -> fun _ -> ()
      in
      (* An in-order task's outputs leave no earlier than those of the
         in-order task issued before it; the worker does not wait. *)
      let leave = if in_order then Float.max finish p.in_order_at else finish in
      if in_order then p.in_order_at <- leave;
      Resource.submit_after !best ~earliest:!dep ~cost (fun () ->
          if leave > finish then
            ignore
              (Splitbft_sim.Engine.schedule (Platform.engine env.enclave.platform)
                 ~delay:(leave -. finish) ~label:"pool-in-order" (fun () -> sink stamped))
          else sink stamped)
    end

let charge_seal env us =
  env.charges.seal <- env.charges.seal +. us;
  charge env us

let seal env data =
  let cm = env.enclave.cost_model in
  charge_seal env
    (cm.seal_base_us +. (cm.seal_per_byte_us *. float_of_int (String.length data)));
  Sealing.seal ~key:env.enclave.sealing_key ~rng:env.rng data

let unseal env blob =
  let cm = env.enclave.cost_model in
  charge_seal env
    (cm.seal_base_us +. (cm.seal_per_byte_us *. float_of_int (String.length blob)));
  Sealing.unseal ~key:env.enclave.sealing_key blob

let scoped_counter_name t name =
  Printf.sprintf "%s:%s" (Splitbft_util.Hex.encode (Measurement.to_raw t.meas)) name

let tamper_counter t name = Platform.counter_tamper_reset t.platform (scoped_counter_name t name)
let counter_name env name = scoped_counter_name env.enclave name

let counter_increment env name =
  Platform.counter_increment env.enclave.platform (counter_name env name)

let counter_read env name = Platform.counter_read env.enclave.platform (counter_name env name)
let quote env = env.enclave.quote_encoded
