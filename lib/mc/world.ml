module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Addr = Splitbft_types.Addr
module Message = Splitbft_types.Message
module Sconfig = Splitbft_core.Config
module Replica = Splitbft_core.Replica
module Broker = Splitbft_core.Broker
module Confirmation = Splitbft_core.Confirmation
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs
module Safety = Splitbft_harness.Safety
module Workload = Splitbft_harness.Workload

let n = 4

type timer_budgets = { suspect : int; retry : int; batch : int; recovery : int }

let default_budgets = { suspect = 2; retry = 2; batch = 4; recovery = 2 }
(* Sized for the two view changes the lossy filter forces, and no more:
   one suspect fire per replica reaches exactly view 2 (two replicas'
   fires reach view 1; the other two, still holding their fire, push to
   view 2 — join-rule ViewChanges don't consume timer budget), and the
   two retry fires re-seed the view-2 primary with the outstanding
   requests.  Recovery timers are excluded: the scenario has no crash. *)
let viewchange_budgets = { suspect = 1; retry = 2; batch = 4; recovery = 0 }

type config = {
  seed : int64;
  requests : int;
  checkpoint_interval : int;
  adversaries : Adversary.t list;
  crash : (int * bool) option;
  lossy_viewchange : bool;
  mutate_viewchange : bool;
  budgets : timer_budgets;
  per_host_fifo : bool;
  client_window : int;
}

let default_config =
  { seed = 1L;
    requests = 2;
    checkpoint_interval = 2;
    adversaries = [];
    crash = None;
    lossy_viewchange = false;
    mutate_viewchange = false;
    budgets = default_budgets;
    per_host_fifo = false;
    client_window = 2 }

(* The timer labels the per-label fire budgets apply to.  Everything the
   replicas and client schedule with a delay long enough to matter is one
   of these self-rearming timers; bounding their firings per path is what
   makes the interleaving space finite. *)
type timer_kind = K_suspect | K_retry | K_batch | K_recovery

let timer_kind_of_label label =
  let has suffix =
    let nl = String.length label and ns = String.length suffix in
    nl >= ns && String.equal (String.sub label (nl - ns) ns) suffix
  in
  if has "-suspect" then Some K_suspect
  else if has "-retry" then Some K_retry
  else if has "-batch" then Some K_batch
  else if has "-recovery" then Some K_recovery
  else None

type t = {
  cfg : config;
  engine : Engine.t;
  net : Network.t;
  replicas : Replica.t array;
  client : Client.t;
  mutable completed : int;
  mutable wrong : int;
  mutable wire_leaks : int;
  crashed : bool array;
  fired : (string, int) Hashtbl.t;  (** budgeted-timer label -> fires so far *)
}

type choice = {
  ev : Engine.handle;
  label : string;
  host : int;
  lane : int;
  fp : string;
}

let budget_for t kind =
  match kind with
  | K_suspect -> t.cfg.budgets.suspect
  | K_retry -> t.cfg.budgets.retry
  | K_batch -> t.cfg.budgets.batch
  | K_recovery -> t.cfg.budgets.recovery

let suppressed t label =
  match timer_kind_of_label label with
  | None -> false
  | Some kind ->
    let fired = Option.value ~default:0 (Hashtbl.find_opt t.fired label) in
    fired >= budget_for t kind

(* Deterministic network adversary used by the mutation self-test: steer
   the run through two view changes by (1) hiding view 0's Commits from
   everyone but replica 0, and even from it at seqs above 1, so replica 0
   alone executes ts=1 (at seq 1) before the first view change while
   ts=2 stays prepared but unexecuted everywhere, (2) killing view 1's
   Prepares, forcing a second view change whose ViewChanges are built
   from view 1's entry state, and (3) keeping request ts=1 away from
   replica 2, the eventual view-2 primary, so a cert-less new-view (the
   re-introduced view-change bug) makes it propose ts=2 at seq 1.

   Holding ts=2 back from replica 0 keeps its suspect timer in play: a
   broker answers a retransmission of a request it already replied to
   from its reply cache without arming the timer, so a replica 0 that
   had executed both requests would never suspect anyone, and one
   suspect fire per replica could no longer push the cluster to view 2. *)
let lossy_viewchange_filter ~src:_ ~dst payload =
  match Message.decode_traced payload with
  | Ok (Message.Commit { view = 0; seq; _ }, _) when dst <> Addr.replica 0 || seq <> 1 ->
    Network.Drop
  | Ok (Message.Prepare { view = 1; _ }, _) -> Network.Drop
  | Ok (Message.Request { timestamp = 1L; _ }, _) when dst = Addr.replica 2 -> Network.Drop
  | _ -> Network.Deliver

let replica_config cfg id =
  { (Sconfig.default ~n ~id) with
    Sconfig.batch_size = 1;
    batch_timeout_us = 100.0;
    checkpoint_interval = cfg.checkpoint_interval;
    suspect_timeout_us = 5_000.0;
    viewchange_timeout_us = 10_000.0;
    recovery_retry_us = 5_000.0;
    lanes = 1;
    exec_workers = 1 }

let net_config =
  { Network.base_delay_us = 10.0;
    jitter_mean_us = 0.0;
    drop_probability = 0.0;
    bandwidth_bytes_per_us = 0.0 }

let drain_limit = 200_000

(* Fire every live [Internal] event — deterministic consequences of the
   last choice (ecall completions, cost-model delays) — until only
   genuine scheduling decisions remain. *)
let drain_internal t =
  let steps = ref 0 in
  let rec loop () =
    let next =
      List.find_opt
        (fun ev -> Engine.class_of ev = Engine.Internal)
        (Engine.live_events t.engine)
    in
    match next with
    | None -> ()
    | Some ev ->
      incr steps;
      if !steps > drain_limit then failwith "Mc.World: internal-event drain did not quiesce";
      Engine.fire_forced t.engine ev;
      loop ()
  in
  loop ()

let create cfg =
  (match Adversary.validate ~n cfg.adversaries with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mc.World.create: " ^ e));
  Confirmation.mutate_drop_prepared_on_view_entry := cfg.mutate_viewchange;
  let engine = Engine.create ~seed:cfg.seed () in
  let net = Network.create engine net_config in
  let replicas =
    Array.init n (fun id ->
        let prep_byz, conf_byz, exec_byz = Adversary.byz_for cfg.adversaries id in
        Replica.create ~prep_byz ~conf_byz ~exec_byz engine net (replica_config cfg id)
          ~app:(fun () -> Kvs.create ()))
  in
  let client =
    Client.create engine net
      { Client.id = 0;
        n;
        reply_quorum = 2;
        window = min cfg.client_window cfg.requests;
        retry_timeout_us = 20_000.0;
        retry_backoff = 2.0;
        retry_cap_us = 80_000.0;
        retry_jitter = 0.0;
        protocol = Client.Splitbft { ready_quorum = 3 } }
  in
  let t =
    { cfg;
      engine;
      net;
      replicas;
      client;
      completed = 0;
      wrong = 0;
      wire_leaks = 0;
      crashed = Array.make n false;
      fired = Hashtbl.create 16 }
  in
  Network.set_tap net
    (Some
       (fun ~src:_ ~dst:_ payload ->
         if Safety.contains_canary payload then t.wire_leaks <- t.wire_leaks + 1));
  if cfg.lossy_viewchange then Network.set_filter net (Some lossy_viewchange_filter);
  (* Attestation/session setup runs free (canonical schedule): the
     boundary under test is the agreement path, and exploring handshake
     interleavings would swamp the budget with symmetric states. *)
  Client.start client ~on_ready:(fun () -> ());
  Engine.run ~max_events:100_000 engine;
  if not (Client.is_ready client) then failwith "Mc.World: client failed to become ready in setup";
  (* Broker output-boundary faults only from here on, so the handshake
     itself is not the casualty. *)
  Array.iteri
    (fun id r ->
      match Adversary.env_fault_for cfg.adversaries id with
      | Some fault -> Replica.set_env_fault r fault
      | None -> ())
    replicas;
  for i = 0 to cfg.requests - 1 do
    let op = Kvs.Put (Printf.sprintf "k%d" i, Printf.sprintf "%s-%d" Workload.canary i) in
    Client.submit client ~op:(Kvs.encode_op op) ~on_result:(fun ~latency_us:_ ~result ->
        t.completed <- t.completed + 1;
        if not (String.equal result Kvs.ok) then t.wrong <- t.wrong + 1)
  done;
  (match cfg.crash with
  | None -> ()
  | Some (host, restart) ->
    ignore
      (Engine.schedule engine
         ~cls:(Engine.Choice { host = -1; lane = -1 })
         ~delay:0.0 ~label:"mc:crash"
         (fun () ->
           t.crashed.(host) <- true;
           Replica.crash_host replicas.(host);
           if restart then
             ignore
               (Engine.schedule engine
                  ~cls:(Engine.Choice { host = -1; lane = -1 })
                  ~delay:0.0 ~label:"mc:restart"
                  (fun () ->
                    t.crashed.(host) <- false;
                    Replica.restart_host replicas.(host))))));
  drain_internal t;
  t

let choices t =
  Engine.live_events t.engine
  |> List.filter_map (fun ev ->
         match Engine.class_of ev with
         | Engine.Internal -> None
         | Engine.Choice { host; lane } ->
           Some { ev; label = Engine.label_of ev; host; lane; fp = Engine.fp_of ev })

(* The scheduler's menu: every live Choice event whose timer budget is not
   exhausted, in creation order (creation order is deterministic given the
   choice prefix, so an index into this list is replayable).

   Network deliveries are restricted to the head of their (src, dst) link:
   the simulated network under the model-checking configuration (zero
   jitter) delivers every link in FIFO order, so schedules that reorder
   one link's messages are outside the modeled network — the checker
   explores every interleaving ACROSS links, timers and crashes, but not
   within a link.  Delivery labels are "net:SRC->DST", so the link is the
   label; creation order (seq) is send order.

   [per_host_fifo] coarsens the model one step further for the exhaust
   preset: the scheduler picks which HOST consumes its oldest pending
   message (per-host global-FIFO arrival), i.e. it explores every
   host-pacing — including arbitrary stalls, timer and crash placements
   — of the FIFO network's send order, strictly generalizing the
   zero-jitter simulator's single free-run schedule.  What it gives up
   relative to per-message mode is straggler-quorum schedules (a host
   seeing sender 2's Prepare before sender 1's); the fault presets keep
   per-message granularity, bounded, to cover those.

   The menu is ordered deliveries first, then timers, then crash points
   (stable within each class).  Ordering is pure search heuristic — it
   changes which paths the DFS walks first, not which it covers — and
   makes the greedy path the protocol's happy path: timers fire when
   deliveries stall, instead of burning their budgets up front. *)
let is_delivery label =
  String.length label >= 4 && String.equal (String.sub label 0 4) "net:"

let enabled t =
  let seen = Hashtbl.create 32 in
  let fifo_key c = if t.cfg.per_host_fifo then string_of_int c.host else c.label in
  let live =
    List.filter
      (fun c ->
        if suppressed t c.label then false
        else if is_delivery c.label then begin
          let key = fifo_key c in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end
        end
        else true)
      (choices t)
  in
  let rank c =
    if is_delivery c.label then 0
    else if c.host = -1 then 3
    else
      match timer_kind_of_label c.label with
      (* Client retransmissions after the replicas' own timers: the
         retry is the protocol's end-to-end recovery of last resort, and
         on stalled paths it is what re-seeds a fresh view's primary —
         firing it before the failure detectors wastes it on the dead
         view. *)
      | Some K_retry -> 2
      | _ -> 1
  in
  List.stable_sort (fun a b -> compare (rank a) (rank b)) live

let apply t c =
  if not (Engine.is_live c.ev) then invalid_arg "Mc.World.apply: stale choice";
  (match timer_kind_of_label c.label with
  | None -> ()
  | Some _ ->
    Hashtbl.replace t.fired c.label
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.fired c.label)));
  Engine.fire_forced t.engine c.ev;
  drain_internal t

(* Two choices commute when they act on different hosts, or on the same
   host but provably distinct consensus lanes.  Lane -1 is "unknown lane"
   and host -1 is a global event (crash/restart) — both conflict with
   everything they share a side with. *)
let independent a b =
  if a.host = -1 || b.host = -1 then false
  else if a.host <> b.host then true
  else a.lane >= 0 && b.lane >= 0 && a.lane <> b.lane

(* A canonical text of everything schedule-visible: compartment probe
   state, executed logs, persisted storage, the brokers' reply-cache and
   inflight keys, client progress, in-flight choices (label + payload
   digest, times excluded) and the budget counters.  Virtual times and
   event seqnos are deliberately excluded so interleavings that converge
   to the same protocol state collide. *)
let state_text t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let keys l = String.concat "," (List.map (fun (c, ts) -> Printf.sprintf "%d:%Ld" c ts) l) in
  Array.iteri
    (fun i r ->
      add "R%d:%b:%b;" i t.crashed.(i) (Replica.host_crashed r);
      let p = Replica.prep_probe r in
      add "P%d,%d,%d,%d,%d;" (p.Splitbft_core.Preparation.view ()) (p.next_seq ())
        (p.last_stable ()) (p.sessions ()) (p.parked ());
      let c = Replica.conf_probe r in
      add "C%d,%d,%d;" (c.Splitbft_core.Confirmation.view ()) (c.last_stable ())
        (c.commits_sent ());
      let e = Replica.exec_probe r in
      add "E%d,%d,%d,%d,%s;" (e.Splitbft_core.Execution.view ()) (e.last_executed ())
        (e.last_stable ()) (e.sessions ())
        (Digest.to_hex (Digest.string (Replica.app_digest r)));
      List.iter (fun (seq, d) -> add "x%d=%s;" seq (Digest.to_hex (Digest.string d)))
        (Replica.executed_log r);
      let blobs = Replica.persisted r in
      let pb = Buffer.create 256 in
      List.iter
        (fun (tag, data) ->
          Buffer.add_string pb tag;
          Buffer.add_char pb '=';
          Buffer.add_string pb (Digest.to_hex (Digest.string data));
          Buffer.add_char pb ';')
        (List.sort compare blobs);
      add "S%d:%s;" (List.length blobs) (Digest.to_hex (Digest.string (Buffer.contents pb)));
      (* The broker answers a retransmission from its reply cache and drops
         one whose request is inflight, so both key sets decide what a
         replica does next.  The reply cache's recency order only picks
         eviction victims, which it stays far too small to need here, but
         it is cheap to keep exact. *)
      let broker = Replica.broker r in
      add "B%d:rc=%s;in=%s;" i
        (keys (Broker.reply_cache_keys broker))
        (keys (Broker.inflight_keys broker)))
    t.replicas;
  add "cl:%b,%d,%d,%d,%d;" (Client.is_ready t.client) t.completed t.wrong
    (Client.outstanding t.client) t.wire_leaks;
  let pending =
    choices t
    |> List.map (fun c -> (c.label, Digest.to_hex (Digest.string c.fp)))
    |> List.sort compare
  in
  List.iter (fun (l, d) -> add "q%s=%s;" l d) pending;
  Hashtbl.fold (fun l k acc -> (l, k) :: acc) t.fired []
  |> List.sort compare
  |> List.iter (fun (l, k) -> add "t%s=%d;" l k);
  Buffer.contents b

let fingerprint t = Digest.to_hex (Digest.string (state_text t))

(* Replicas whose Execution compartment runs the honest program; their
   executed logs and replies are the ones SplitBFT's containment claim
   covers. *)
let honest_exec t =
  List.init n Fun.id
  |> List.filter (fun id ->
         not
           (List.exists
              (fun a ->
                a.Adversary.replica = id
                && Adversary.site_of_policy a.Adversary.policy = Adversary.Site_execution)
              t.cfg.adversaries))

(* The invariants, checked at every explored state.  The prefix-length
   window check only applies at quiescent (terminal) states: mid-run a
   replica legitimately trails by however many deliveries are still
   pending. *)
let log64 r = List.map (fun (seq, d) -> (Int64.of_int seq, d)) (Replica.executed_log r)

let check ?(terminal = false) t =
  let honest = honest_exec t in
  let logs = List.map (fun i -> (i, log64 t.replicas.(i))) honest in
  let live_logs = List.filter (fun (i, _) -> not t.crashed.(i)) logs in
  match Safety.agreement_of_logs logs with
  | Safety.Conflict _ as bad -> Some (Safety.describe_agreement bad)
  | Safety.Prefix_lag _ as bad -> Some (Safety.describe_agreement bad)
  | Safety.Agreement -> (
    let lag =
      if terminal then
        match Safety.agreement_of_logs ~window:t.cfg.checkpoint_interval live_logs with
        | Safety.Agreement -> None
        | bad -> Some (Safety.describe_agreement bad)
      else None
    in
    match lag with
    | Some _ -> lag
    | None -> (
      let gap =
        List.find_map
          (fun (i, log) ->
            match Safety.prefix_gap log with
            | Some seq -> Some (Printf.sprintf "replica %d executed log has a gap at seq %Ld" i seq)
            | None -> None)
          logs
      in
      match gap with
      | Some _ -> gap
      | None ->
        if t.wrong > 0 then
          Some (Printf.sprintf "%d wrong client results accepted" t.wrong)
        else if t.wire_leaks > 0 then
          Some (Printf.sprintf "%d canary-leaking wire payloads" t.wire_leaks)
        else
          let storage =
            Array.fold_left (fun acc r -> acc + Safety.blob_leaks (Replica.persisted r)) 0 t.replicas
          in
          if storage > 0 then Some (Printf.sprintf "%d canary-leaking storage blobs" storage)
          else None))

let completed t = t.completed
let now t = Engine.now t.engine
let executed_log t i = Replica.executed_log t.replicas.(i)
let view t i = Replica.view t.replicas.(i)
let label c = c.label
let choice_fp c = c.fp
let host c = c.host
let lane c = c.lane
let describe_choice c = Printf.sprintf "%s(h%d,l%d)" c.label c.host c.lane
