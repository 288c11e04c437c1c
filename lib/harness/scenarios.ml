module Engine = Splitbft_sim.Engine
module P = Splitbft_pbft.Replica
module M = Splitbft_minbft.Replica
module S = Splitbft_core.Replica
module Broker = Splitbft_core.Broker
module Preparation = Splitbft_core.Preparation
module Confirmation = Splitbft_core.Confirmation
module Execution = Splitbft_core.Execution
module Ids = Splitbft_types.Ids
module Proto = Splitbft_proto.Protocol_intf
module Proto_pbft = Splitbft_proto.Proto_pbft
module Proto_minbft = Splitbft_proto.Proto_minbft
module Proto_splitbft = Splitbft_proto.Proto_splitbft
module Catalog = Splitbft_proto.Catalog

type expectation = { exp_live : bool; exp_safe : bool; exp_confidential : bool }

type scenario = {
  id : string;
  description : string;
  protocol : Proto.t;
  expected : expectation;
  honest : int list;
  make :
    ?tracer:Splitbft_obs.Tracer.t -> ?flight:Splitbft_obs.Flight.t -> int64 -> Cluster.t;
  inject : Cluster.t -> unit;
  duration_us : float;
  min_completed : int;
  check : Cluster.t -> string option;
      (* scenario-specific post-condition evaluated on the final cluster
         state; [Some reason] fails the row even if the verdict matches *)
}

let tolerate = { exp_live = true; exp_safe = true; exp_confidential = true }
let plaintext e = { e with exp_confidential = false }
let unsafe e = { e with exp_safe = false }
let stalled e = { e with exp_live = false }

(* Protocol-specific injections downcast through the protocol's own
   witness; a mismatched scenario row is a programming error. *)
let pbft_node cluster i =
  match Proto_pbft.replica_of (Cluster.node cluster i) with
  | Some r -> r
  | None -> assert false

let minbft_node cluster i =
  match Proto_minbft.replica_of (Cluster.node cluster i) with
  | Some r -> r
  | None -> assert false

let splitbft_node cluster i =
  match Proto_splitbft.replica_of (Cluster.node cluster i) with
  | Some r -> r
  | None -> assert false

let crash_at cluster ~delay i =
  ignore
    (Engine.schedule (Cluster.engine cluster) ~delay ~label:"scenario:crash" (fun () ->
         Cluster.crash_host cluster i))

let restart_at cluster ~delay i =
  ignore
    (Engine.schedule (Cluster.engine cluster) ~delay ~label:"scenario:restart" (fun () ->
         Cluster.restart_host cluster i))

let make_simple protocol ?tracer ?flight seed =
  Cluster.create ?tracer ?flight
    { (Cluster.default_params protocol) with
      Cluster.seed;
      suspect_timeout_us = 250_000.0 }

(* Recovery rows checkpoint aggressively so a sealed image exists before the
   400 ms crash point. *)
let make_recovery protocol ?tracer ?flight seed =
  Cluster.create ?tracer ?flight
    { (Cluster.default_params protocol) with
      Cluster.seed;
      suspect_timeout_us = 250_000.0;
      checkpoint_interval = 8 }

let no_inject (_ : Cluster.t) = ()
let no_check (_ : Cluster.t) = None

(* Post-condition of the crash-recover rows: the restarted node finished
   recovery (re-attested, state-transferred, rejoined) without alerts, and
   actually holds executed state. *)
let check_recovered i cluster =
  let node = Cluster.node cluster i in
  if not (Cluster.recovered_of node) then
    Some (Printf.sprintf "replica %d did not complete recovery" i)
  else
    match Cluster.recovery_alerts_of node with
    | alert :: _ -> Some (Printf.sprintf "replica %d raised alert: %s" i alert)
    | [] ->
      if Int64.compare (Cluster.last_executed_of node) 0L <= 0 then
        Some (Printf.sprintf "replica %d recovered but executed nothing" i)
      else None

(* Post-condition of the rollback rows: recovery must be REFUSED, loudly. *)
let check_rollback_refused i cluster =
  let node = Cluster.node cluster i in
  if Cluster.recovered_of node then
    Some (Printf.sprintf "replica %d rejoined despite a rolled-back counter" i)
  else
    match Cluster.recovery_alerts_of node with
    | [] -> Some (Printf.sprintf "replica %d refused silently (no alert)" i)
    | _ -> None

let splitbft_with ?tracer ?flight seed byz_of =
  Cluster.create ?tracer ?flight
    { (Cluster.default_params (Proto_splitbft.make ~byz:byz_of ())) with
      Cluster.seed;
      suspect_timeout_us = 250_000.0 }

(* ---------- generic rows, inherited by every catalogued protocol ----------

   These exercise only the uniform interface (deploy, crash, restart,
   tamper), so any protocol that plugs into the catalog gets the whole
   block: fault-free, backup crash, primary crash (view change),
   crash-recovery, and the rollback attack. *)

let generic_for name protocol =
  let n = Proto.default_n protocol in
  let base = if Proto.confidential protocol then tolerate else plaintext tolerate in
  let all_honest = List.init n Fun.id in
  let but i = List.filter (fun j -> j <> i) all_honest in
  let last = n - 1 in
  let id suffix = name ^ "/" ^ suffix in
  let upper = String.uppercase_ascii name in
  [
    { id = id "fault-free";
      description = Printf.sprintf "%s, no faults" upper;
      protocol;
      expected = base;
      honest = all_honest;
      make = make_simple protocol;
      inject = no_inject;
      duration_us = 1_500_000.0;
      min_completed = 50;
      check = no_check };
    { id = id "crash-f";
      description = Printf.sprintf "%s, f = 1 host crash (backup)" upper;
      protocol;
      expected = base;
      honest = but last;
      make = make_simple protocol;
      inject = (fun c -> crash_at c ~delay:400_000.0 last);
      duration_us = 2_000_000.0;
      min_completed = 50;
      check = no_check };
    { id = id "crash-primary";
      description = Printf.sprintf "%s, primary host crash (view change)" upper;
      protocol;
      expected = base;
      honest = but 0;
      make = make_simple protocol;
      inject = (fun c -> crash_at c ~delay:400_000.0 0);
      duration_us = 2_500_000.0;
      min_completed = 50;
      check = no_check };
    { id = id "crash-recover";
      description =
        Printf.sprintf
          "%s, host crash then restart with sealed-checkpoint recovery" upper;
      protocol;
      expected = base;
      honest = all_honest;
      make = make_recovery protocol;
      inject =
        (fun c ->
          crash_at c ~delay:400_000.0 last;
          restart_at c ~delay:900_000.0 last);
      duration_us = 2_500_000.0;
      min_completed = 50;
      check = check_recovered last };
    { id = id "rollback-attack";
      description =
        Printf.sprintf
          "%s, host crash, checkpoint counter rolled back, restart: recovery \
           must refuse loudly; the rest of the cluster is unharmed" upper;
      protocol;
      expected = base;
      honest = but last;
      make = make_recovery protocol;
      inject =
        (fun c ->
          crash_at c ~delay:400_000.0 last;
          ignore
            (Engine.schedule (Cluster.engine c) ~delay:900_000.0
               ~label:"scenario:rollback" (fun () ->
                 Cluster.tamper_checkpoint_counter c last;
                 Cluster.restart_host c last)));
      duration_us = 2_500_000.0;
      min_completed = 50;
      check = check_rollback_refused last };
  ]

let generic = List.concat_map (fun (name, p) -> generic_for name p) Catalog.builtins

(* ---------- protocol-specific byzantine / environment rows ---------- *)

let specific =
  [
    (* ---------- PBFT ---------- *)
    { id = "pbft/byz-f";
      description = "PBFT, f = 1 byzantine replica (corrupt execution)";
      protocol = Proto_pbft.protocol;
      expected = plaintext tolerate;
      honest = [ 0; 2; 3 ];
      make = make_simple Proto_pbft.protocol;
      inject = (fun c -> P.set_byzantine (pbft_node c 1) P.Corrupt_execution);
      duration_us = 1_500_000.0;
      min_completed = 50;
      check = no_check };
    { id = "pbft/byz-f+1";
      description = "PBFT, f + 1 byzantine replicas (equivocation + collusion)";
      protocol = Proto_pbft.protocol;
      expected = unsafe (plaintext tolerate);
      honest = [ 2; 3 ];
      make = make_simple Proto_pbft.protocol;
      inject =
        (fun c ->
          P.set_byzantine (pbft_node c 0) (P.Equivocate { accomplices = [ 1 ] });
          P.set_byzantine (pbft_node c 1) P.Collude);
      duration_us = 1_500_000.0;
      min_completed = 10;
      check = no_check };
    (* ---------- MinBFT (hybrid) ---------- *)
    { id = "minbft/byz-f";
      description = "MinBFT, f = 1 byzantine host (corrupt execution, intact USIG)";
      protocol = Proto_minbft.protocol;
      expected = plaintext tolerate;
      honest = [ 0; 2 ];
      make = make_simple Proto_minbft.protocol;
      inject = (fun c -> M.set_byzantine (minbft_node c 1) M.Corrupt_execution);
      duration_us = 1_500_000.0;
      min_completed = 50;
      check = no_check };
    { id = "minbft/faulty-tee";
      description = "MinBFT, single compromised USIG (primary equivocates)";
      protocol = Proto_minbft.protocol;
      (* Divergent replicas each answer differently, so no client ever
         collects f+1 matching replies: integrity AND liveness are lost. *)
      expected = stalled (unsafe (plaintext tolerate));
      honest = [ 1; 2 ];
      make = make_simple Proto_minbft.protocol;
      inject = (fun c -> M.set_byzantine (minbft_node c 0) M.Faulty_tee_equivocate);
      duration_us = 1_500_000.0;
      min_completed = 10;
      check = no_check };
    (* ---------- SplitBFT ---------- *)
    { id = "splitbft/enclave-f-each-type";
      description =
        "SplitBFT, f byzantine enclaves of EVERY type (equivocating \
         Preparation, promiscuous Confirmation, corrupt Execution, on \
         three different hosts)";
      protocol = Proto_splitbft.protocol;
      expected = tolerate;
      honest = [ 0; 1; 3 ];
      make =
        (fun ?tracer ?flight seed ->
          splitbft_with ?tracer ?flight seed (fun i ->
              match i with
              | 0 ->
                { Proto_splitbft.honest_enclaves with
                  Proto_splitbft.prep = Preparation.Prep_equivocate }
              | 1 ->
                { Proto_splitbft.honest_enclaves with
                  Proto_splitbft.conf = Confirmation.Conf_promiscuous }
              | 2 ->
                { Proto_splitbft.honest_enclaves with
                  Proto_splitbft.exec = Execution.Exec_corrupt }
              | _ -> Proto_splitbft.honest_enclaves));
      inject = no_inject;
      duration_us = 3_000_000.0;
      min_completed = 20;
      check = no_check };
    { id = "splitbft/exec-f+1-corrupt";
      description = "SplitBFT, f + 1 corrupt Execution enclaves (beyond the bound)";
      protocol = Proto_splitbft.protocol;
      expected = unsafe tolerate;
      honest = [ 2; 3 ];
      make =
        (fun ?tracer ?flight seed ->
          splitbft_with ?tracer ?flight seed (fun i ->
              if i <= 1 then
                { Proto_splitbft.honest_enclaves with
                  Proto_splitbft.exec = Execution.Exec_corrupt }
              else Proto_splitbft.honest_enclaves));
      inject = no_inject;
      duration_us = 1_500_000.0;
      min_completed = 20;
      check = no_check };
    { id = "splitbft/exec-leak";
      description = "SplitBFT, f = 1 leaking Execution enclave (confidentiality lost)";
      protocol = Proto_splitbft.protocol;
      expected = { exp_live = true; exp_safe = true; exp_confidential = false };
      honest = [ 1; 2; 3 ];
      make =
        (fun ?tracer ?flight seed ->
          splitbft_with ?tracer ?flight seed (fun i ->
              if i = 0 then
                { Proto_splitbft.honest_enclaves with
                  Proto_splitbft.exec = Execution.Exec_leak }
              else Proto_splitbft.honest_enclaves));
      inject = no_inject;
      duration_us = 1_500_000.0;
      min_completed = 50;
      check = no_check };
    { id = "splitbft/host-attacker-all";
      description = "SplitBFT, attacker on ALL hosts (delaying environments)";
      protocol = Proto_splitbft.protocol;
      expected = tolerate;
      honest = [ 0; 1; 2; 3 ];
      make = make_simple Proto_splitbft.protocol;
      inject =
        (fun c ->
          List.iteri
            (fun i _ -> S.set_env_fault (splitbft_node c i) (Broker.Env_delay 2_000.0))
            (Cluster.nodes c));
      duration_us = 2_000_000.0;
      min_completed = 20;
      check = no_check };
    { id = "splitbft/env-starve-all";
      description =
        "SplitBFT, attacker on ALL hosts starving the Confirmation \
         compartments (liveness lost, safety kept)";
      protocol = Proto_splitbft.protocol;
      expected = stalled tolerate;
      honest = [ 0; 1; 2; 3 ];
      make = make_simple Proto_splitbft.protocol;
      inject =
        (fun c ->
          List.iteri
            (fun i _ ->
              S.set_env_fault (splitbft_node c i) (Broker.Env_starve Ids.Confirmation))
            (Cluster.nodes c));
      duration_us = 1_500_000.0;
      min_completed = 10;
      check = no_check };
  ]

let all = generic @ specific

let find id = List.find_opt (fun s -> String.equal s.id id) all

type outcome = {
  scenario : scenario;
  cluster : Cluster.t;
  verdict : Safety.verdict;
  workload : Workload.result;
  check_failure : string option;
  alerts : Detector.alert list;
}

let run ?(seed = 42L) ?tracer ?(detect = false) scenario =
  let flight =
    if detect then Some (Splitbft_obs.Flight.create ~capacity:4096 ()) else None
  in
  let cluster = scenario.make ?tracer ?flight seed in
  let detector = if detect then Some (Detector.attach cluster) else None in
  let scanner = Safety.install_scanner cluster in
  scenario.inject cluster;
  let spec =
    { Workload.default_spec with
      Workload.clients = 3;
      warmup_us = 0.0;
      duration_us = scenario.duration_us }
  in
  let workload = Workload.run cluster spec in
  let verdict =
    Safety.verdict cluster ~honest:scenario.honest ~scanner ~workload
      ~min_completed:scenario.min_completed
  in
  let check_failure = scenario.check cluster in
  let alerts = match detector with Some d -> Detector.alerts d | None -> [] in
  { scenario; cluster; verdict; workload; check_failure; alerts }

let anomalous o =
  let e = o.scenario.expected and v = o.verdict in
  o.alerts <> [] || o.check_failure <> None
  || e.exp_live <> v.Safety.live
  || e.exp_safe <> v.Safety.safe
  || e.exp_confidential <> v.Safety.confidential

(* Flight-recorder artifact, dumped next to the model checker's
   counterexample schedules whenever a detect-mode row misbehaves or the
   detector fired.  Returns the path written, [None] when the run had no
   recorder attached. *)
let dump_flight ~dir o =
  match Cluster.flight o.cluster with
  | None -> None
  | Some fl ->
    let slug =
      String.map (fun c -> if c = '/' then '-' else c) o.scenario.id
    in
    let path = Filename.concat dir (slug ^ "-flight.txt") in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Splitbft_obs.Flight.save ~path fl;
    Some path

let matches_expectation o =
  let e = o.scenario.expected and v = o.verdict in
  e.exp_live = v.Safety.live && e.exp_safe = v.Safety.safe
  && e.exp_confidential = v.Safety.confidential
  && o.check_failure = None
