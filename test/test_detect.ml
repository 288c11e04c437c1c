(* Detection coverage matrix and zero-false-positive sweep for the
   online anomaly detector (Detector).

   Coverage: every byzantine policy in the model checker's adversary
   vocabulary ([Splitbft_mc.Adversary]), deployed on a live cluster
   through the same [byz_for]/[env_fault_for] mapping the checker uses,
   must fire its corresponding detection rule against the compromised
   replica — plus an environment-starvation row for the executed-prefix
   lag rule.  [reorder-outputs] is the documented exclusion: a
   reordering environment is indistinguishable from tolerated network
   asynchrony, so its row asserts containment (progress, zero alerts)
   instead of an alert.

   Zero false positives: every Table 1 scenario runs under the detector;
   rows whose fault load is tolerated crashes, recoveries, rollbacks or
   delays must raise NO alert at all, and byzantine rows may only raise
   rules from their per-row allowance.  The allowance is rule-name-only
   for beyond-the-bound rows: once the fault exceeds what the protocol
   masks, accusations can legitimately land on honest replicas (e.g.
   f+1 corrupt Executions outvote the honest results, so the honest
   minority looks divergent). *)

module H = Splitbft_harness
module Mc = Splitbft_mc
module Obs = Splitbft_obs
module Engine = Splitbft_sim.Engine
module S = Splitbft_core.Replica
module Broker = Splitbft_core.Broker
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Message = Splitbft_types.Message
module Proto_splitbft = Splitbft_proto.Proto_splitbft

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let splitbft_node cluster i =
  match Proto_splitbft.replica_of (H.Cluster.node cluster i) with
  | Some r -> r
  | None -> assert false

(* ----- coverage matrix ----- *)

type row = {
  policy : string;  (* adversary spec, or "starve-execution@R" for the env row *)
  required : (string * int) list;  (* (rule, accused replica; -1 = cluster-wide) *)
  allowed : string list;  (* complete allowance; [required]'s rules are implied *)
  ckpt : int;
  clients : int;
  duration_us : float;
  suspect_us : float;
  ready_quorum : int option;
      (* faults that swallow a replica's session ack (starved Execution,
         dropped outputs) would otherwise leave every client stuck in
         setup: accept n-1 acks there *)
  crash_primary_at : float option;
}

let row ?(allowed = []) ?(ckpt = 64) ?(clients = 10) ?(duration_us = 1_000_000.0)
    ?(suspect_us = 250_000.0) ?ready_quorum ?crash_primary_at policy required =
  { policy; required; allowed; ckpt; clients; duration_us; suspect_us; ready_quorum;
    crash_primary_at }

(* Placement notes: [equivocate] and [corrupt-digest] sit at replica 0
   because only the view's primary proposes — a backup byzantine
   Preparation never gets to equivocate.  [stale-proof] needs a
   checkpoint certificate to exist (aggressive interval) and a view
   change afterwards (primary crash) before the stale ViewChange is
   observable.  [drop-outputs] sits at the primary so dropped proposals
   force client retransmissions. *)
let matrix =
  [ row "equivocate@0" [ ("equivocation", 0) ] ~allowed:[ "duplicate-flood"; "premature-commit" ];
    row "corrupt-digest@0"
      [ ("digest-mismatch", 0) ]
      ~allowed:[ "duplicate-flood"; "retx-storm"; "quorum-stall"; "prefix-lag" ];
    row "promiscuous-commit@1"
      [ ("premature-commit", 1) ]
      ~allowed:[ "duplicate-flood" ];
    row "stale-proof@1"
      [ ("stale-proof", 1) ]
      ~ckpt:8 ~duration_us:1_500_000.0 ~crash_primary_at:700_000.0
      ~allowed:[ "duplicate-flood"; "retx-storm" ];
    row "corrupt-result@1" [ ("vote-divergence", 1) ] ~ckpt:8 ~allowed:[ "checkpoint-mismatch" ];
    row "leak-plaintext@1" [ ("confidentiality-leak", 1) ];
    row "lie-checkpoint@1" [ ("checkpoint-mismatch", 1) ] ~ckpt:8;
    (* the primary swallowing proposals only provokes retransmissions if
       the stall outlives the clients' 400 ms retry timeout, so suspicion
       (and with it the rescuing view change) is slowed down *)
    (* checkpoint-mismatch is allowed here because it also accuses the
       compromised host: the drop-induced commit backlog makes replica
       0's checkpoint job observe a state ahead of the checkpoint seqno,
       so its digest conflicts with the quorum's *)
    row "drop-outputs:2@0"
      [ ("retx-storm", 0) ]
      ~duration_us:2_000_000.0 ~suspect_us:700_000.0 ~ready_quorum:3
      ~allowed:[ "duplicate-flood"; "quorum-stall"; "prefix-lag"; "checkpoint-mismatch" ];
    row "duplicate-outputs@1" [ ("duplicate-flood", 1) ];
    (* documented exclusion: must stay silent AND live *)
    row "reorder-outputs@1" [];
    (* environment starvation of one Execution: the replica keeps voting
       but stops executing, so its prefix trails the cluster *)
    row "starve-execution@1" [ ("prefix-lag", 1) ] ~duration_us:1_500_000.0 ~ready_quorum:3 ]

let run_row r =
  let env_starve =
    match String.index_opt r.policy '@' with
    | Some i when String.length r.policy > 6 && String.sub r.policy 0 6 = "starve" ->
      Some (int_of_string (String.sub r.policy (i + 1) (String.length r.policy - i - 1)))
    | _ -> None
  in
  let advs =
    match env_starve with
    | Some _ -> []
    | None -> [ Result.get_ok (Mc.Adversary.of_string r.policy) ]
  in
  let byz i =
    let prep, conf, exec = Mc.Adversary.byz_for advs i in
    { Proto_splitbft.prep; conf; exec }
  in
  let params =
    { (H.Cluster.default_params (Proto_splitbft.make ~byz ())) with
      H.Cluster.seed = 11L;
      suspect_timeout_us = r.suspect_us;
      checkpoint_interval = r.ckpt }
  in
  let flight = Obs.Flight.create ~capacity:4096 () in
  let cluster = H.Cluster.create ~flight params in
  let det = H.Detector.attach cluster in
  List.iteri
    (fun i _ ->
      match Mc.Adversary.env_fault_for advs i with
      | Some fault -> S.set_env_fault (splitbft_node cluster i) fault
      | None -> ())
    (H.Cluster.nodes cluster);
  (match env_starve with
  | Some i -> S.set_env_fault (splitbft_node cluster i) (Broker.Env_starve Ids.Execution)
  | None -> ());
  (match r.crash_primary_at with
  | Some delay ->
    ignore
      (Engine.schedule (H.Cluster.engine cluster) ~delay ~label:"test:crash" (fun () ->
           H.Cluster.crash_host cluster 0))
  | None -> ());
  let spec =
    { H.Workload.default_spec with
      H.Workload.clients = r.clients;
      warmup_us = 0.0;
      duration_us = r.duration_us;
      ready_quorum = r.ready_quorum }
  in
  let result = H.Workload.run cluster spec in
  (det, result)

let check_row r =
  let det, result = run_row r in
  let alerts = H.Detector.alerts det in
  let allowed = r.allowed @ List.map fst r.required in
  List.iter
    (fun (rule, replica) ->
      let fired =
        if replica < 0 then H.Detector.fired det
        else H.Detector.fired_at det ~replica
      in
      checkb
        (Printf.sprintf "%s: %s fired at %d (got: %s)" r.policy rule replica
           (String.concat ", " (List.map H.Detector.describe alerts)))
        true (List.mem rule fired))
    r.required;
  List.iter
    (fun (a : H.Detector.alert) ->
      checkb
        (Printf.sprintf "%s: %s within the allowance" r.policy (H.Detector.describe a))
        true
        (List.mem a.H.Detector.rule allowed))
    alerts;
  if r.required = [] then begin
    (* exclusion row: containment means silence AND progress *)
    checki (r.policy ^ ": no alerts") 0 (H.Detector.alert_count det);
    checkb (r.policy ^ ": still live") true (result.H.Workload.completed_total > 50)
  end

let coverage_cases =
  List.map
    (fun r ->
      Alcotest.test_case (Printf.sprintf "coverage: %s" r.policy) `Slow (fun () ->
          check_row r))
    matrix

(* Every rule in the catalog is exercised by some matrix row or sweep
   requirement below — a rule nobody can fire is dead weight. *)
let test_catalog_covered () =
  let covered =
    List.concat_map (fun r -> List.map fst r.required) matrix
    @ [ "disagreement"; "quorum-stall" (* required by sweep rows below *);
        "follower-straggler" (* fired by the storage suite's straggler test *) ]
  in
  List.iter
    (fun rule -> checkb (rule ^ " exercised") true (List.mem rule covered))
    H.Detector.rules

(* ----- zero-false-positive sweep over Table 1 ----- *)

(* (required, allowed-beyond-required) per scenario id; every id not
   listed is a tolerated-fault row and must raise NOTHING. *)
let sweep_expectations =
  [ ("pbft/byz-f", ([ "vote-divergence" ], [ "checkpoint-mismatch" ]));
    (* beyond the bound: agreement is actually violated, so health rules
       fire cluster-wide and accusations may land anywhere *)
    ( "pbft/byz-f+1",
      ( [ "equivocation" ],
        [ "premature-commit"; "disagreement"; "prefix-lag"; "checkpoint-mismatch";
          "vote-divergence"; "duplicate-flood"; "retx-storm"; "quorum-stall" ] ) );
    ("minbft/byz-f", ([ "vote-divergence" ], []));
    ( "minbft/faulty-tee",
      ([ "disagreement" ], [ "prefix-lag"; "quorum-stall"; "vote-divergence" ]) );
    ( "splitbft/enclave-f-each-type",
      ( [ "equivocation"; "premature-commit"; "vote-divergence"; "checkpoint-mismatch" ],
        [ "duplicate-flood" ] ) );
    ( "splitbft/exec-f+1-corrupt",
      ([ "vote-divergence" ], [ "checkpoint-mismatch"; "disagreement" ]) );
    ("splitbft/exec-leak", ([ "confidentiality-leak" ], []));
    ("splitbft/env-starve-all", ([ "quorum-stall" ], [ "retx-storm"; "prefix-lag" ])) ]

let check_sweep_row (s : H.Scenarios.scenario) =
  let o = H.Scenarios.run ~detect:true s in
  checkb (s.H.Scenarios.id ^ ": verdict matches Table 1") true
    (H.Scenarios.matches_expectation o);
  (match o.H.Scenarios.check_failure with
  | None -> ()
  | Some reason -> Alcotest.failf "%s: check failed: %s" s.H.Scenarios.id reason);
  let required, extra =
    match List.assoc_opt s.H.Scenarios.id sweep_expectations with
    | Some (r, e) -> (r, e)
    | None -> ([], [])
  in
  let allowed = required @ extra in
  let fired =
    List.sort_uniq compare
      (List.map (fun (a : H.Detector.alert) -> a.H.Detector.rule) o.H.Scenarios.alerts)
  in
  List.iter
    (fun rule ->
      checkb
        (Printf.sprintf "%s: %s detected" s.H.Scenarios.id rule)
        true (List.mem rule fired))
    required;
  List.iter
    (fun (a : H.Detector.alert) ->
      checkb
        (Printf.sprintf "%s: FALSE POSITIVE %s" s.H.Scenarios.id (H.Detector.describe a))
        true
        (List.mem a.H.Detector.rule allowed))
    o.H.Scenarios.alerts;
  (* anomalous rows (and only those) produce a flight artifact for CI *)
  match Sys.getenv_opt "DETECT_ARTIFACT_DIR" with
  | Some dir when H.Scenarios.anomalous o ->
    ignore (H.Scenarios.dump_flight ~dir o)
  | _ -> ()

let sweep_cases =
  List.map
    (fun (s : H.Scenarios.scenario) ->
      Alcotest.test_case (Printf.sprintf "sweep: %s" s.H.Scenarios.id) `Slow (fun () ->
          check_sweep_row s))
    H.Scenarios.all

(* ----- inertness: recording and detecting must not perturb the run ----- *)

(* A flight recorder (plus a listener) is a pure in-memory side effect:
   the metrics registry of a recorded run is byte-for-byte the registry
   of a bare run, and the workload result is identical. *)
let test_flight_recording_is_inert () =
  let run ~with_flight =
    let params =
      { (H.Cluster.default_params Proto_splitbft.protocol) with H.Cluster.seed = 7L }
    in
    let flight = if with_flight then Some (Obs.Flight.create ()) else None in
    let cluster = H.Cluster.create ?flight params in
    (match flight with
    | Some fl -> Obs.Flight.on_event fl (fun (_ : Obs.Flight.event) -> ())
    | None -> ());
    let spec =
      { H.Workload.default_spec with
        H.Workload.clients = 4;
        warmup_us = 20_000.0;
        duration_us = 200_000.0 }
    in
    let r = H.Workload.run cluster spec in
    (Obs.Registry.to_json_string (H.Cluster.obs cluster), r, flight)
  in
  let json_bare, r_bare, _ = run ~with_flight:false in
  let json_rec, r_rec, flight = run ~with_flight:true in
  Alcotest.(check string) "registry byte-identical" json_bare json_rec;
  checki "same completions" r_bare.H.Workload.completed_total r_rec.H.Workload.completed_total;
  match flight with
  | Some fl -> checkb "events were recorded" true (Obs.Flight.recorded fl > 0)
  | None -> assert false

(* Detection is deterministic: the same scenario at the same seed yields
   the same alert sequence. *)
let test_detection_deterministic () =
  let s = Option.get (H.Scenarios.find "splitbft/enclave-f-each-type") in
  let describe o = List.map H.Detector.describe o.H.Scenarios.alerts in
  let a = describe (H.Scenarios.run ~detect:true s) in
  let b = describe (H.Scenarios.run ~detect:true s) in
  Alcotest.(check (list string)) "same alerts" a b

(* ----- flight artifacts ----- *)

let test_flight_dump_roundtrip () =
  (* starve-all: the quorum-stall alert lands late in the run, after the
     cluster has gone quiet, so the bounded ring still holds it at dump
     time (an early alert in a busy run is legitimately evicted) *)
  let s = Option.get (H.Scenarios.find "splitbft/env-starve-all") in
  let o = H.Scenarios.run ~detect:true s in
  checkb "starved row is anomalous" true (H.Scenarios.anomalous o);
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "splitbft-detect-test" in
  match H.Scenarios.dump_flight ~dir o with
  | None -> Alcotest.fail "detect run carried no recorder"
  | Some path ->
    let events = Result.get_ok (Obs.Flight.load path) in
    checkb "artifact holds events" true (events <> []);
    (* the detector's alert is itself on the recording *)
    checkb "alert event recorded" true
      (List.exists (fun (e : Obs.Flight.event) -> e.Obs.Flight.kind = "alert") events);
    Sys.remove path

(* ----- crashed hosts leave no stale gauges ----- *)

let test_crash_resets_gauges () =
  let params =
    { (H.Cluster.default_params Proto_splitbft.protocol) with H.Cluster.seed = 3L }
  in
  let cluster = H.Cluster.create params in
  let clients = H.Cluster.make_clients cluster ~count:6 ~window:2 () in
  List.iter
    (fun c ->
      Splitbft_client.Client.start c ~on_ready:(fun () ->
          for i = 1 to 100 do
            Splitbft_client.Client.submit c
              ~op:(Splitbft_app.Kvs.encode_op (Splitbft_app.Kvs.Put ("k" ^ string_of_int i, "v")))
              ~on_result:(fun ~latency_us:_ ~result:_ -> ())
          done))
    clients;
  (* crash mid-flight, while queues are hot *)
  ignore
    (Engine.schedule (H.Cluster.engine cluster) ~delay:30_000.0 ~label:"test:crash"
       (fun () -> H.Cluster.crash_host cluster 2));
  H.Cluster.run cluster ~until_us:600_000.0;
  let reg = H.Cluster.obs cluster in
  (* the dead incarnation's serial loop and queue gauges must read idle *)
  (match Obs.Registry.read reg ~labels:[ ("resource", "broker2-loop") ] "resource.queue_us" with
  | None -> ()  (* never registered on this deployment *)
  | Some v -> checkb (Printf.sprintf "broker2-loop queue reset on crash (got %g)" v) true (v = 0.0));
  List.iter
    (fun c ->
      match
        Obs.Registry.read reg
          ~labels:[ ("enclave", Printf.sprintf "replica2-%s" (Ids.compartment_name c)) ]
          "tee.pool_backlog_us"
      with
      | None -> ()
      | Some v ->
        checkb (Printf.sprintf "replica2-%s backlog reset (got %g)" (Ids.compartment_name c) v)
          true (v = 0.0))
    Ids.all_compartments

(* premature-commit counts Prepares delivered to the committer, not sent
   to it: with f = 1 a commit needs one delivered wire Prepare, so one
   still in flight must not vouch for it.  The messages are hand-made and
   go straight onto the wire of an idle cluster; the replicas drop them as
   unsigned, the detector sees them on its taps. *)
let test_premature_commit_counts_deliveries () =
  let cluster =
    H.Cluster.create
      { (H.Cluster.default_params Proto_splitbft.protocol) with H.Cluster.seed = 5L }
  in
  let det = H.Detector.attach cluster in
  let net = H.Cluster.network cluster in
  let digest = String.make 32 'd' in
  let send ~src ~dst msg =
    Splitbft_sim.Network.send net ~src:(Addr.replica src) ~dst:(Addr.replica dst)
      (Message.encode msg)
  in
  let prepare seq = Message.Prepare { view = 0; seq; digest; sender = 2; p_sig = "" } in
  let commit seq = Message.Commit { view = 0; seq; digest; sender = 1; c_sig = "" } in
  let premature () = List.mem "premature-commit" (H.Detector.fired_at det ~replica:1) in
  (* seq 900: the Prepare reaches replica 1 before its Commit is sent *)
  send ~src:2 ~dst:1 (prepare 900);
  H.Cluster.run cluster ~until_us:10_000.0;
  send ~src:1 ~dst:0 (commit 900);
  checkb "a delivered Prepare vouches for the commit" false (premature ());
  (* seq 901: the Prepare was sent but is still on the wire *)
  send ~src:2 ~dst:1 (prepare 901);
  send ~src:1 ~dst:0 (commit 901);
  checkb "a Prepare in flight does not" true (premature ())

let suites =
  [ ( "detect",
      [ Alcotest.test_case "rule catalog fully exercised" `Quick test_catalog_covered;
        Alcotest.test_case "flight recording is inert" `Quick test_flight_recording_is_inert;
        Alcotest.test_case "detection is deterministic" `Slow test_detection_deterministic;
        Alcotest.test_case "flight artifact roundtrip" `Slow test_flight_dump_roundtrip;
        Alcotest.test_case "crash leaves no stale gauges" `Quick test_crash_resets_gauges;
        Alcotest.test_case "premature-commit counts deliveries" `Quick
          test_premature_commit_counts_deliveries ]
      @ coverage_cases );
    ("detect.sweep", sweep_cases) ]
