module H = Splitbft_harness
module Cluster = H.Cluster
module Proto = Splitbft_proto
module Workload = H.Workload
module Safety = H.Safety
module Scenarios = H.Scenarios
module Experiments = H.Experiments
module Table = H.Table

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_cluster_protocol_dispatch () =
  List.iter
    (fun (name, protocol) ->
      let c = Cluster.create { (Cluster.default_params protocol) with Cluster.seed = 3L } in
      checki (name ^ " replica count")
        (if name = "minbft" then 3 else 4)
        (List.length (Cluster.nodes c));
      checki (name ^ " f") 1 (Cluster.f c);
      Alcotest.(check string) "protocol name" name (Cluster.protocol_name c))
    Proto.Catalog.builtins

let test_workload_fault_free () =
  let c = Cluster.create { (Cluster.default_params Proto.Proto_pbft.protocol) with Cluster.seed = 3L } in
  let scanner = Safety.install_scanner c in
  let r =
    Workload.run c
      { Workload.default_spec with
        Workload.clients = 2;
        warmup_us = 0.0;
        duration_us = 400_000.0 }
  in
  checkb "throughput positive" true (r.Workload.throughput_ops > 0.0);
  checki "no wrong results" 0 r.Workload.wrong_results;
  checki "clients ready" 2 r.Workload.clients_ready;
  let v =
    Safety.verdict c ~honest:[ 0; 1; 2; 3 ] ~scanner ~workload:r ~min_completed:10
  in
  checkb "live" true v.Safety.live;
  checkb "safe" true v.Safety.safe;
  (* PBFT sends plaintext: the canary scanner must fire. *)
  checkb "plaintext visible" false v.Safety.confidential

let test_splitbft_workload_confidential () =
  let c =
    Cluster.create { (Cluster.default_params Proto.Proto_splitbft.protocol) with Cluster.seed = 3L }
  in
  let scanner = Safety.install_scanner c in
  let r =
    Workload.run c
      { Workload.default_spec with
        Workload.clients = 2;
        warmup_us = 0.0;
        duration_us = 400_000.0 }
  in
  let v = Safety.verdict c ~honest:[ 0; 1; 2; 3 ] ~scanner ~workload:r ~min_completed:10 in
  checkb "live" true v.Safety.live;
  checkb "safe" true v.Safety.safe;
  checkb "confidential" true v.Safety.confidential

let test_agreement_detects_divergence () =
  (* The pbft/byz-f+1 scenario must produce a Conflict via the checker. *)
  let s = Option.get (Scenarios.find "pbft/byz-f+1") in
  let o = Scenarios.run ~seed:42L s in
  checkb "scenario flags violation" false o.Scenarios.verdict.Safety.safe;
  checkb "expectation matched" true (Scenarios.matches_expectation o)

let test_scenario_fault_free_splitbft () =
  let s = Option.get (Scenarios.find "splitbft/fault-free") in
  let o = Scenarios.run ~seed:42L s in
  checkb "matches" true (Scenarios.matches_expectation o);
  checkb "live" true o.Scenarios.verdict.Safety.live;
  checkb "confidential" true o.Scenarios.verdict.Safety.confidential

let test_scenario_faulty_tee () =
  let s = Option.get (Scenarios.find "minbft/faulty-tee") in
  let o = Scenarios.run ~seed:42L s in
  checkb "matches" true (Scenarios.matches_expectation o);
  checkb "unsafe" false o.Scenarios.verdict.Safety.safe

let test_scenario_crash_recover () =
  let s = Option.get (Scenarios.find "splitbft/crash-recover") in
  let o = Scenarios.run ~seed:42L s in
  checkb "matches" true (Scenarios.matches_expectation o);
  Alcotest.(check (option string)) "recovery check passes" None o.Scenarios.check_failure

let test_scenario_rollback_refused () =
  let s = Option.get (Scenarios.find "splitbft/rollback-attack") in
  let o = Scenarios.run ~seed:42L s in
  checkb "matches" true (Scenarios.matches_expectation o);
  Alcotest.(check (option string)) "refusal check passes" None o.Scenarios.check_failure

let test_rollback_tamper_refused_direct () =
  (* Seal checkpoints under load, crash, reset the monotonic counter, and
     restart: recovery must refuse the (now unbindable) sealed state and
     stay down, loudly. *)
  let c =
    Cluster.create
      { (Cluster.default_params Proto.Proto_splitbft.protocol) with
        Cluster.seed = 11L;
        checkpoint_interval = 8 }
  in
  ignore
    (Workload.run c
       { Workload.default_spec with
         Workload.clients = 2;
         warmup_us = 0.0;
         duration_us = 500_000.0 });
  Cluster.crash_host c 3;
  Cluster.tamper_checkpoint_counter c 3;
  Cluster.restart_host c 3;
  let e = Cluster.engine c in
  Cluster.run c ~until_us:(Splitbft_sim.Engine.now e +. 400_000.0);
  let n3 = Cluster.node c 3 in
  checkb "restart refused" false (Cluster.recovered_of n3);
  checkb "alert raised" true (Cluster.recovery_alerts_of n3 <> [])

let test_partition_then_heal () =
  (* Isolate replica 3; the 3-replica majority keeps committing; after the
     heal replica 3 catches back up to the quorum's history. *)
  let module Addr = Splitbft_types.Addr in
  let module Engine = Splitbft_sim.Engine in
  let module Network = Splitbft_sim.Network in
  let c =
    Cluster.create { (Cluster.default_params Proto.Proto_splitbft.protocol) with Cluster.seed = 7L }
  in
  let e = Cluster.engine c in
  let net = Cluster.network c in
  let at_heal = ref 0L in
  ignore
    (Engine.schedule e ~delay:200_000.0 ~label:"test:partition" (fun () ->
         Network.partition net [ [ Addr.replica 3 ] ]));
  ignore
    (Engine.schedule e ~delay:700_000.0 ~label:"test:heal" (fun () ->
         at_heal := Cluster.last_executed_of (Cluster.node c 3);
         Network.heal net));
  let scanner = Safety.install_scanner c in
  let r =
    Workload.run c
      { Workload.default_spec with
        Workload.clients = 4;
        warmup_us = 0.0;
        duration_us = 1_500_000.0 }
  in
  let v = Safety.verdict c ~honest:[ 0; 1; 2; 3 ] ~scanner ~workload:r ~min_completed:20 in
  checkb "live through partition" true v.Safety.live;
  checkb "safe" true v.Safety.safe;
  let n3 = Cluster.last_executed_of (Cluster.node c 3) in
  checkb "replica 3 progressed after heal" true (Int64.compare n3 !at_heal > 0);
  (* ... and is within one checkpoint window of the quorum. *)
  let n0 = Cluster.last_executed_of (Cluster.node c 0) in
  checkb "replica 3 caught up" true (Int64.compare (Int64.sub n0 n3) 64L <= 0)

let test_scenario_ids_unique () =
  let ids = List.map (fun s -> s.Scenarios.id) Scenarios.all in
  checki "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_table2_counts () =
  let rows = Experiments.table2 () in
  checki "five components" 5 (List.length rows);
  List.iter
    (fun r ->
      checkb (r.Experiments.component ^ " nonempty") true (r.Experiments.total_loc > 0);
      checki
        (r.Experiments.component ^ " total = shared + logic")
        r.Experiments.total_loc
        (r.Experiments.shared_loc + r.Experiments.logic_loc))
    rows;
  (* The trusted counter must be tiny relative to the compartments, as in
     the paper. *)
  let find name = List.find (fun r -> r.Experiments.component = name) rows in
  checkb "counter << compartments" true
    ((find "Trusted Counter").Experiments.total_loc
    < (find "Preparation Enc.").Experiments.total_loc / 5)

(* A paper claim (§6, Figure 3a): unbatched SplitBFT-KVS throughput does
   not fall as clients are added.  Two short closed-loop runs; 40 clients
   must reach 95% of the throughput of 10. *)
let test_claim_unbatched_kvs_scales () =
  let throughput clients =
    let params = Cluster.default_params Proto.Proto_splitbft.protocol in
    let c = Cluster.create { params with Cluster.seed = 21L } in
    let spec =
      { Workload.default_spec with
        Workload.clients;
        warmup_us = 200_000.0;
        duration_us = 300_000.0 }
    in
    (Workload.run c spec).Workload.throughput_ops
  in
  let t10 = throughput 10 and t40 = throughput 40 in
  checkb
    (Printf.sprintf "40 clients: %.0f ops/s >= 0.95 x %.0f ops/s at 10 clients" t40 t10)
    true
    (t40 >= 0.95 *. t10)

(* Table 2 as a gate: the paper measures its compartments by trusted-code
   size, so no row may grow past the line count it had when the ceiling
   was last set.  Lower a ceiling when a change shrinks its row; raise one
   only for a change that says why it needs the extra trusted code. *)
let table2_ceilings =
  [ ("Preparation Enc.", 2145);
    ("Confirmation Enc.", 1915);
    ("Execution Enc.", 3052);
    ("Untrusted Env.", 1180);
    ("Trusted Counter", 58) ]

let test_table2_ceilings () =
  let rows = Experiments.table2 () in
  checki "one ceiling per row" (List.length rows) (List.length table2_ceilings);
  List.iter
    (fun (component, ceiling) ->
      match List.find_opt (fun r -> r.Experiments.component = component) rows with
      | None -> Alcotest.failf "Table 2 has no %s row" component
      | Some r ->
        checkb
          (Printf.sprintf "%s: %d lines <= %d" component r.Experiments.total_loc ceiling)
          true
          (r.Experiments.total_loc <= ceiling))
    table2_ceilings

(* DESIGN.md §4 indexes the paper artifacts by their bench command: the
   index must name every artifact [bench] can run. *)
let test_design_index () =
  let path =
    List.find Sys.file_exists [ "DESIGN.md"; "../DESIGN.md"; "../../DESIGN.md" ]
  in
  let doc = In_channel.with_open_bin path In_channel.input_all in
  let find sub from =
    let n = String.length doc and m = String.length sub in
    let rec at i =
      if i + m > n then n else if String.equal (String.sub doc i m) sub then i else at (i + 1)
    in
    at from
  in
  let first = find "## 4. " 0 in
  let last = find "\n## " (first + 1) in
  List.iter
    (fun (name, _) ->
      let entry = Printf.sprintf "`bench %s`" name in
      checkb (entry ^ " in DESIGN.md §4") true (find entry first < last))
    Experiments.artifacts

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ] in
  checkb "has rule" true (String.length s > 0 && String.contains s '-');
  Alcotest.(check string) "formats" "a    bb\n---  --\n1    2 \n333  4 " s

let test_formatting_helpers () =
  Alcotest.(check string) "us small" "500us" (Table.us 500.0);
  Alcotest.(check string) "us large" "12.0ms" (Table.us 12_000.0);
  Alcotest.(check string) "ops small" "500" (Table.ops 500.0);
  Alcotest.(check string) "ops large" "25.0k" (Table.ops 25_000.0);
  Alcotest.(check string) "pct" "64%" (Table.pct 0.64)

let suites =
  [ ( "harness",
      [ Alcotest.test_case "cluster dispatch" `Quick test_cluster_protocol_dispatch;
        Alcotest.test_case "pbft workload + verdict" `Quick test_workload_fault_free;
        Alcotest.test_case "splitbft confidential" `Quick test_splitbft_workload_confidential;
        Alcotest.test_case "divergence detected" `Slow test_agreement_detects_divergence;
        Alcotest.test_case "scenario splitbft ok" `Slow test_scenario_fault_free_splitbft;
        Alcotest.test_case "scenario faulty tee" `Slow test_scenario_faulty_tee;
        Alcotest.test_case "scenario crash-recover" `Slow test_scenario_crash_recover;
        Alcotest.test_case "scenario rollback refused" `Slow test_scenario_rollback_refused;
        Alcotest.test_case "tampered counter refused" `Slow test_rollback_tamper_refused_direct;
        Alcotest.test_case "partition then heal" `Slow test_partition_then_heal;
        Alcotest.test_case "scenario ids unique" `Quick test_scenario_ids_unique;
        Alcotest.test_case "table2 counts" `Quick test_table2_counts;
        Alcotest.test_case "table2 ceilings" `Quick test_table2_ceilings;
        Alcotest.test_case "claim: unbatched kvs throughput holds as clients grow" `Quick
          test_claim_unbatched_kvs_scales;
        Alcotest.test_case "design index lists every artifact" `Quick test_design_index;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "format helpers" `Quick test_formatting_helpers ] ) ]
