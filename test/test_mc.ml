(* Model checker (lib/mc) tests: the controlled-scheduler engine hooks,
   the safety predicates' edge cases, the adversary vocabulary, schedule
   artifacts, and the checker end-to-end — exhausting a tiny scope,
   containing single byzantine compartments, producing a replayable
   counterexample for an over-powered adversary, and catching a
   deliberately re-introduced view-change bug (mutation self-test). *)

module Engine = Splitbft_sim.Engine
module Safety = Splitbft_harness.Safety
module Adversary = Splitbft_mc.Adversary
module World = Splitbft_mc.World
module Driver = Splitbft_mc.Driver
module Chaos = Splitbft_mc.Chaos
module Schedule = Splitbft_mc.Schedule

let check = Alcotest.check
let zero_budgets = { World.suspect = 0; retry = 0; batch = 0; recovery = 0 }

(* ----- Engine controlled mode ----- *)

let test_engine_controlled () =
  let engine = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule engine ~delay:10.0 ~label:"internal" (fun () ->
         fired := "internal" :: !fired));
  ignore
    (Engine.schedule engine
       ~cls:(Engine.Choice { host = 1; lane = 0 })
       ~fp:"payload" ~delay:5.0 ~label:"choice"
       (fun () -> fired := "choice" :: !fired));
  let live = Engine.live_events engine in
  check Alcotest.int "two live events" 2 (List.length live);
  let internal =
    List.find (fun ev -> Engine.class_of ev = Engine.Internal) live
  in
  let choice = List.find (fun ev -> Engine.class_of ev <> Engine.Internal) live in
  check Alcotest.string "choice fp" "payload" (Engine.fp_of choice);
  (* Forced firing ignores timestamp order (the scheduler, not the clock,
     decides) and never runs time backwards. *)
  Engine.fire_forced engine internal;
  check (Alcotest.float 0.0) "clock at internal's time" 10.0 (Engine.now engine);
  check Alcotest.bool "internal now dead" false (Engine.is_live internal);
  Engine.fire_forced engine choice;
  check (Alcotest.float 0.0) "clock monotone" 10.0 (Engine.now engine);
  check (Alcotest.list Alcotest.string) "both fired, forced order" [ "choice"; "internal" ] !fired;
  check Alcotest.bool "queue drained" true (Engine.live_events engine = []);
  Alcotest.check_raises "double fire rejected"
    (Invalid_argument "Engine.fire_forced choice: dead event") (fun () ->
      Engine.fire_forced engine choice)

(* ----- Safety predicates ----- *)

let agreement_t =
  Alcotest.testable
    (fun ppf a -> Format.pp_print_string ppf (Safety.describe_agreement a))
    ( = )

let test_agreement_edge_cases () =
  (* Empty run: no logs at all, and logs that are all empty. *)
  check agreement_t "no logs" Safety.Agreement (Safety.agreement_of_logs []);
  check agreement_t "all empty" Safety.Agreement
    (Safety.agreement_of_logs ~window:1 [ (0, []); (1, []) ]);
  (* Single honest replica: vacuously in agreement with itself. *)
  check agreement_t "single log" Safety.Agreement
    (Safety.agreement_of_logs ~window:1 [ (2, [ (1L, "a"); (2L, "b") ]) ]);
  (* Conflicting digest at a shared seqno. *)
  check agreement_t "conflict"
    (Safety.Conflict { seq = 2L; a = 0; b = 1 })
    (Safety.agreement_of_logs [ (0, [ (1L, "a"); (2L, "b") ]); (1, [ (1L, "a"); (2L, "X") ]) ]);
  (* Divergent prefix lengths: invisible to the pairwise shared-seqno
     check, flagged once a window is given. *)
  let lopsided = [ (0, [ (1L, "a"); (2L, "b"); (3L, "c"); (4L, "d") ]); (3, [ (1L, "a") ]) ] in
  check agreement_t "lag without window" Safety.Agreement (Safety.agreement_of_logs lopsided);
  check agreement_t "lag beyond window"
    (Safety.Prefix_lag { a = 0; b = 3; high_a = 4L; high_b = 1L; window = 2 })
    (Safety.agreement_of_logs ~window:2 lopsided);
  check agreement_t "lag within window" Safety.Agreement
    (Safety.agreement_of_logs ~window:3 lopsided)

let test_prefix_gap () =
  let opt64 = Alcotest.(option int64) in
  check opt64 "empty log" None (Safety.prefix_gap []);
  check opt64 "contiguous from 1" None (Safety.prefix_gap [ (1L, "a"); (2L, "b") ]);
  (* State transfer resumes past the installed checkpoint: contiguity is
     from the log's first entry, not from seq 1. *)
  check opt64 "contiguous from 5" None (Safety.prefix_gap [ (5L, "a"); (6L, "b"); (7L, "c") ]);
  check opt64 "internal gap" (Some 3L) (Safety.prefix_gap [ (1L, "a"); (2L, "b"); (4L, "d") ]);
  check opt64 "unsorted input ok" None (Safety.prefix_gap [ (2L, "b"); (1L, "a") ])

(* ----- Adversary vocabulary ----- *)

let test_adversary_parse () =
  let round_trip s =
    match Adversary.of_string s with
    | Ok a -> Adversary.to_string a
    | Error e -> Alcotest.failf "%s did not parse: %s" s e
  in
  List.iter
    (fun s -> check Alcotest.string s s (round_trip s))
    [ "equivocate@0"; "corrupt-digest@1"; "promiscuous-commit@2"; "stale-proof@3";
      "corrupt-result@0"; "leak-plaintext@1"; "lie-checkpoint@2"; "drop-outputs:3@1";
      "duplicate-outputs@0"; "reorder-outputs@3" ];
  check Alcotest.bool "unknown policy rejected" true
    (Result.is_error (Adversary.of_string "bribe-the-client@0"));
  check Alcotest.bool "missing replica rejected" true
    (Result.is_error (Adversary.of_string "equivocate"));
  let adv s = Result.get_ok (Adversary.of_string s) in
  check Alcotest.bool "out of range" true
    (Result.is_error (Adversary.validate ~n:4 [ adv "equivocate@4" ]));
  check Alcotest.bool "two policies, same site, same replica" true
    (Result.is_error (Adversary.validate ~n:4 [ adv "equivocate@0"; adv "corrupt-digest@0" ]));
  check Alcotest.bool "different sites on one replica ok" true
    (Result.is_ok (Adversary.validate ~n:4 [ adv "equivocate@0"; adv "corrupt-result@0" ]));
  check Alcotest.int "two sites" 2
    (List.length (Adversary.sites [ adv "equivocate@0"; adv "corrupt-result@0" ]))

(* ----- Schedule artifacts ----- *)

let test_schedule_round_trip () =
  let adv s = Result.get_ok (Adversary.of_string s) in
  let mc =
    Schedule.Mc
      { cfg =
          { World.default_config with
            World.seed = 7L;
            requests = 3;
            adversaries = [ adv "corrupt-result@0"; adv "reorder-outputs@2" ];
            crash = Some (3, true);
            lossy_viewchange = true;
            budgets = World.viewchange_budgets;
            per_host_fifo = true;
            client_window = 1 };
        schedule = [ 0; 2; 1; 0; 5 ];
        detail = "divergence at seq 1 (replicas 0 vs 2)" }
  in
  (match Schedule.of_string (Schedule.to_string mc) with
  | Ok parsed -> check Alcotest.bool "mc round-trips" true (parsed = mc)
  | Error e -> Alcotest.failf "mc artifact did not parse: %s" e);
  let chaos =
    Schedule.Chaos
      { protocol = "pbft";
        plan =
          { Chaos.seed = 99L;
            crash_host = Some 1;
            crash_delay_us = 120_000.0;
            restart = false;
            byz_enclave = Some (2, Splitbft_types.Ids.Execution);
            drop_prob = 0.013 };
        detail = "1 wrong client results accepted" }
  in
  (match Schedule.of_string (Schedule.to_string chaos) with
  | Ok parsed -> check Alcotest.bool "chaos round-trips" true (parsed = chaos)
  | Error e -> Alcotest.failf "chaos artifact did not parse: %s" e);
  check Alcotest.bool "garbage rejected" true (Result.is_error (Schedule.of_string "not a schedule"));
  check Alcotest.bool "empty schedule ok" true
    (match Schedule.of_string (Schedule.to_string (Schedule.Mc { cfg = World.default_config; schedule = []; detail = "" })) with
    | Ok (Schedule.Mc { schedule = []; _ }) -> true
    | _ -> false)

(* ----- World determinism ----- *)

let test_world_deterministic () =
  let cfg = { World.default_config with World.requests = 1; budgets = zero_budgets } in
  let walk () =
    let w = World.create cfg in
    let fps = ref [ World.fingerprint w ] in
    let rec go () =
      match World.enabled w with
      | [] -> ()
      | c :: _ ->
        World.apply w c;
        fps := World.fingerprint w :: !fps;
        go ()
    in
    go ();
    (!fps, World.completed w, World.executed_log w 0)
  in
  let fps1, completed1, log1 = walk () in
  let fps2, completed2, log2 = walk () in
  check Alcotest.bool "identical fingerprint trajectories" true (fps1 = fps2);
  check Alcotest.int "identical completions" completed1 completed2;
  check Alcotest.bool "identical executed log" true (log1 = log2);
  check Alcotest.bool "walk made protocol progress" true (List.length fps1 > 10)

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub text i m) sub || at (i + 1)) in
  at 0

let test_fingerprint_covers_broker_tables () =
  (* A broker answers a retransmission from its reply cache and drops one
     whose request is inflight, so two states that differ only in those
     tables behave differently and must not share a fingerprint.  Walk
     the happy path: the primary's inflight request must show up mid-run,
     and every replica's cached reply at the end. *)
  let cfg = { World.default_config with World.requests = 1; budgets = zero_budgets } in
  let w = World.create cfg in
  let saw_inflight = ref false in
  let rec go () =
    let text = World.state_text w in
    check Alcotest.string "fingerprint digests the state text"
      (Digest.to_hex (Digest.string text))
      (World.fingerprint w);
    if contains text "B0:rc=;in=0:1;" then saw_inflight := true;
    match World.enabled w with
    | [] -> ()
    | c :: _ ->
      World.apply w c;
      go ()
  in
  go ();
  check Alcotest.int "request completed" 1 (World.completed w);
  check Alcotest.bool "primary's inflight key fingerprinted" true !saw_inflight;
  let text = World.state_text w in
  for i = 0 to 3 do
    check Alcotest.bool
      (Printf.sprintf "replica %d's reply-cache key fingerprinted" i)
      true
      (contains text (Printf.sprintf "B%d:rc=0:1;in=;" i))
  done

(* ----- Checker end-to-end ----- *)

let quick_budget = { Driver.max_states = 400; max_depth = 120; max_wall_s = 30.0 }

let no_violation name cfg =
  let r = Driver.run ~budget:quick_budget cfg in
  match r.Driver.outcome with
  | Driver.Violation { detail; _ } -> Alcotest.failf "%s: unexpected violation: %s" name detail
  | Driver.Exhausted | Driver.Budget _ -> ()

let test_no_fault_clean () =
  no_violation "no-fault" { World.default_config with World.requests = 1; budgets = zero_budgets }

let test_small_scope_exhausts () =
  (* At per-host FIFO granularity the 1-request no-fault scope closes
     completely — the checker's "every schedule explored" claim is real,
     not a budget artifact.  (The 2-request closed-loop scope also
     closes, ~30k states; CI runs it via the `exhaust` preset.) *)
  let cfg =
    { World.default_config with
      World.requests = 1;
      budgets = zero_budgets;
      per_host_fifo = true }
  in
  let budget = { Driver.max_states = 10_000; max_depth = 100; max_wall_s = 60.0 } in
  let r = Driver.run ~budget cfg in
  match r.Driver.outcome with
  | Driver.Exhausted ->
    check Alcotest.bool "nontrivial space" true (r.Driver.stats.Driver.visited > 1_000)
  | Driver.Violation { detail; _ } -> Alcotest.failf "unexpected violation: %s" detail
  | Driver.Budget reason -> Alcotest.failf "small scope did not exhaust (%s)" reason

let test_single_compartment_contained () =
  let adv s = Result.get_ok (Adversary.of_string s) in
  List.iter
    (fun policy ->
      no_violation policy
        { World.default_config with
          World.requests = 1;
          adversaries = [ adv policy ];
          budgets = zero_budgets })
    [ "equivocate@0"; "corrupt-digest@0"; "promiscuous-commit@1"; "corrupt-result@2";
      "reorder-outputs@1"; "duplicate-outputs@1" ]

let test_overpowered_counterexample () =
  (* Two corrupt Executions reach the client's f+1 reply quorum with a
     matching wrong result: beyond the fault model, and the checker must
     hand back a schedule that reproduces it. *)
  let adv s = Result.get_ok (Adversary.of_string s) in
  let cfg =
    { World.default_config with
      World.adversaries = [ adv "corrupt-result@0"; adv "corrupt-result@1" ];
      budgets = zero_budgets }
  in
  let r = Driver.run ~budget:{ Driver.max_states = 5_000; max_depth = 150; max_wall_s = 60.0 } cfg in
  match r.Driver.outcome with
  | Driver.Violation { schedule; detail } ->
    check Alcotest.bool "wrong-result violation" true
      (String.length detail > 0
      && Safety.contains_canary detail = false (* sanity: detail is a description *));
    let minimized = Driver.minimize cfg schedule in
    check Alcotest.bool "minimization never grows" true
      (List.length minimized <= List.length schedule);
    (match Driver.replay cfg minimized with
    | `Violation (_, detail') ->
      check Alcotest.bool "replay reproduces a violation" true (String.length detail' > 0)
    | `Clean | `Diverged _ -> Alcotest.fail "minimized counterexample did not replay");
    (* The artifact round-trips through the on-disk format and still
       reproduces — what CI uploads is really replayable. *)
    let text = Schedule.to_string (Schedule.Mc { cfg; schedule = minimized; detail }) in
    (match Schedule.of_string text with
    | Ok (Schedule.Mc { cfg = cfg'; schedule = schedule'; _ }) -> (
      match Driver.replay cfg' schedule' with
      | `Violation _ -> ()
      | `Clean | `Diverged _ -> Alcotest.fail "parsed artifact did not replay")
    | Ok _ | Error _ -> Alcotest.fail "artifact did not parse back")
  | Driver.Exhausted -> Alcotest.fail "overpowered adversary found no violation (exhausted)"
  | Driver.Budget reason -> Alcotest.failf "overpowered adversary found no violation (%s)" reason

(* ----- mc-vs-chaos cross-check ----- *)

let test_chaos_invariants_cross_check () =
  (* The chaos runner evaluates the same invariant set on the same n=4
     config the model checker explores; single-compartment plans must be
     as clean under randomized schedules as under exhaustive ones. *)
  let base =
    { Chaos.seed = 5L;
      crash_host = None;
      crash_delay_us = 50_000.0;
      restart = false;
      byz_enclave = None;
      drop_prob = 0.0 }
  in
  check Alcotest.(option string) "no-fault clean" None (Chaos.run_splitbft base);
  check Alcotest.(option string) "byz preparation contained" None
    (Chaos.run_splitbft { base with Chaos.byz_enclave = Some (0, Splitbft_types.Ids.Preparation) });
  check Alcotest.(option string) "byz execution contained" None
    (Chaos.run_splitbft { base with Chaos.byz_enclave = Some (2, Splitbft_types.Ids.Execution) });
  check Alcotest.(option string) "pbft baseline clean" None (Chaos.run_pbft base);
  check Alcotest.bool "protocol dispatch" true (Result.is_error (Chaos.run ~protocol:"raft" base))

(* ----- Mutation self-test ----- *)

let mutation_budget = { Driver.max_states = 4_000; max_depth = 200; max_wall_s = 120.0 }

let mutation_cfg mutate =
  { World.default_config with
    World.lossy_viewchange = true;
    mutate_viewchange = mutate;
    budgets = World.viewchange_budgets }

let test_mutation_caught () =
  (* Re-introduce the PR-3 bug (prepared certificates dropped at view
     entry) and the DFS must find an agreement violation within budget. *)
  let r = Driver.run ~budget:mutation_budget (mutation_cfg true) in
  match r.Driver.outcome with
  | Driver.Violation { schedule; detail } ->
    check Alcotest.bool "agreement-flavored violation" true (String.length detail > 0);
    (match Driver.replay (mutation_cfg true) schedule with
    | `Violation _ -> ()
    | `Clean | `Diverged _ -> Alcotest.fail "mutation counterexample did not replay")
  | Driver.Exhausted -> Alcotest.fail "mutated view change not caught (exhausted)"
  | Driver.Budget reason -> Alcotest.failf "mutated view change not caught within budget (%s)" reason

let test_mutation_control_clean () =
  (* Same lossy schedule space without the mutation: must stay clean, or
     the self-test would prove nothing. *)
  no_violation "mutation-control" (mutation_cfg false)

let suites =
  [ ( "mc-units",
      [ Alcotest.test_case "engine controlled mode" `Quick test_engine_controlled;
        Alcotest.test_case "agreement edge cases" `Quick test_agreement_edge_cases;
        Alcotest.test_case "ledger prefix gap" `Quick test_prefix_gap;
        Alcotest.test_case "adversary vocabulary" `Quick test_adversary_parse;
        Alcotest.test_case "schedule artifact round-trip" `Quick test_schedule_round_trip ] );
    ( "mc-checker",
      [ Alcotest.test_case "world is schedule-deterministic" `Quick test_world_deterministic;
        Alcotest.test_case "fingerprint covers broker tables" `Quick
          test_fingerprint_covers_broker_tables;
        Alcotest.test_case "no-fault bounded run clean" `Quick test_no_fault_clean;
        Alcotest.test_case "small scope exhausts (per-host granularity)" `Slow
          test_small_scope_exhausts;
        Alcotest.test_case "single byzantine compartment contained" `Slow
          test_single_compartment_contained;
        Alcotest.test_case "overpowered adversary yields replayable counterexample" `Quick
          test_overpowered_counterexample;
        Alcotest.test_case "chaos runner checks mc invariants" `Slow
          test_chaos_invariants_cross_check;
        Alcotest.test_case "mutation: dropped view-change certs caught" `Slow
          test_mutation_caught;
        Alcotest.test_case "mutation control stays clean" `Slow test_mutation_control_clean ] ) ]
