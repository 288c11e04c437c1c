(* Causal tracing: context codec, recorder semantics, ring-buffer trace
   log, end-to-end propagation through real protocol runs, and the
   analyzer's integrity + reconciliation checks. *)

module Tracer = Splitbft_obs.Tracer
module Trace_ctx = Splitbft_obs.Trace_ctx
module Json = Splitbft_obs.Json
module Message = Splitbft_types.Message
module Stats = Splitbft_util.Stats
module Network = Splitbft_sim.Network
module H = Splitbft_harness

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ----- wire context codec ----- *)

let ctx_gen =
  QCheck.Gen.(
    map3
      (fun trace span forced -> { Trace_ctx.trace; span; forced })
      (map Int64.of_int (int_bound max_int))
      (int_bound 0x3fff_ffff)
      bool)

let ctx_arb =
  QCheck.make ctx_gen ~print:(fun c -> Format.asprintf "%a" Trace_ctx.pp c)

let payload_arb = QCheck.string_of_size QCheck.Gen.(int_bound 200)

let prop_ctx_roundtrip =
  QCheck.Test.make ~count:500 ~name:"append/strip roundtrip"
    (QCheck.pair ctx_arb payload_arb)
    (fun (ctx, payload) ->
      let body, got = Trace_ctx.strip (Trace_ctx.append (Some ctx) payload) in
      String.equal body payload && got = Some ctx)

let prop_ctx_legacy =
  QCheck.Test.make ~count:500 ~name:"legacy payloads strip to themselves"
    payload_arb
    (fun payload ->
      (* tails that coincidentally match the magic are resolved one layer
         up, by codec fallback — excluded from this property *)
      let n = String.length payload in
      QCheck.assume
        (n < 2 || not (payload.[n - 2] = '\xc7' && payload.[n - 1] = 'T'));
      let body, got = Trace_ctx.strip payload in
      String.equal body payload && got = None)

let test_append_none_identity () =
  let payload = "hello" in
  checkb "physically the same string" true
    (Trace_ctx.append None payload == payload)

let sample_messages =
  let request =
    { Message.client = 3; timestamp = 7L; payload = "op"; auth = String.make 32 'a' }
  in
  [ Message.Request request;
    Message.Prepare
      { view = 1; seq = 4; digest = String.make 32 'd'; sender = 2;
        p_sig = String.make 64 's' };
    Message.Reply
      { view = 1; timestamp = 7L; client = 3; sender = 0; result = "ok";
        r_auth = String.make 32 'r' } ]

let test_message_traced_roundtrip () =
  let ctx = { Trace_ctx.trace = 0xdeadbeefL; span = 42; forced = true } in
  List.iter
    (fun msg ->
      (* without a context, encode_traced IS encode *)
      checks "byte-identical without ctx" (Message.encode msg)
        (Message.encode_traced msg);
      (match Message.decode_traced (Message.encode msg) with
      | Ok (m, ctx') ->
        checkb "plain decodes" true (m = msg);
        checkb "no ctx on plain" true (ctx' = None)
      | Error e -> Alcotest.failf "plain decode_traced: %s" e);
      let wire = Message.encode_traced ~ctx msg in
      (match Message.decode_traced wire with
      | Ok (m, ctx') ->
        checkb "traced decodes" true (m = msg);
        checkb "ctx recovered" true (ctx' = Some ctx)
      | Error e -> Alcotest.failf "traced decode_traced: %s" e);
      (* pre-tracing decoders must tolerate the trailer *)
      match Message.decode wire with
      | Ok m -> checkb "legacy decode drops trailer" true (m = msg)
      | Error e -> Alcotest.failf "legacy decode of traced wire: %s" e)
    sample_messages

(* A message whose legitimate encoding happens to END with the trailer
   magic: strip false-positives, and decode_traced must recover via the
   exact-parse fallback. *)
let test_magic_collision_fallback () =
  let msg =
    Message.Request
      { client = 1; timestamp = 9L; payload = "x";
        auth = String.make 30 'a' ^ "\xc7\x54" }
  in
  let wire = Message.encode msg in
  let n = String.length wire in
  checkb "test constructs a real collision" true
    (n >= 2 && wire.[n - 2] = '\xc7' && wire.[n - 1] = '\x54');
  let _, misdetected = Trace_ctx.strip wire in
  checkb "strip alone misdetects (documented)" true (misdetected <> None);
  match Message.decode_traced wire with
  | Ok (m, ctx) ->
    checkb "fallback recovers the message" true (m = msg);
    checkb "and reports no context" true (ctx = None)
  | Error e -> Alcotest.failf "collision fallback failed: %s" e

(* ----- recorder semantics ----- *)

let find_span tracer id =
  List.find (fun (s : Tracer.span) -> s.id = id) (Tracer.spans tracer)

let test_finish_idempotent () =
  let tr = Tracer.create () in
  let id =
    Tracer.open_span tr ~trace:1L ~name:"s" ~cat:"c" ~pid:0 ~tid:"t" ~at:10.0 ()
  in
  Tracer.finish tr id ~at:25.0;
  Tracer.finish tr id ~at:99.0;
  let s = find_span tr id in
  Alcotest.(check (float 1e-9)) "first finish wins" 15.0 s.Tracer.dur

let test_set_start_and_args () =
  let tr = Tracer.create () in
  let id =
    Tracer.open_span tr ~trace:1L ~name:"s" ~cat:"c" ~pid:0 ~tid:"t" ~at:50.0 ()
  in
  Tracer.set_start tr id ~at:20.0;
  Tracer.add_arg tr id "k" 1.5;
  Tracer.add_arg tr id "k" 2.5;
  Tracer.finish tr id ~at:60.0;
  let s = find_span tr id in
  Alcotest.(check (float 1e-9)) "back-dated" 20.0 s.Tracer.start;
  Alcotest.(check (float 1e-9)) "duration from new start" 40.0 s.Tracer.dur;
  Alcotest.(check (float 1e-9)) "args accumulate" 4.0
    (List.assoc "k" s.Tracer.args)

let test_capacity_bound () =
  let tr = Tracer.create ~capacity:2 () in
  let a = Tracer.open_span tr ~trace:1L ~name:"a" ~cat:"c" ~pid:0 ~tid:"t" ~at:0.0 () in
  let _b = Tracer.open_span tr ~trace:1L ~name:"b" ~cat:"c" ~pid:0 ~tid:"t" ~at:0.0 () in
  let c = Tracer.open_span tr ~trace:1L ~name:"c" ~cat:"c" ~pid:0 ~tid:"t" ~at:0.0 () in
  checki "over capacity returns -1" (-1) c;
  checki "stored" 2 (Tracer.span_count tr);
  checki "dropped counted" 1 (Tracer.dropped tr);
  (* -1 is inert *)
  Tracer.finish tr c ~at:5.0;
  Tracer.add_arg tr c "k" 1.0;
  Tracer.finish tr a ~at:3.0;
  Alcotest.(check (float 1e-9)) "live spans unaffected" 3.0
    (find_span tr a).Tracer.dur

let test_sampling_and_trace_ids () =
  let tr = Tracer.create ~sample_every:4 () in
  checkb "multiples sampled" true (Tracer.sampled_ts tr 8L);
  checkb "others not" false (Tracer.sampled_ts tr 7L);
  Alcotest.(check int64) "client trace is deterministic"
    (Tracer.client_trace ~client:5 ~ts:9L)
    (Tracer.client_trace ~client:5 ~ts:9L);
  checkb "forced ids tagged" true
    (Int64.logand (Tracer.fresh_forced_trace tr) 0x4000_0000_0000_0000L <> 0L);
  checkb "orphan ids tagged" true
    (Int64.logand (Tracer.fresh_orphan_trace tr) 0x2000_0000_0000_0000L <> 0L)

(* ----- stats reservoir bound ----- *)

let test_stats_reservoir_bounded () =
  let s = Stats.create ~cap:128 () in
  for i = 1 to 10_000 do
    Stats.add s (float_of_int i)
  done;
  checki "count exact past the cap" 10_000 (Stats.count s);
  Alcotest.(check (float 1e-6)) "total exact" 50_005_000.0 (Stats.total s);
  Alcotest.(check (float 1e-6)) "min exact" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-6)) "max exact" 10_000.0 (Stats.max s);
  let p50 = Stats.percentile s 50.0 in
  checkb "median is a plausible reservoir estimate" true
    (p50 >= 1.0 && p50 <= 10_000.0)

(* ----- end-to-end propagation ----- *)

let run_traced ?(sample_every = 1) ?(duration_us = 300_000.0) ?(clients = 3)
    ?(setup = fun (_ : H.Cluster.t) -> ()) protocol =
  let tracer = Tracer.create ~sample_every () in
  let params =
    { (H.Cluster.default_params protocol) with H.Cluster.seed = 11L }
  in
  let cluster = H.Cluster.create ~tracer params in
  setup cluster;
  let spec =
    { H.Workload.default_spec with
      H.Workload.clients;
      warmup_us = 0.0;
      duration_us }
  in
  let result = H.Workload.run cluster spec in
  (tracer, cluster, result)

(* Deterministic outage: drop every client->service message inside the
   window, so each in-flight request at the start of it must retransmit
   (the client retry timeout is 400 ms).  Sessions set up at time 0 are
   unaffected. *)
let client_outage ~from_us ~until_us cluster =
  let module Engine = Splitbft_sim.Engine in
  let net = H.Cluster.network cluster in
  let engine = H.Cluster.engine cluster in
  ignore
    (Engine.schedule engine ~delay:from_us ~label:"test:outage" (fun () ->
         Network.set_filter net
           (Some
              (fun ~src ~dst:_ _ ->
                if src >= 1000 then Network.Drop else Network.Deliver))));
  ignore
    (Engine.schedule engine ~delay:until_us ~label:"test:heal" (fun () ->
         Network.set_filter net None))

let test_splitbft_propagation () =
  let tracer, cluster, result = run_traced Splitbft_proto.Proto_splitbft.protocol in
  checkb "requests completed" true (result.H.Workload.completed_total > 0);
  let report = H.Trace_report.analyze tracer in
  checki "no broken causal trees" 0 report.H.Trace_report.broken_traces;
  checkb "client roots recorded" true (report.H.Trace_report.client_traces > 0);
  let has cat name =
    List.exists
      (fun p ->
        String.equal p.H.Trace_report.cat cat
        && String.equal p.H.Trace_report.name name)
      report.H.Trace_report.phases
  in
  checkb "client root phase" true (has "client" "request");
  checkb "broker rx phase" true (has "broker" "host:rx");
  checkb "broker tx phase" true (has "broker" "host:tx");
  List.iter
    (fun lane ->
      checkb (lane ^ " compartment phase") true (has "enclave" ("ecall:" ^ lane)))
    [ "preparation"; "confirmation"; "execution" ];
  (* full sampling: span-attributed cost must reconcile with the registry *)
  (match H.Trace_report.reconcile report (H.Cluster.obs cluster) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reconciliation: %s" e);
  (* and the export round-trips through the parser as valid Trace Event JSON *)
  match Json.parse (Json.to_string (Tracer.to_json tracer)) with
  | Error e -> Alcotest.failf "export does not re-parse: %s" e
  | Ok doc -> (
    match H.Trace_report.validate doc with
    | Ok () -> ()
    | Error e -> Alcotest.failf "export invalid: %s" e)

let test_pipelined_pool_propagation () =
  (* lanes>1 + exec_workers>1 is the configuration that produces orphan
     ecall spans: lane-sharded checkpoint and pool ecalls run outside any
     client request, so they land under fresh orphan roots.  The analyzer
     must keep every client tree intact anyway — an orphan is a labelled
     root, never a dangling parent edge — and reconciliation must still
     account for the orphan-attributed ecall time. *)
  let tracer, cluster, result =
    run_traced ~duration_us:500_000.0 ~clients:6
      (Splitbft_proto.Proto_splitbft.make ~lanes:4 ~exec_workers:4 ())
  in
  checkb "requests completed" true (result.H.Workload.completed_total > 0);
  let report = H.Trace_report.analyze tracer in
  checkb "pipelining produced orphan ecall spans" true
    (report.H.Trace_report.orphan_traces > 0);
  checki "client trees stay intact despite orphans" 0
    report.H.Trace_report.broken_traces;
  checkb "client roots still recorded" true (report.H.Trace_report.client_traces > 0);
  (* execution ecalls still attribute to client trees, not only orphans *)
  checkb "execution ecalls present" true
    (List.exists
       (fun p ->
         String.equal p.H.Trace_report.cat "enclave"
         && String.equal p.H.Trace_report.name "ecall:execution")
       report.H.Trace_report.phases);
  (* full byte reconciliation is NOT asserted here: pool-run ecalls count
     their copies in the registry but execute outside the issuing span, so
     span-attributed bytes undercount under exec_workers>1.  The export must
     still be a valid trace document. *)
  ignore cluster;
  match Json.parse (Json.to_string (Tracer.to_json tracer)) with
  | Error e -> Alcotest.failf "export does not re-parse: %s" e
  | Ok doc -> (
    match H.Trace_report.validate doc with
    | Ok () -> ()
    | Error e -> Alcotest.failf "export invalid: %s" e)

let test_viewchange_trace () =
  (* crash the PBFT primary: the suspect timers must produce forced roots
     and the view-change messages must ride those traces *)
  let tracer = Tracer.create () in
  let s =
    match H.Scenarios.find "pbft/crash-primary" with
    | Some s -> s
    | None -> Alcotest.fail "scenario missing"
  in
  let o = H.Scenarios.run ~seed:42L ~tracer s in
  checkb "scenario still matches the paper" true (H.Scenarios.matches_expectation o);
  let report = H.Trace_report.analyze tracer in
  checkb "forced roots from suspect timers" true
    (report.H.Trace_report.forced_traces > 0);
  checki "view change kept trees intact" 0 report.H.Trace_report.broken_traces;
  checkb "viewchange handling was traced" true
    (List.exists
       (fun p -> String.equal p.H.Trace_report.name "pbft:viewchange")
       report.H.Trace_report.phases)

let test_recovery_trace () =
  let tracer = Tracer.create () in
  let s =
    match H.Scenarios.find "splitbft/crash-recover" with
    | Some s -> s
    | None -> Alcotest.fail "scenario missing"
  in
  let o = H.Scenarios.run ~seed:42L ~tracer s in
  checkb "scenario still matches the paper" true (H.Scenarios.matches_expectation o);
  let report = H.Trace_report.analyze tracer in
  checki "recovery kept trees intact" 0 report.H.Trace_report.broken_traces;
  let recovery =
    List.find_opt
      (fun p -> String.equal p.H.Trace_report.cat "broker.recovery")
      report.H.Trace_report.phases
  in
  match recovery with
  | None -> Alcotest.fail "no recovery root span"
  | Some p ->
    checkb "recovery root measures the recovery" true (p.H.Trace_report.total_dur_us > 0.0);
    (match H.Trace_report.reconcile report (H.Cluster.obs o.H.Scenarios.cluster) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "reconciliation after recovery: %s" e)

let test_retransmit_joins_trace () =
  (* outage-forced retransmissions must reuse the original trace (same
     deterministic id), never fork a second root *)
  let tracer, _cluster, result =
    run_traced ~duration_us:1_500_000.0
      ~setup:(client_outage ~from_us:200_000.0 ~until_us:500_000.0)
      Splitbft_proto.Proto_splitbft.protocol
  in
  checkb "requests completed despite the outage" true
    (result.H.Workload.completed_total > 0);
  let report = H.Trace_report.analyze tracer in
  checki "no broken causal trees" 0 report.H.Trace_report.broken_traces;
  let roots =
    List.filter
      (fun (s : Tracer.span) -> String.equal s.Tracer.cat "client")
      (Tracer.spans tracer)
  in
  checki "exactly one root per client trace"
    report.H.Trace_report.client_traces (List.length roots);
  checkb "some request actually retransmitted" true
    (List.exists
       (fun (s : Tracer.span) ->
         match List.assoc_opt "retransmits" s.Tracer.args with
         | Some r -> r > 0.0
         | None -> false)
       roots)

let test_slow_request_promoted () =
  (* head sampling off (huge N): only retransmitted-slow requests get
     (forced) roots, so any client trace present proves promotion *)
  let tracer, _cluster, result =
    run_traced ~sample_every:1_000_000 ~duration_us:1_500_000.0
      ~setup:(client_outage ~from_us:200_000.0 ~until_us:500_000.0)
      Splitbft_proto.Proto_splitbft.protocol
  in
  checkb "requests completed despite the outage" true
    (result.H.Workload.completed_total > 0);
  let report = H.Trace_report.analyze tracer in
  checkb "slow requests were promoted into traces" true
    (report.H.Trace_report.client_traces > 0);
  checki "promoted trees are intact" 0 report.H.Trace_report.broken_traces;
  let roots =
    List.filter
      (fun (s : Tracer.span) -> String.equal s.Tracer.cat "client")
      (Tracer.spans tracer)
  in
  checkb "every promoted root saw a retransmit" true
    (List.for_all
       (fun (s : Tracer.span) ->
         match List.assoc_opt "retransmits" s.Tracer.args with
         | Some r -> r > 0.0
         | None -> s.Tracer.dur < 0.0 (* still in flight at end of run *))
       roots)

let test_tracing_off_costs_nothing () =
  (* a tracer that samples nothing must leave the simulation byte-identical
     to a run with no tracer at all: no spans, no wire trailers, identical
     registry snapshot.  (A sampling tracer legitimately differs — trailers
     add wire bytes.) *)
  let snapshot tracer =
    let params =
      { (H.Cluster.default_params Splitbft_proto.Proto_splitbft.protocol) with H.Cluster.seed = 5L }
    in
    let cluster = H.Cluster.create ?tracer params in
    let spec =
      { H.Workload.default_spec with
        H.Workload.clients = 2;
        warmup_us = 0.0;
        duration_us = 200_000.0 }
    in
    ignore (H.Workload.run cluster spec);
    Splitbft_obs.Registry.to_json_string (H.Cluster.obs cluster)
  in
  let plain = snapshot None in
  let idle = Tracer.create ~sample_every:1_000_000 ~record_orphans:false () in
  let sampled_off = snapshot (Some idle) in
  checks "virtual-time behaviour is identical" plain sampled_off;
  checki "and nothing was recorded" 0 (Tracer.span_count idle)

(* ----- analyzer validation on crafted documents ----- *)

let test_validate_rejects_defects () =
  let doc events spans =
    Json.Obj
      [ ("traceEvents", Json.List events);
        ("otherData",
         Json.Obj [ ("schema", Json.Str "splitbft.trace/v1"); ("spans", Json.Int spans) ]) ]
  in
  let x ?parent ~id ~ts () =
    Json.Obj
      [ ("ph", Json.Str "X"); ("name", Json.Str "s"); ("cat", Json.Str "c");
        ("pid", Json.Int 0); ("tid", Json.Int 1); ("ts", Json.Float ts);
        ("dur", Json.Float 1.0);
        ("args",
         Json.Obj
           ([ ("trace", Json.Str "0000000000000001"); ("id", Json.Int id) ]
           @ match parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])) ]
  in
  let ok = doc [ x ~id:0 ~ts:10.0 (); x ~parent:0 ~id:1 ~ts:12.0 () ] 2 in
  (match H.Trace_report.validate ok with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed doc rejected: %s" e);
  let missing_parent = doc [ x ~parent:9 ~id:1 ~ts:12.0 () ] 1 in
  checkb "missing parent rejected" true
    (Result.is_error (H.Trace_report.validate missing_parent));
  let time_travel = doc [ x ~id:0 ~ts:10.0 (); x ~parent:0 ~id:1 ~ts:5.0 () ] 2 in
  checkb "child before parent rejected" true
    (Result.is_error (H.Trace_report.validate time_travel));
  let bad_count = doc [ x ~id:0 ~ts:10.0 () ] 7 in
  checkb "span-count mismatch rejected" true
    (Result.is_error (H.Trace_report.validate bad_count));
  checkb "unschema'd doc rejected" true
    (Result.is_error
       (H.Trace_report.validate (Json.Obj [ ("traceEvents", Json.List []) ])))

let suites =
  [ ( "trace.ctx",
      [ QCheck_alcotest.to_alcotest prop_ctx_roundtrip;
        QCheck_alcotest.to_alcotest prop_ctx_legacy;
        Alcotest.test_case "append None is identity" `Quick test_append_none_identity;
        Alcotest.test_case "message traced roundtrip" `Quick test_message_traced_roundtrip;
        Alcotest.test_case "magic collision fallback" `Quick test_magic_collision_fallback ] );
    ( "trace.recorder",
      [ Alcotest.test_case "finish is idempotent" `Quick test_finish_idempotent;
        Alcotest.test_case "set_start and arg accumulation" `Quick test_set_start_and_args;
        Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
        Alcotest.test_case "sampling and trace ids" `Quick test_sampling_and_trace_ids ] );
    ( "trace.stats",
      [ Alcotest.test_case "reservoir stays bounded" `Quick test_stats_reservoir_bounded ] );
    ( "trace.e2e",
      [ Alcotest.test_case "splitbft propagation + reconciliation" `Quick
          test_splitbft_propagation;
        Alcotest.test_case "pipelined lanes + worker pool keep trees intact" `Quick
          test_pipelined_pool_propagation;
        Alcotest.test_case "view change produces forced traces" `Quick test_viewchange_trace;
        Alcotest.test_case "crash recovery is traced" `Quick test_recovery_trace;
        Alcotest.test_case "retransmissions join the original trace" `Quick
          test_retransmit_joins_trace;
        Alcotest.test_case "slow requests promoted at retransmit" `Quick
          test_slow_request_promoted;
        Alcotest.test_case "tracing off perturbs nothing" `Quick
          test_tracing_off_costs_nothing ] );
    ( "trace.analyzer",
      [ Alcotest.test_case "validator rejects defects" `Quick test_validate_rejects_defects ] ) ]
