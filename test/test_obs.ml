module Registry = Splitbft_obs.Registry
module Json = Splitbft_obs.Json
module Engine = Splitbft_sim.Engine
module H = Splitbft_harness

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* ----- counters / gauges / histograms ----- *)

let test_counter_basics () =
  let r = Registry.create () in
  let c = Registry.counter r "c" in
  checkf "starts at zero" 0.0 (Registry.counter_value c);
  Registry.incr c;
  Registry.add c 4;
  Registry.add_f c 0.5;
  checkf "accumulates" 5.5 (Registry.counter_value c);
  let c' = Registry.counter r "c" in
  Registry.incr c';
  checkf "same name is the same cell" 6.5 (Registry.counter_value c)

let test_labels_identity () =
  let r = Registry.create () in
  let a = Registry.counter r ~labels:[ ("x", "1"); ("y", "2") ] "c" in
  let b = Registry.counter r ~labels:[ ("y", "2"); ("x", "1") ] "c" in
  let other = Registry.counter r ~labels:[ ("x", "9") ] "c" in
  Registry.incr a;
  checkf "label order does not matter" 1.0 (Registry.counter_value b);
  checkf "different labels, different cell" 0.0 (Registry.counter_value other)

let test_kind_clash_rejected () =
  let r = Registry.create () in
  ignore (Registry.counter r "m");
  Alcotest.check_raises "counter vs gauge clash"
    (Invalid_argument "Registry: m already registered as a counter")
    (fun () -> ignore (Registry.gauge r "m"))

let test_gauge_last_write_wins () =
  let r = Registry.create () in
  let g = Registry.gauge r "g" in
  Registry.set g 3.0;
  Registry.set g 7.5;
  checkf "last write" 7.5 (Registry.gauge_value g)

let test_histogram_buckets () =
  let r = Registry.create () in
  let h = Registry.histogram r ~buckets:[ 1.0; 10.0; 100.0 ] "h" in
  List.iter (Registry.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  checki "count" 4 (Registry.histogram_count h);
  checkf "sum" 555.5 (Registry.histogram_sum h);
  (* Bucket counts only appear in the snapshot; one observation landed in
     each of le=1, le=10, le=100 and the implicit +inf bucket. *)
  match Json.member "metrics" (Registry.to_json r) with
  | Some (Json.List [ m ]) ->
    (match Json.member "buckets" m with
    | Some (Json.List buckets) ->
      checki "bucket slots" 4 (List.length buckets);
      List.iter
        (fun b ->
          match Json.member "count" b with
          | Some (Json.Int n) -> checki "one observation per bucket" 1 n
          | _ -> Alcotest.fail "bucket without count")
        buckets
    | _ -> Alcotest.fail "histogram snapshot has no buckets")
  | _ -> Alcotest.fail "expected exactly one metric"

let test_sum_and_read () =
  let r = Registry.create () in
  Registry.add (Registry.counter r ~labels:[ ("i", "0") ] "tee.ecalls") 3;
  Registry.add (Registry.counter r ~labels:[ ("i", "1") ] "tee.ecalls") 4;
  Registry.incr (Registry.counter r "tee.ecalls_aborted");
  checkf "prefix sums every match" 8.0 (Registry.sum r ~prefix:"tee.ecalls");
  checkf "narrower prefix" 8.0 (Registry.sum r ~prefix:"tee.");
  checkf "no match" 0.0 (Registry.sum r ~prefix:"net.");
  (match Registry.read r ~labels:[ ("i", "1") ] "tee.ecalls" with
  | Some v -> checkf "read one" 4.0 v
  | None -> Alcotest.fail "read missed");
  checkb "read miss" true (Registry.read r "nope" = None)

(* ----- JSON ----- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\n\t\x01é");
        ("i", Json.Int (-42));
        ("f", Json.Float 3.25);
        ("tiny", Json.Float 1.2345678901234e-7);
        ("nan", Json.Float Float.nan);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]) ]
  in
  let s = Json.to_string doc in
  match Json.parse s with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok doc' ->
    (* nan encodes as null, so compare against the expectation. *)
    let expected =
      Json.Obj
        [ ("s", Json.Str "a\"b\\c\n\t\x01é");
          ("i", Json.Int (-42));
          ("f", Json.Float 3.25);
          ("tiny", Json.Float 1.2345678901234e-7);
          ("nan", Json.Null);
          ("b", Json.Bool true);
          ("n", Json.Null);
          ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]) ]
    in
    checkb "round-trips" true (Json.equal doc' expected)

let test_json_parse_errors () =
  List.iter
    (fun s -> checkb ("rejects " ^ s) true (Result.is_error (Json.parse s)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"\\x\""; "nul" ]

let test_registry_snapshot_roundtrip () =
  let r = Registry.create () in
  Registry.add (Registry.counter r ~labels:[ ("replica", "0") ] "tee.ecalls") 17;
  Registry.set (Registry.gauge r "g") 2.5;
  Registry.observe (Registry.histogram r ~buckets:[ 10.0 ] "h") 3.0;
  Splitbft_util.Stats.add (Registry.summary r "lat") 5.0;
  let s = Registry.to_json_string r in
  match Json.parse s with
  | Error e -> Alcotest.fail ("snapshot reparse failed: " ^ e)
  | Ok doc ->
    checkb "snapshot self-equal" true (Json.equal doc (Registry.to_json r));
    (match Json.member "schema" doc with
    | Some (Json.Str schema) -> checks "schema tag" "splitbft.metrics/v1" schema
    | _ -> Alcotest.fail "missing schema");
    (match Json.member "metrics" doc with
    | Some (Json.List ms) -> checki "four metrics" 4 (List.length ms)
    | _ -> Alcotest.fail "missing metrics")

(* ----- end-to-end: a cluster run populates the registry ----- *)

let test_cluster_run_populates_metrics () =
  let params =
    { (H.Cluster.default_params Splitbft_proto.Proto_splitbft.protocol) with H.Cluster.seed = 5L }
  in
  let cluster = H.Cluster.create params in
  let spec =
    { H.Workload.default_spec with
      H.Workload.clients = 2;
      warmup_us = 20_000.0;
      duration_us = 100_000.0 }
  in
  let res = H.Workload.run cluster spec in
  checkb "work happened" true (res.H.Workload.completed_total > 0);
  let reg = H.Cluster.obs cluster in
  let pos name = Registry.sum reg ~prefix:name > 0.0 in
  checkb "enclave transitions counted" true (pos "tee.ecalls");
  checkb "copied bytes counted" true (pos "tee.copy_bytes");
  checkb "network bytes counted" true (pos "net.bytes_sent");
  checkb "per-link traffic counted" true (pos "net.link.bytes");
  checkb "broker batches counted" true (pos "broker.batches");
  checkb "broker ecalls counted" true (pos "broker.ecalls");
  checkb "resource busy time counted" true (pos "resource.busy_us");
  (* Each replica's preparation enclave reports under its own label. *)
  List.iteri
    (fun i _ ->
      match
        Registry.read reg
          ~labels:[ ("enclave", Printf.sprintf "replica%d-preparation" i) ]
          "tee.ecalls"
      with
      | Some v -> checkb (Printf.sprintf "replica %d transitions" i) true (v > 0.0)
      | None -> Alcotest.fail (Printf.sprintf "replica %d has no tee.ecalls" i))
    (H.Cluster.nodes cluster);
  (* The latency summary snapshot carries interpolated percentiles. *)
  match Json.member "metrics" (Registry.to_json reg) with
  | Some (Json.List ms) ->
    let is_latency m =
      match Json.member "name" m with
      | Some (Json.Str "workload.latency_us") -> true
      | _ -> false
    in
    (match List.find_opt is_latency ms with
    | None -> Alcotest.fail "no workload.latency_us summary in snapshot"
    | Some m ->
      let field k =
        match Json.member k m with
        | Some (Json.Float v) -> v
        | Some (Json.Int v) -> float_of_int v
        | _ -> Alcotest.failf "latency summary lacks %s" k
      in
      checkb "p50 <= p99" true (field "p50" <= field "p99");
      checkb "count positive" true (field "count" > 0.0))
  | _ -> Alcotest.fail "snapshot has no metrics list"

(* ----- flight recorder ----- *)

module Flight = Splitbft_obs.Flight

let test_flight_ring_and_roundtrip () =
  let fl = Flight.create ~capacity:4 () in
  let heard = ref 0 in
  Flight.on_event fl (fun (_ : Flight.event) -> incr heard);
  for i = 1 to 7 do
    Flight.record fl ~at:(float_of_int i) ~host:(i mod 3) ~kind:"ecall"
      ~detail:(Printf.sprintf "op %d\nwith newline" i)
  done;
  checki "listener saw every record" 7 !heard;
  checki "ring keeps the newest capacity" 4 (List.length (Flight.events fl));
  checki "recorded counts evictions" 7 (Flight.recorded fl);
  checki "dropped = recorded - retained" 3 (Flight.dropped fl);
  (match Flight.events fl with
  | first :: _ -> checkf "oldest retained is #4" 4.0 first.Flight.at
  | [] -> Alcotest.fail "empty ring");
  (* artifact round-trip, newline-flattened details included *)
  let dump = Flight.to_string fl in
  checkb "artifact carries the header" true
    (String.length dump >= String.length Flight.header
    && String.sub dump 0 (String.length Flight.header) = Flight.header);
  (match Flight.of_string dump with
  | Error e -> Alcotest.fail e
  | Ok events ->
    checki "parses every retained event" 4 (List.length events);
    List.iter2
      (fun (a : Flight.event) (b : Flight.event) ->
        checkf "at survives" a.Flight.at b.Flight.at;
        checki "host survives" a.Flight.host b.Flight.host;
        checks "kind survives" a.Flight.kind b.Flight.kind;
        checkb "detail is newline-free" true
          (not (String.contains b.Flight.detail '\n')))
      (Flight.events fl) events);
  Flight.clear fl;
  checki "clear empties the ring" 0 (List.length (Flight.events fl));
  Flight.record fl ~at:9.0 ~host:0 ~kind:"k" ~detail:"";
  checki "listeners survive clear" 8 !heard

let test_flight_rejects_garbage () =
  List.iter
    (fun s -> checkb ("rejects " ^ String.escaped s) true (Result.is_error (Flight.of_string s)))
    [ ""; "not-a-flight"; "splitbft-flight v2"; Flight.header ^ "\nevent nan" ]

(* ----- health sampler ----- *)

module Health = Splitbft_obs.Health

let test_health_window_queries () =
  let r = Registry.create () in
  let c = Registry.counter r ~labels:[ ("replica", "0") ] "broker.ecalls" in
  let h = Health.create ~window:3 r in
  (* empty and single-sample windows answer None, never nan *)
  checkb "no sample: latest None" true (Health.latest h "broker.ecalls" = None);
  Registry.add c 10;
  Health.sample h ~at:0.0;
  checkb "one sample: delta None" true
    (Health.delta h ~labels:[ ("replica", "0") ] "broker.ecalls" = None);
  checkb "one sample: span None" true (Health.span_us h = None);
  Registry.add c 5;
  Health.sample h ~at:1_000_000.0;
  checkf "delta over window" 5.0
    (Option.get (Health.delta h ~labels:[ ("replica", "0") ] "broker.ecalls"));
  checkf "rate per second" 5.0
    (Option.get (Health.rate h ~labels:[ ("replica", "0") ] "broker.ecalls"));
  (* the window slides: after 3 more samples the t=0 snapshot is gone *)
  Registry.add c 1;
  Health.sample h ~at:2_000_000.0;
  Registry.add c 1;
  Health.sample h ~at:3_000_000.0;
  checki "window bound" 3 (Health.samples h);
  checkf "delta excludes evicted samples" 2.0
    (Option.get (Health.delta h ~labels:[ ("replica", "0") ] "broker.ecalls"));
  checkb "absent metric is None" true (Health.delta h "no.such.metric" = None);
  checkf "prefix sum" 2.0 (Option.get (Health.delta_sum h ~prefix:"broker."));
  (* a metric registered after the oldest snapshot has no baseline *)
  let late = Registry.counter r "late.counter" in
  Registry.incr late;
  checkb "late metric: delta None" true (Health.delta h "late.counter" = None)

let test_health_zero_span () =
  let r = Registry.create () in
  ignore (Registry.counter r "c");
  let h = Health.create r in
  Health.sample h ~at:5.0;
  Health.sample h ~at:5.0;
  checkb "zero-span rate is None" true (Health.rate h "c" = None);
  checkf "zero-span delta still answers" 0.0 (Option.get (Health.delta h "c"))

(* ----- prometheus exposition ----- *)

module Prom = Splitbft_obs.Prom

let test_prom_exposition () =
  checks "dots sanitized" "tee_ecalls" (Prom.sanitize_name "tee.ecalls");
  checks "leading digit prefixed" "_9lives" (Prom.sanitize_name "9lives");
  let r = Registry.create () in
  Registry.add (Registry.counter r ~labels:[ ("replica", "0") ] "tee.ecalls") 17;
  Registry.set (Registry.gauge r "queue.depth") 2.5;
  Registry.observe (Registry.histogram r ~buckets:[ 10.0; 100.0 ] "lat.us") 42.0;
  Splitbft_util.Stats.add (Registry.summary r "s") 5.0;
  ignore (Registry.gauge r "never.written");  (* non-finite: must be dropped *)
  let page = Prom.of_registry r in
  let has needle =
    let nl = String.length needle and pl = String.length page in
    let rec go i = i + nl <= pl && (String.sub page i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "counter sample" true (has "tee_ecalls{replica=\"0\"} 17");
  checkb "counter type" true (has "# TYPE tee_ecalls counter");
  checkb "gauge sample" true (has "queue_depth 2.5");
  checkb "histogram bucket" true (has "lat_us_bucket{le=\"100\"} 1");
  checkb "histogram +Inf" true (has "le=\"+Inf\"");
  checkb "histogram count" true (has "lat_us_count 1");
  checkb "summary quantile" true (has "s{quantile=");
  checkb "no NaN leaks" true (not (has "NaN") && not (has "nan"));
  checkb "every line is sample or comment" true
    (String.split_on_char '\n' page
    |> List.for_all (fun l -> l = "" || l.[0] = '#' || String.contains l ' '))

(* ----- empty-window stats guards ----- *)

module Stats = Splitbft_util.Stats

let test_stats_empty_guards () =
  let s = Stats.create () in
  checkb "empty" true (Stats.is_empty s);
  checkb "mean_opt None" true (Stats.mean_opt s = None);
  checkb "min_opt None" true (Stats.min_opt s = None);
  checkb "max_opt None" true (Stats.max_opt s = None);
  checkb "percentile_opt None" true (Stats.percentile_opt s 99.0 = None);
  checkf "percentile_or0" 0.0 (Stats.percentile_or0 s 99.0);
  checkf "mean_or0" 0.0 (Stats.mean_or0 s);
  Stats.add s 7.0;
  checkb "single sample" false (Stats.is_empty s);
  checkf "single-sample percentile is the sample" 7.0 (Option.get (Stats.percentile_opt s 50.0));
  checkf "single-sample p99 is the sample" 7.0 (Option.get (Stats.percentile_opt s 99.0));
  checkf "single-sample mean" 7.0 (Option.get (Stats.mean_opt s))

let suites =
  [ ( "obs",
      [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "label identity" `Quick test_labels_identity;
        Alcotest.test_case "kind clash" `Quick test_kind_clash_rejected;
        Alcotest.test_case "gauge" `Quick test_gauge_last_write_wins;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "sum and read" `Quick test_sum_and_read;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "snapshot roundtrip" `Quick test_registry_snapshot_roundtrip;
        Alcotest.test_case "cluster run populates metrics" `Quick
          test_cluster_run_populates_metrics;
        Alcotest.test_case "flight ring and roundtrip" `Quick test_flight_ring_and_roundtrip;
        Alcotest.test_case "flight rejects garbage" `Quick test_flight_rejects_garbage;
        Alcotest.test_case "health window queries" `Quick test_health_window_queries;
        Alcotest.test_case "health zero span" `Quick test_health_zero_span;
        Alcotest.test_case "prom exposition" `Quick test_prom_exposition;
        Alcotest.test_case "stats empty guards" `Quick test_stats_empty_guards ] ) ]
