(* One repetition of a workload, timed from outside the program, and the
   metrics derived from it.

   The window's per-layer numbers are deltas of public registry counters
   between a snapshot taken in the workload's [at_warmup] callback and
   one taken when the drive returns.  A read-only sampler event every
   simulated millisecond adds the two quantities no counter holds: the
   longest execution stall and the peak follower lag. *)

module H = Splitbft_harness
module Cluster = H.Cluster
module Engine = Splitbft_sim.Engine
module Registry = Splitbft_obs.Registry
module Tracer = Splitbft_obs.Tracer
module Stats = Splitbft_util.Stats
module Follower = Splitbft_storage.Follower
module Ledger = Splitbft_storage.Ledger

type clock = Sim | Wall

type metric = { name : string; unit : string; clock : clock; value : float }

let metric clock name unit value = { name; unit; clock; value }
let sim = metric Sim
let wall = metric Wall

(* ----- registry snapshots ----- *)

type snapshot = {
  values : (string * Registry.labels, float) Hashtbl.t;
  gc : Gc.stat;
  view : int;
  batch_ops : float;  (** summed [broker.batch_occupancy] observations *)
  batches : float;
}

let max_view cluster =
  List.fold_left (fun acc n -> max acc (Cluster.view_of n)) 0 (Cluster.nodes cluster)

let snapshot cluster =
  let reg = Cluster.obs cluster in
  let values = Hashtbl.create 512 in
  Registry.fold reg ~init:() ~f:(fun () ~name ~labels ~kind:_ ~value ->
      Hashtbl.replace values (name, labels) value);
  let batch_ops = ref 0.0 and batches = ref 0.0 in
  List.iteri
    (fun i _ ->
      let h =
        Registry.histogram reg ~labels:[ ("replica", string_of_int i) ] "broker.batch_occupancy"
      in
      batch_ops := !batch_ops +. Registry.histogram_sum h;
      batches := !batches +. float_of_int (Registry.histogram_count h))
    (Cluster.nodes cluster);
  { values;
    gc = Gc.quick_stat ();
    view = max_view cluster;
    batch_ops = !batch_ops;
    batches = !batches }

(* Per-label-set window deltas of the metric [name]. *)
let deltas a b name =
  Hashtbl.fold
    (fun (n, labels) v acc ->
      if String.equal n name then
        let v0 = Option.value ~default:0.0 (Hashtbl.find_opt a.values (n, labels)) in
        (labels, v -. v0) :: acc
      else acc)
    b.values []

let delta a b name = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 (deltas a b name)

let label key labels = Option.value ~default:"" (List.assoc_opt key labels)

(* ----- the 1 ms sampler ----- *)

type sampler = {
  mutable armed : bool;
  mutable last_exec : int64;
  mutable progress_at : float;
  mutable longest_gap_us : float;
  mutable lag_max : int;
}

let sample_every_us = 1_000.0

(* Reads state only, so the simulation is the same with or without it;
   the smoke test checks exactly that. *)
let install_sampler cluster =
  let engine = Cluster.engine cluster in
  let s = { armed = false; last_exec = 0L; progress_at = 0.0; longest_gap_us = 0.0; lag_max = 0 } in
  let rec tick () =
    let now = Engine.now engine in
    let exec =
      List.fold_left
        (fun acc n -> max acc (Cluster.last_executed_of n))
        0L (Cluster.nodes cluster)
    in
    if Int64.compare exec s.last_exec > 0 then begin
      s.last_exec <- exec;
      s.progress_at <- now
    end
    else if s.armed then s.longest_gap_us <- Float.max s.longest_gap_us (now -. s.progress_at);
    if s.armed then
      List.iter (fun f -> s.lag_max <- max s.lag_max (Follower.lag f)) (Cluster.followers cluster);
    ignore (Engine.schedule engine ~delay:sample_every_us ~label:"e2e:sampler" tick)
  in
  ignore (Engine.schedule engine ~delay:sample_every_us ~label:"e2e:sampler" tick);
  s

(* Gaps are measured from the window start at the earliest. *)
let arm s ~now =
  s.armed <- true;
  s.progress_at <- Float.max s.progress_at now

(* ----- one repetition ----- *)

type rep = {
  sim_metrics : metric list;  (** end-to-end, simulated clock *)
  layers : metric list;  (** per-layer, from the registry, runtime and sampler *)
  traced : metric list;  (** per-layer, from the trace ([] when untraced) *)
  setup_s : float;  (** wall: start of the repetition to [at_warmup] *)
  window_s : float;  (** wall: [at_warmup] to the end of the drive *)
  total_s : float;
  ops : int;
  failures : int;
  failed_checks : string list;
  busiest : string;  (** the resource behind [resource.util_max] *)
  reconcile : (unit, string) result option;
}

let now () = Unix.gettimeofday ()

let per ops x = x /. float_of_int (max 1 ops)

let layer_metrics (w : Workloads.t) cluster ~a ~b ~ops ~window_s ~sampler
    ~(outcome : Workloads.outcome) =
  let per_op = per ops in
  let d = delta a b in
  let events = d "sim.events_fired" in
  let utils =
    List.map
      (fun (labels, busy) -> (label "resource" labels, busy /. w.window_us))
      (deltas a b "resource.busy_us")
  in
  let util_max keep =
    List.fold_left
      (fun (bn, bu) (n, u) -> if keep n && u > bu then (n, u) else (bn, bu))
      ("-", 0.0) utils
  in
  let is_follower = String.starts_with ~prefix:"follower" in
  let busiest, util = util_max (fun n -> not (is_follower n)) in
  let ecall_us compartment =
    List.fold_left
      (fun acc (labels, v) ->
        if String.ends_with ~suffix:("-" ^ compartment) (label "enclave" labels) then acc +. v
        else acc)
      0.0 (deltas a b "tee.ecall_us")
  in
  let hits = d "tee.verify_cache_hits" and misses = d "tee.verify_cache_misses" in
  let recovery_us =
    match w.crashed with
    | None -> 0.0
    | Some r ->
      Option.value ~default:0.0
        (Registry.read (Cluster.obs cluster)
           ~labels:[ ("replica", string_of_int r) ]
           "broker.recovery_duration_us")
  in
  let ledger_bytes, entries =
    List.fold_left
      (fun acc node ->
        List.fold_left
          (fun (bytes, entries) (tag, data) ->
            if not (Ledger.is_ledger_tag tag) then (bytes, entries)
            else
              ( bytes + String.length data,
                if String.equal tag Ledger.entry_tag then entries + 1 else entries ))
          acc (Cluster.persisted_of node))
      (0, 0) (Cluster.nodes cluster)
  in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let layers =
    [ sim "engine.events_per_op" "events/op" (per_op events);
      wall "engine.ns_per_event" "ns/event" (ratio (window_s *. 1e9) events);
      wall "gc.minor_words_per_op" "words/op" (per_op (b.gc.Gc.minor_words -. a.gc.Gc.minor_words));
      wall "gc.promoted_words_per_op" "words/op"
        (per_op (b.gc.Gc.promoted_words -. a.gc.Gc.promoted_words));
      wall "gc.major_collections" "count"
        (float_of_int (b.gc.Gc.major_collections - a.gc.Gc.major_collections));
      sim "net.msgs_per_op" "msgs/op" (per_op (d "net.messages_sent"));
      sim "net.bytes_per_op" "bytes/op" (per_op (d "net.bytes_sent"));
      sim "broker.batch_ops" "ops/batch"
        (ratio (b.batch_ops -. a.batch_ops) (b.batches -. a.batches));
      sim "broker.ecalls_per_op" "ecalls/op" (per_op (d "broker.ecalls"));
      sim "broker.retx_per_op" "retx/op"
        (per_op (d "broker.retx_suppressed" +. d "broker.retx_replayed"));
      sim "broker.suspect_firings" "count" (d "broker.suspect_firings");
      sim "resource.util_max" "fraction" util;
      sim "tee.ecall_us_per_op" "us/op" (per_op (d "tee.ecall_us"));
      sim "tee.ecall_us_per_op.preparation" "us/op" (per_op (ecall_us "preparation"));
      sim "tee.ecall_us_per_op.confirmation" "us/op" (per_op (ecall_us "confirmation"));
      sim "tee.ecall_us_per_op.execution" "us/op" (per_op (ecall_us "execution"));
      sim "tee.ecalls_per_op" "ecalls/op" (per_op (d "tee.ecalls"));
      sim "tee.copy_bytes_per_op" "bytes/op" (per_op (d "tee.copy_bytes"));
      sim "tee.verify_cache_hit_ratio" "fraction" (ratio hits (hits +. misses));
      sim "tee.pool_conflict_waits_per_op" "waits/op" (per_op (d "tee.pool_conflict_waits"));
      sim "consensus.view_changes" "count" (float_of_int (b.view - a.view));
      sim "consensus.recovery_ms" "ms" (recovery_us /. 1e3);
      sim "consensus.state_transfer_bytes" "bytes" (d "broker.state_transfer_bytes_in");
      sim "follower.util_max" "fraction" (snd (util_max is_follower));
      sim "follower.stale_ratio" "fraction"
        (ratio (d "follower.reads_stale_refused") (d "follower.reads"));
      sim "ledger.persisted_bytes_per_write" "bytes/write"
        (ratio (float_of_int ledger_bytes) (float_of_int entries));
      sim "client.latency_samples" "count" (float_of_int (Stats.count outcome.latency));
      sim "client.backlog_peak" "ops" (float_of_int outcome.backlog_peak);
      sim "client.backlog_growth" "ops" (float_of_int outcome.backlog_growth);
      sim "client.identity_words_peak" "words" (float_of_int outcome.identity_words_peak) ]
  in
  let sampled =
    match sampler with
    | None -> []
    | Some s ->
      [ sim "consensus.outage_ms" "ms" (s.longest_gap_us /. 1e3);
        sim "follower.lag_max" "entries" (float_of_int s.lag_max) ]
  in
  (layers @ sampled, busiest)

(* Per-op cost attributed by the trace's spans inside the window, and how
   much of the registry's enclave cost the spans fail to cover (over the
   whole run, as [Trace_report.reconcile] compares it). *)
let trace_metrics tracer cluster ~from_us ~until_us ~ops =
  let per_op = per ops in
  let sums = Hashtbl.create 16 in
  let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums k)) in
  let sum k = Option.value ~default:0.0 (Hashtbl.find_opt sums k) in
  let costs = [ "transition"; "copy"; "crypto"; "exec"; "seal"; "io" ] in
  Tracer.iter_spans tracer (fun s ->
      let arg k = Option.value ~default:0.0 (List.assoc_opt k s.Tracer.args) in
      if s.Tracer.start >= from_us && s.Tracer.start < until_us && s.Tracer.dur >= 0.0 then
        match s.Tracer.cat with
        | "enclave" ->
          List.iter (fun c -> add c (arg (c ^ "_us"))) costs;
          add "wait" (s.Tracer.dur -. arg "total_us")
        | "broker" ->
          add "broker" s.Tracer.dur;
          add "serialize" (arg "serialize_us")
        | _ -> ());
  let report = H.Trace_report.analyze tracer in
  let reg = Cluster.obs cluster in
  let unattributed spans name =
    let total = Registry.sum reg ~prefix:name in
    if total > 0.0 then 1.0 -. (spans /. total) else 0.0
  in
  let metrics =
    [ sim "trace.broker_us_per_op" "us/op" (per_op (sum "broker"));
      sim "trace.broker_serialize_us_per_op" "us/op" (per_op (sum "serialize"));
      sim "trace.ecall_wait_us_per_op" "us/op" (per_op (sum "wait")) ]
    @ List.map
        (fun c -> sim (Printf.sprintf "trace.%s_us_per_op" c) "us/op" (per_op (sum c)))
        costs
    @ [ sim "trace.dropped" "count" (float_of_int report.H.Trace_report.dropped);
        sim "trace.unattributed_copy_frac" "fraction"
          (unattributed report.H.Trace_report.ecall_copied_bytes "tee.copy_bytes");
        sim "trace.unattributed_ecall_us_frac" "fraction"
          (unattributed report.H.Trace_report.ecall_total_us "tee.ecall_us") ]
  in
  (metrics, H.Trace_report.reconcile report reg)

let checks (w : Workloads.t) cluster ~(outcome : Workloads.outcome) ~min_samples ~scanner =
  let honest = List.init (Cluster.params cluster).Cluster.n Fun.id in
  let check name ok detail = if ok then [] else [ Printf.sprintf "%s: %s" name detail ] in
  let agreement = H.Safety.check_agreement cluster ~honest in
  let followers = H.Safety.check_followers cluster ~honest in
  let samples = Stats.count outcome.latency in
  check "results" (outcome.failures = 0)
    (Printf.sprintf "%d wrong, refused or stale results" outcome.failures)
  @ check "agreement" (agreement = H.Safety.Agreement) (H.Safety.describe_agreement agreement)
  @ check "followers" (followers = H.Safety.Followers_ok) (H.Safety.describe_followers followers)
  @ (match w.crashed with
    | None -> []
    | Some r ->
      let node = Cluster.node cluster r in
      check "recovery" (Cluster.recovered_of node) (Printf.sprintf "replica %d did not recover" r)
      @ check "recovery-alerts"
          (Cluster.recovery_alerts_of node = [])
          (String.concat "; " (Cluster.recovery_alerts_of node)))
  @ check "samples" (samples >= min_samples)
      (Printf.sprintf "%d latency samples, need %d" samples min_samples)
  @
  match scanner with
  | None -> []
  | Some sc ->
    let leaks =
      H.Safety.network_leaks sc + H.Safety.storage_leaks cluster ~honest_hosts:honest
    in
    check "confidentiality" (leaks = 0) (Printf.sprintf "%d canary leaks" leaks)

let run_rep ?(with_sampler = true) ?tracer ~min_samples (w : Workloads.t) ~seed =
  Gc.compact ();
  let t0 = now () in
  let cluster = Cluster.create ?tracer (w.params seed) in
  let engine = Cluster.engine cluster in
  let scanner = Option.map (fun _ -> H.Safety.install_scanner cluster) tracer in
  let sampler = if with_sampler then Some (install_sampler cluster) else None in
  let at_warm = ref None in
  let at_warmup () =
    let snap = snapshot cluster in
    at_warm := Some (now (), Engine.now engine, snap);
    Option.iter (fun s -> arm s ~now:(Engine.now engine)) sampler;
    w.at_window cluster
  in
  let outcome = w.drive cluster ~at_warmup in
  let t_end = now () in
  let t_warm, warm_us, a =
    match !at_warm with Some x -> x | None -> failwith "the window never opened"
  in
  let b = snapshot cluster in
  let ops = outcome.Workloads.ops in
  let window_s = t_end -. t_warm in
  let layers, busiest = layer_metrics w cluster ~a ~b ~ops ~window_s ~sampler ~outcome in
  let traced, reconcile =
    match tracer with
    | None -> ([], None)
    | Some tr ->
      let m, r =
        trace_metrics tr cluster ~from_us:warm_us ~until_us:(warm_us +. w.window_us) ~ops
      in
      (m, Some r)
  in
  let lat = outcome.Workloads.latency in
  { sim_metrics =
      [ sim "tput_ops" "ops/s" (float_of_int ops /. (w.window_us /. 1e6));
        sim "p50_us" "us" (Stats.percentile lat 50.0);
        sim "p99_us" "us" (Stats.percentile lat 99.0) ];
    layers;
    traced;
    setup_s = t_warm -. t0;
    window_s;
    total_s = t_end -. t0;
    ops;
    failures = outcome.Workloads.failures;
    failed_checks = checks w cluster ~outcome ~min_samples ~scanner;
    busiest;
    reconcile }

(* ----- wall time of calls into the crypto and codec layers ----- *)

(* Median over five batches of the ns per call, each batch sized so that
   it lasts about a tenth of [budget_s]. *)
let ns_per_call ~budget_s f =
  let target = budget_s /. 10.0 in
  let time n =
    let t = now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    now () -. t
  in
  let rec size n = if n >= 1 lsl 24 || time n >= target then n else size (2 * n) in
  let n = size 16 in
  let samples = List.sort Float.compare (List.init 5 (fun _ -> time n *. 1e9 /. float_of_int n)) in
  List.nth samples 2

let micro ~budget_s =
  let module Crypto = Splitbft_crypto in
  let kib = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
  let msg256 = String.sub kib 0 256 in
  let keys = Crypto.Signature.derive ~seed:"e2e-bench" in
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let request =
    Splitbft_types.Message.encode_request
      { Splitbft_types.Message.client = 7;
        timestamp = 42L;
        payload = String.make 10 'x';
        auth = String.make 32 'a' }
  in
  let ns = ns_per_call ~budget_s in
  [ wall "crypto.sha256_ns_per_kb" "ns/KiB" (ns (fun () -> Crypto.Sha256.digest kib));
    wall "crypto.hmac_256b_ns" "ns"
      (ns (fun () -> Crypto.Signature.sign keys.Crypto.Signature.secret msg256));
    wall "crypto.aead_ns_per_kb" "ns/KiB"
      (ns (fun () -> Crypto.Aead.encrypt ~key ~nonce ~aad:"" kib));
    wall "codec.request_roundtrip_ns" "ns"
      (ns (fun () ->
           match Splitbft_types.Message.decode_request request with
           | Ok r -> Splitbft_types.Message.encode_request r
           | Error e -> failwith e)) ]
