(* The benchmark's four workloads.  Each deploys one SplitBFT cluster
   through the public harness API and drives it with one of the harness's
   load generators.  All use the default simulated network: 50 us base
   delay, 10 us mean exponential jitter, 40 Gb/s, no drops.  README.md
   says why each workload was chosen and how its sizes were picked. *)

module H = Splitbft_harness
module Cluster = H.Cluster
module Workload = H.Workload
module Registry = Splitbft_obs.Registry
module Stats = Splitbft_util.Stats
module Proto_splitbft = Splitbft_proto.Proto_splitbft

(* What one drive reports.  Counts are window-scoped except [failures],
   which covers the whole run so that nothing wrong can hide in the
   warm-up. *)
type outcome = {
  ops : int;  (** operations completed inside the window *)
  failures : int;  (** wrong results + refused reads + stale reads *)
  latency : Stats.t;  (** the window's latency samples *)
  backlog_peak : int;  (** most operations submitted but not completed *)
  backlog_growth : int;  (** window arrivals minus window completions *)
  identity_words_peak : int;  (** open loop: heap words of the identity table *)
}

type t = {
  name : string;
  default_seed : int;
  seeds : int;
      (** deployments per run, each with its own seed: the simulated
          metrics are their median *)
  window_us : float;
  params : int64 -> Cluster.params;
  crashed : int option;
      (** the replica crashed at the start of the window and restarted
          inside it *)
  at_window : Cluster.t -> unit;  (** fault injection at the window start *)
  drive : Cluster.t -> at_warmup:(unit -> unit) -> outcome;
}

(* Seed of the [i]th deployment of a run started with [seed]. *)
let sub_seed seed i = Int64.add seed (Int64.of_int (i * 1_000_003))

let summary cluster name = Registry.summary (Cluster.obs cluster) name

(* The shipped fast configuration: 4 consensus lanes x 4 Execution
   workers, batches of 200 with a 10 ms timeout. *)
let fast_params seed =
  { (Cluster.default_params (Proto_splitbft.make ~lanes:4 ~exec_workers:4 ())) with
    Cluster.batch_size = 200;
    batch_timeout_us = 10_000.0;
    seed }

let closed_loop ~clients ~window ~warmup_us ~window_us cluster ~at_warmup =
  let spec =
    { Workload.default_spec with
      Workload.clients;
      window;
      warmup_us;
      duration_us = window_us }
  in
  let r = Workload.run ~at_warmup cluster spec in
  { ops = r.Workload.completed;
    failures = r.Workload.wrong_results;
    latency = summary cluster "workload.latency_us";
    backlog_peak = clients * window;
    backlog_growth = 0;
    identity_words_peak = 0 }

(* [quick] shrinks warm-ups, windows, client counts and rates for the
   smoke test; the shapes (fault, mix, deployment) stay. *)
let unbatched ~quick =
  let window_us = if quick then 40_000.0 else 500_000.0 in
  { name = "unbatched";
    seeds = 1;
    default_seed = 71;
    window_us;
    params =
      (fun seed ->
        { (Cluster.default_params Proto_splitbft.protocol) with Cluster.batch_size = 1; seed });
    crashed = None;
    at_window = ignore;
    drive =
      closed_loop ~clients:(if quick then 8 else 40) ~window:1
        ~warmup_us:(if quick then 50_000.0 else 200_000.0)
        ~window_us }

(* Two deployments per run: the closed loop's batch waves spread one
   deployment's p99 over about 6% (interquartile range) from seed to
   seed, the median of two over about 5%.  The 20 ms warm-up is what the
   pipeline needs to fill: after 10 ms the window still sees the ramp and
   p99 reads 50% higher. *)
let saturated ~quick =
  let window_us = if quick then 2_000.0 else 20_000.0 in
  { name = "saturated";
    seeds = (if quick then 1 else 2);
    default_seed = 73;
    window_us;
    params = fast_params;
    crashed = None;
    at_window = ignore;
    drive =
      closed_loop
        ~clients:(if quick then 8 else 64)
        ~window:40
        ~warmup_us:(if quick then 5_000.0 else 20_000.0)
        ~window_us }

(* Replica 0, the view-0 primary, crashes when the window opens and
   restarts [churn_restart_us] later; arrivals keep their schedule while
   no primary exists, so the stall shows in latency from arrival. *)
let churn_restart_us = 700_000.0

let churn ~quick =
  let window_us = 1_200_000.0 in
  let spec =
    { H.Experiments.openloop_spec with
      Workload.Open_loop.arrival = Workload.Open_loop.Poisson;
      rate_ops = (if quick then 300.0 else 10_000.0);
      warmup_us = 100_000.0;
      duration_us = window_us;
      connections = (if quick then 8 else 64) }
  in
  { name = "churn";
    seeds = 1;
    default_seed = 89;
    window_us;
    params = fast_params;
    crashed = Some 0;
    at_window =
      (fun cluster ->
        Cluster.crash_host cluster 0;
        ignore
          (Splitbft_sim.Engine.schedule (Cluster.engine cluster) ~delay:churn_restart_us
             ~label:"e2e:restart" (fun () -> Cluster.restart_host cluster 0)));
    drive =
      (fun cluster ~at_warmup ->
        let r = Workload.Open_loop.run ~at_warmup cluster spec in
        { ops = r.Workload.Open_loop.ol_completed;
          failures = r.Workload.Open_loop.ol_wrong_results;
          latency = summary cluster "openloop.latency_us";
          backlog_peak = r.Workload.Open_loop.backlog_peak;
          backlog_growth = r.Workload.Open_loop.arrivals - r.Workload.Open_loop.ol_completed;
          identity_words_peak = r.Workload.Open_loop.identity_words_peak }) }

(* SplitBFT with the ledger on (64-entry segments, checkpoint interval 64)
   and 4 read-only followers; 95/5 read/write mix, Zipf 0.99 over 256
   keys.  Latency is the follower-read latency. *)
let reads ~quick =
  let window_us = if quick then 30_000.0 else 300_000.0 in
  let spec =
    { H.Experiments.storage_spec with
      Workload.Reads.clients = (if quick then 16 else 192);
      warmup_us = (if quick then 50_000.0 else 100_000.0);
      duration_us = window_us }
  in
  { name = "reads";
    seeds = 1;
    default_seed = 83;
    window_us;
    params =
      (fun seed ->
        { (Cluster.default_params (Proto_splitbft.make ~segment_entries:64 ())) with
          Cluster.checkpoint_interval = 64;
          followers = 4;
          seed });
    crashed = None;
    at_window = ignore;
    drive =
      (fun cluster ~at_warmup ->
        let r = Workload.Reads.run ~at_warmup cluster spec in
        { ops = r.Workload.Reads.reads_ok + r.Workload.Reads.writes_ok;
          failures =
            r.Workload.Reads.stale_reads + r.Workload.Reads.refused_reads
            + r.Workload.Reads.wrong_reads;
          latency = summary cluster "reads.latency_us";
          backlog_peak = spec.Workload.Reads.clients;
          backlog_growth = 0;
          identity_words_peak = 0 }) }

let all ~quick = [ unbatched ~quick; saturated ~quick; churn ~quick; reads ~quick ]

let names = List.map (fun w -> w.name) (all ~quick:false)

let find ~quick name = List.find (fun w -> String.equal w.name name) (all ~quick)
