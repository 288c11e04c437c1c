(** The paper's evaluation, experiment by experiment.

    Each function deploys fresh clusters, drives the §6 workloads, and
    returns structured results; the [print_*] companions render them in
    the shape of the corresponding paper artifact.  See DESIGN.md §4 for
    the experiment index and EXPERIMENTS.md for measured-vs-paper
    numbers. *)

(** {2 Figure 3 — throughput and latency} *)

type fig3_point = {
  clients : int;
  throughput : float;  (** ops/s *)
  latency_us : float;  (** mean *)
}

type fig3_series = { series_label : string; points : fig3_point list }

val fig3 :
  ?clients_list:int list ->
  ?duration_us:float ->
  batched:bool ->
  app:Cluster.app_kind ->
  unit ->
  fig3_series list
(** SplitBFT and PBFT series over the client sweep.  Unbatched runs use
    synchronous clients; batched runs use batch size 200, 10 ms batch
    timeout and 40 outstanding requests per client, as in §6. *)

val print_fig3 : title:string -> fig3_series list -> unit

(** {2 Figure 4 — ecall latency per compartment} *)

type fig4_row = {
  compartment : string;
  mean_ecall_us : float;
  ecalls : int;
  us_per_request : float;  (** total compartment ecall time per executed request *)
}

val fig4 : ?clients:int -> batched:bool -> unit -> fig4_row list
(** Leader-side measurement with 40 clients on the KVS, per the paper. *)

val print_fig4 : batched:bool -> fig4_row list -> unit

(** {2 Table 2 — TCB sizes} *)

type tcb_row = {
  component : string;
  shared_loc : int;  (** shared types/logic compiled into every enclave *)
  logic_loc : int;  (** compartment-specific logic *)
  total_loc : int;
}

val table2 : ?root:string -> unit -> tcb_row list
(** Counts code lines of this repository's own sources (tokei-style),
    attributing shared protocol types/crypto to every enclave, per the
    paper's methodology.  [root] defaults to the source tree detected from
    the current directory. *)

val print_table2 : tcb_row list -> unit

(** {2 §6 overhead decomposition — SGX simulation mode} *)

type simmode_result = {
  hardware_tput : float;
  simulation_tput : float;
  baseline_tput : float;  (** PBFT *)
  transition_share_of_overhead : float;
      (** fraction of the SplitBFT-vs-PBFT gap explained by transitions *)
}

val simmode : ?duration_us:float -> unit -> simmode_result
val print_simmode : simmode_result -> unit

(** {2 Ablation — batch size vs transition amortization} *)

type ablation_point = {
  ab_batch : int;
  ab_tput : float;
  ab_ecall_us_per_req : float;  (** total leader ecall time per request *)
}

val batch_ablation : ?batches:int list -> ?duration_us:float -> unit -> ablation_point list
(** SplitBFT KVS, 40 clients with 40 outstanding requests each, sweeping
    the batch size: shows the enclave-transition amortization that
    motivates batching in §6. *)

val print_batch_ablation : ablation_point list -> unit

(** {2 Hotpath sweep}

    The perf-regression gate's pinned sweep ([bench hotpath]): saturated
    SplitBFT-KVS points across batch sizes, a churn point (primary crash,
    view change, crash-recovery) that exercises view-change and
    state-transfer verification and the broker's retransmit early-reject,
    and a detectors-on twin of the batch-200 point. *)

type hotpath_point = {
  hp_label : string;  (** stable key the regression gate matches on *)
  hp_batch : int;
  hp_churn : bool;
  hp_tput : float;
  hp_ecall_us_per_req : float;
  hp_copy_bytes : float;  (** summed [tee.copy_bytes] *)
  hp_retx_suppressed : float;  (** broker early-rejected retransmissions *)
}

val hotpath : ?batches:int list -> unit -> hotpath_point list
val print_hotpath : hotpath_point list -> unit

(** {2 Lanes ablation — pipelined consensus and parallel execution}

    The multi-lane sweep ([bench lanes]): SplitBFT-KVS under heavy offered
    load (80 clients, window 40) across (consensus lanes × Execution
    workers × batch size) points.  The (1, 1, _) point is the serial
    reference; raising lanes pipelines preprepare/prepare/commit across
    in-flight seqnos, raising workers lets non-conflicting batches execute
    in parallel — results stay bit-identical to serial, only cost timing
    changes. *)

type lanes_point = {
  lp_label : string;  (** stable key the regression gate matches on *)
  lp_lanes : int;
  lp_workers : int;
  lp_batch : int;
  lp_tput : float;
  lp_ecall_us_per_req : float;  (** leader, summed over compartments *)
  lp_pool_tasks : float;  (** summed [tee.pool_tasks] *)
  lp_pool_conflict_waits : float;  (** summed [tee.pool_conflict_waits] *)
  lp_lane_ecalls : float;  (** summed [broker.lane_ecalls] *)
}

val lanes : ?grid:(int * int * int) list -> unit -> lanes_point list
(** [grid] elements are (lanes, workers, batch). *)

val print_lanes : lanes_point list -> unit

(** {2 §6 threading ceilings} *)

type ceilings_result = {
  single_thread_tput : float;
  multi_thread_tput : float;
  predicted_single : float;  (** 1e6 / (sum of per-request ecall time) *)
  predicted_multi : float;  (** 1e6 / (Execution per-request ecall time) *)
  sum_ecall_us : float;
  exec_ecall_us : float;
}

val ceilings : ?duration_us:float -> unit -> ceilings_result
val print_ceilings : ceilings_result -> unit

(** {2 Open-loop sweep — latency vs offered load}

    The planet-scale harness ([bench openloop]): SplitBFT (4 lanes, 4
    Execution workers, batch 200) under {!Workload.Open_loop} traffic —
    arrivals scheduled by the process, not by completions, 1M simulated
    identities over 64 attested connections, Zipf-0.99 key skew, read-mostly
    mix.  Reports arrival-to-reply percentiles per offered load, locates the
    saturation knee (first load where achieved < 95% of offered,
    interpolated), and adds a bursty (square-wave diurnal) point.

    Two Poisson arms, two knees: the Zipf-0.99 arm saturates where
    hot-key write conflicts serialize the Execution worker pool, well
    below pipeline capacity; the uniform-key arm's knee measures the
    pipeline itself and is comparable to the closed-loop l4w4 ceiling
    from {!lanes}.  Both are gated in CI. *)

type openloop_point = {
  ol_label : string;  (** stable key the regression gate matches on *)
  ol_arrival : string;  (** "poisson" or "bursty" *)
  ol_rate : float;  (** configured mean offered load, ops/s *)
  ol_offered : float;  (** measured arrivals/s in the window *)
  ol_achieved : float;  (** measured completions/s in the window *)
  ol_mean_us : float;
  ol_p50_us : float;
  ol_p95_us : float;
  ol_p99_us : float;
  ol_backlog : int;  (** peak submitted-but-uncompleted operations *)
  ol_conflict_waits : float;  (** summed [tee.pool_conflict_waits] *)
}

type openloop_result = {
  ol_points : openloop_point list;
  ol_knee_zipf_ops : float;  (** saturation knee of the Zipf-0.99 arm, ops/s *)
  ol_knee_uniform_ops : float;  (** saturation knee of the uniform-key arm, ops/s *)
  ol_half_label : string;  (** poisson point nearest 50% of the top swept load *)
  ol_half_p99_us : float;  (** its p99 — the latency the CI gate pins *)
}

val openloop_spec : Workload.Open_loop.spec
(** The default sweep spec: 150 ms warm-up / 300 ms measurement, 64
    connections x window 64, 1M identities over a 4096-entry LRU,
    Zipf 0.99 over 64k keys, 90% reads. *)

val openloop :
  ?rates:float list ->
  ?uniform_rates:float list ->
  ?bursty_rates:float list ->
  ?spec:Workload.Open_loop.spec ->
  ?proto:Cluster.Proto.t ->
  unit ->
  openloop_result
(** [rates] are the Zipf-arm Poisson offered loads (default 150k..700k
    ops/s); [uniform_rates] the uniform-key arm (default 300k..700k);
    [bursty_rates] add square-wave points (default one at 300k mean). *)

val print_openloop : openloop_result -> unit

(** {2 Machine-readable artifacts}

    JSON encoders for the [BENCH_*.json] trajectory: every artifact above
    can be emitted via [bench/main.exe --json] alongside the registry
    snapshot of an instrumented run. *)

val json_of_fig3 : fig3_series list -> Splitbft_obs.Json.t
val json_of_fig4 : fig4_row list -> Splitbft_obs.Json.t
val json_of_table2 : tcb_row list -> Splitbft_obs.Json.t
val json_of_simmode : simmode_result -> Splitbft_obs.Json.t
val json_of_batch_ablation : ablation_point list -> Splitbft_obs.Json.t
val json_of_hotpath : hotpath_point list -> Splitbft_obs.Json.t
val json_of_lanes : lanes_point list -> Splitbft_obs.Json.t
val json_of_ceilings : ceilings_result -> Splitbft_obs.Json.t

val json_of_openloop : openloop_result -> Splitbft_obs.Json.t
(** Flat labeled rows (one per sweep point, plus aggregate ["knee-zipf"],
    ["knee-uniform"] and ["p99-at-half-load"] rows) — the shape
    [bin/bench_check.ml] gates. *)

(** {2 Storage — follower read scaling}

    The ledger/follower sweep ([bench storage]): SplitBFT with the
    rollback-protected ledger enabled (64-entry segments) feeding 0, 1, 2
    and 4 read-only follower replicas, driven by the {!Workload.Reads}
    95/5 Zipf-0.99 mix.  The 0-follower point routes reads through
    consensus — the baseline the read-scaling ratio (and its CI gate,
    [reads-f4] at ≥ 2x [reads-f0]) is measured against. *)

type storage_point = {
  st_label : string;  (** stable key the regression gate matches on *)
  st_followers : int;
  st_read_ops : float;  (** served reads per second inside the window *)
  st_write_ops : float;
  st_stale : int;  (** reads refused for exceeding the lag bound *)
  st_refused : int;
  st_wrong : int;
  st_rd_mean_us : float;
  st_rd_p99_us : float;
}

type storage_result = {
  st_points : storage_point list;
  st_scale_f4 : float;  (** [reads-f4] read throughput over [reads-f0] *)
}

val storage_spec : Workload.Reads.spec
(** The default sweep spec: 8 drivers, 95/5 mix, Zipf 0.99 over 256 keys,
    200 ms warm-up / 600 ms measurement. *)

val storage :
  ?follower_counts:int list ->
  ?spec:Workload.Reads.spec ->
  ?proto:Cluster.Proto.t ->
  unit ->
  storage_result
(** [follower_counts] defaults to [[0; 1; 2; 4]]; [proto] to SplitBFT with
    64-entry ledger segments. *)

val print_storage : storage_result -> unit
val json_of_storage : storage_result -> Splitbft_obs.Json.t
(** Flat labeled rows (one per follower count, plus the aggregate
    ["read-scale-f4-vs-f0"] ratio row the CI gate pins at >= 2.0). *)
