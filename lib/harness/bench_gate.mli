(** Pure comparison logic of the CI perf-regression gate.

    Compares a fresh [bench ... --json] document against the checked-in
    [BENCH_BASELINE.json]: every gated point in the baseline must still
    exist in the current run, and every metric the baseline records for
    it must stay within the tolerance — throughput (and Figure 3's SplitBFT
    and PBFT series) is a floor, ecall cost and p99 latency are ceilings.  A metric absent from a baseline point
    is not gated (artifacts report different fields), but a point or
    metric the baseline records that the current run fails to produce is
    a hard failure, never a silent pass.

    Two gates run against the current document alone, so refreshed
    baselines can't mask them: the detector-overhead twin
    ([batch200-detect] within 3% of [batch200]) and the follower
    read-scaling floor ([read-scale-f4-vs-f0] at least
    {!storage_scale_floor}). *)

type point = {
  label : string;
  tput : float;  (** [throughput_ops]; [nan] when absent *)
  split_tput : float;  (** [splitbft_throughput_ops] (Figure 3's SplitBFT series) *)
  pbft_tput : float;  (** [pbft_throughput_ops] (Figure 3's PBFT series) *)
  ecall_us : float;  (** [ecall_us_per_request] *)
  p99_us : float;  (** [p99_latency_us] *)
  tol : float option;  (** baseline per-point override of the tolerance *)
}

val gated_artifacts : (string * string list option) list
(** Artifact arrays the baseline sweep covers, with an optional label
    filter ([None] = gate every labeled point the baseline records). *)

val metrics : (string * (point -> float) * [ `Floor | `Ceiling ]) list

type verdict =
  | Pass
  | Regression of string  (** qualifier appended to "REGRESSION" *)
  | Missing_point  (** baseline point absent from the current run *)
  | Missing_metric of string
      (** a value the gate needs is absent/non-numeric in the current run *)

type row = {
  r_point : string;  (** ["artifact/label"] *)
  r_metric : string;
  r_baseline : float;  (** [nan] when not applicable *)
  r_current : float;
  r_verdict : verdict;
}

type report = { rows : row list; checked : int; failures : int }

val failed : verdict -> bool

val storage_scale_floor : float
(** Minimum 4-follower over 0-follower read-throughput ratio (2.0). *)

val point_of_json : doc_name:string -> string -> Splitbft_obs.Json.t -> point
(** Raises {!Malformed} (reported as [Error] by {!check}) on a point
    without a ["label"]. *)

exception Malformed of string

val check :
  ?tolerance:float ->
  ?only:string list ->
  baseline_name:string ->
  current_name:string ->
  baseline:Splitbft_obs.Json.t ->
  current:Splitbft_obs.Json.t ->
  unit ->
  (report, string) result
(** [tolerance] defaults to 0.10 (±10%); the names label the two
    documents in error messages.  [only] explicitly restricts the sweep
    to the named artifacts, for jobs that deliberately measure a subset
    (CI's storage job gates only ["storage"]); without it every gated
    artifact the baseline records must appear in the current run.
    [Error] means a document is malformed or gates on an artifact the
    current run no longer emits. *)
