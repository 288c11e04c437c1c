(** The fault-model scenario matrix behind Table 1.

    Each scenario deploys one protocol under a specific fault load, drives
    a workload, and checks liveness, safety (agreement + client-result
    integrity) and confidentiality (canary scanning) against the paper's
    claims.  Positive rows show what each protocol tolerates; negative rows
    demonstrate the violation that occurs one fault beyond the bound —
    e.g. PBFT with [f+1] byzantine replicas diverges, MinBFT with a single
    compromised USIG diverges, SplitBFT with [f+1] corrupt Execution
    enclaves returns wrong results to clients.

    The uniform rows (fault-free, backup crash, primary crash,
    crash-recovery, rollback attack) are generated for every protocol in
    {!Splitbft_proto.Catalog.builtins}; a protocol added to the catalog
    inherits them with no change here.  Protocol-specific byzantine and
    environment-fault rows inject through each protocol's own witness
    downcast. *)

type expectation = { exp_live : bool; exp_safe : bool; exp_confidential : bool }

type scenario = {
  id : string;
  description : string;
  protocol : Cluster.Proto.t;
  expected : expectation;
  honest : int list;  (** replicas whose execution state must agree *)
  make :
    ?tracer:Splitbft_obs.Tracer.t -> ?flight:Splitbft_obs.Flight.t -> int64 -> Cluster.t;
  inject : Cluster.t -> unit;  (** post-creation fault injection *)
  duration_us : float;
  min_completed : int;  (** liveness threshold *)
  check : Cluster.t -> string option;
      (** scenario-specific post-condition on the final cluster state
          (e.g. "the restarted replica recovered", "the rollback was
          refused"); [Some reason] fails the row even when the
          live/safe/confidential verdict matches *)
}

val all : scenario list

val find : string -> scenario option

type outcome = {
  scenario : scenario;
  cluster : Cluster.t;  (** final cluster state (registry, nodes) *)
  verdict : Safety.verdict;
  workload : Workload.result;
  check_failure : string option;  (** [scenario.check] result *)
  alerts : Detector.alert list;
      (** the anomaly detector's alerts, in detection order; always empty
          when the run was made without [~detect] *)
}

val run :
  ?seed:int64 -> ?tracer:Splitbft_obs.Tracer.t -> ?detect:bool -> scenario -> outcome
(** [tracer], when given, is installed on the scenario's cluster engine so
    the run emits causal spans (see {!Trace_report}).  [detect] (default
    false) additionally attaches a flight recorder and a {!Detector}
    before injection, populating [alerts]; a run without it is
    byte-identical to one before the detector existed. *)

val anomalous : outcome -> bool
(** The row missed its expectation, failed its check, or raised alerts. *)

val dump_flight : dir:string -> outcome -> string option
(** Writes the run's flight recording as a [splitbft-flight v1] artifact
    ([<dir>/<scenario-id>-flight.txt], slashes flattened), creating [dir]
    if needed; [None] when the run carried no recorder.  CI calls this on
    {!anomalous} detect-mode rows, next to the chaos counterexample
    schedules. *)

val matches_expectation : outcome -> bool
