(** Trace analyzer: per-phase cost breakdown, causal-tree validation and
    registry reconciliation over a {!Splitbft_obs.Tracer} span store.

    One trace is a client request's causal story (client root → broker
    dispatch → enclave transitions → reply), or a synthetic root for view
    changes / recovery / orphaned transitions.  The analyzer groups spans
    by [(cat, name)] into the stacked per-phase costs of the paper's
    Figure 4, checks every parent link (exists, same trace, starts no
    later than its child), and — when the tracer sampled everything —
    reconciles span-attributed enclave cost against the registry's
    [tee.*] counters, proving the attribution loses nothing. *)

type phase = {
  cat : string;
  name : string;
  count : int;
  total_dur_us : float;
  mean_dur_us : float;
  max_dur_us : float;
  args : (string * float) list;
      (** span cost arguments summed across the phase
          ([crypto_us], [exec_us], [copied_bytes], ...) *)
}

type t = {
  spans : int;
  dropped : int;
  unfinished : int;  (** spans never finished (e.g. requests in flight) *)
  traces : int;
  client_traces : int;
  forced_traces : int;  (** view change / recovery / promoted-slow roots *)
  orphan_traces : int;  (** enclave transitions outside any sampled trace *)
  complete_traces : int;
  broken_traces : int;
  first_defect : string option;  (** diagnostic for the first broken tree *)
  ecall_spans : int;
  ecall_total_us : float;
  ecall_copied_bytes : float;
  phases : phase list;  (** sorted by [total_dur_us], descending *)
}

val analyze : Splitbft_obs.Tracer.t -> t

val reconcile : t -> Splitbft_obs.Registry.t -> (unit, string) result
(** Checks span-attributed enclave cost against the registry aggregates:
    ecall span count vs [tee.ecalls], summed [total_us] args vs
    [tee.ecall_us], summed [copied_bytes] vs [tee.copy_bytes].  Exact only when the tracer
    ran with [sample_every = 1] and [record_orphans = true]. *)

val print : ?max_phases:int -> t -> unit
(** Renders the per-phase table plus trace/span totals. *)

val to_json : t -> Splitbft_obs.Json.t

val validate : Splitbft_obs.Json.t -> (unit, string) result
(** Structural validation of an exported Chrome Trace Event document
    ({!Splitbft_obs.Tracer.to_json} output, possibly re-read from disk):
    schema tag present, span ids unique, every parent reference resolves
    within the same trace and starts no later than its child, and the
    declared span count matches the events.  This is the CI gate. *)
