(** Online byzantine anomaly detection over a running {!Cluster}.

    The detector is a passive, rules-based observer at the harness layer:
    it taps the simulated network ({!Splitbft_sim.Network.add_tap}),
    subscribes to the cluster's flight recorder, and samples registry
    metrics plus uniform node probes on a periodic engine event.  It
    registers no metrics, consumes no randomness, and schedules events
    only when attached — a run without a detector is byte-identical to a
    run before the detector existed.

    {2 Rule catalog}

    Wire rules (protocols using the shared {!Splitbft_types.Message}
    codec — SplitBFT and the PBFT baseline; MinBFT's inter-replica codec
    is distinct, so its payloads are not decoded):

    - [equivocation] — two proposals from the same (sender, view, seq)
      with different batch digests (byzantine Preparation / PBFT primary).
    - [digest-mismatch] — a bare digest-form PrePrepare on the wire.
      Honest primaries always broadcast the full form (the broker
      re-attaches elided bodies outside the enclave boundary), so a
      digest nobody can ever resolve to a batch is adversary-only
      ([corrupt-digest]).
    - [premature-commit] — a replica's first Commit(v, s) send observed
      before Prepare(v, s) from at least [max 1 (2f - 1)] distinct other
      replicas were delivered to it.  An honest commit requires 2f
      prepares of which at most one (its own) is locally supplied, and
      each other one must be delivered before it can count — so the bound
      holds for every honest commit by causality, and zero false
      positives follow by construction ([promiscuous-commit]).  A Prepare
      sent but still in flight does not count.
    - [duplicate-flood] — byte-identical (src, dst, payload) protocol
      sends (PrePrepare/Prepare/Commit only; Reply, ViewChange and
      state-transfer messages legitimately re-send) observed more than
      once ([duplicate-outputs]).
    - [stale-proof] — a ViewChange whose [vc_last_stable] trails the
      highest wire-complete checkpoint certificate (2f+1 matching
      Checkpoint senders) older than [stale_margin_us].  Skipped for
      replicas that crashed or restarted, and on lossy networks
      ([stale-proof]).
    - [checkpoint-mismatch] — a Checkpoint whose state digest conflicts
      with a quorum-certified digest at the same sequence number
      ([lie-checkpoint]).
    - [confidentiality-leak] — the workload canary in a wire payload or
      an untrusted-storage blob of a confidential protocol
      ([leak-plaintext]).

    Evidence rules (flight-recorder events):

    - [vote-divergence] — a client observed a validated reply vote that
      differs from the f+1 winning result ([corrupt-result], PBFT/MinBFT
      corrupt execution).

    Health rules (periodic samples of probes and windowed metrics):

    - [prefix-lag] — a live replica's executed prefix trails the longest
      by more than the lag window (default 2x the checkpoint interval).
    - [disagreement] — two live replicas executed conflicting batches at
      the same sequence number ({!Safety.agreement_of_logs}).
    - [retx-storm] — a single replica absorbed at least
      [retx_threshold] client retransmissions (suppressed + replayed)
      within the health window ([drop-outputs:K]).
    - [quorum-stall] — suspicion keeps firing while neither the maximum
      view nor the executed total advances for [stall_samples]
      consecutive sample intervals (environment starvation).

    [reorder-outputs] is deliberately not detected: a reordering
    environment is indistinguishable from tolerated network asynchrony,
    and the protocol masks it — the coverage matrix asserts containment
    (no alert, verdict unchanged) instead.

    Crash/restart flight events excuse a replica from [stale-proof],
    [prefix-lag] and [disagreement]: a recovering replica legitimately
    trails until state transfer completes. *)

type alert = {
  rule : string;
  replica : int;  (** accused replica id; [-1] for cluster-wide alerts *)
  at : float;  (** virtual time of detection, µs *)
  detail : string;
}

type config = {
  sample_interval_us : float;  (** health-rule sampling period (default 250 ms) *)
  health_window : int;  (** samples retained by the {!Health} sampler (default 16) *)
  stale_margin_us : float;
      (** grace between a wire-complete checkpoint certificate and the
          ViewChanges that must reflect it (default 200 ms) *)
  retx_threshold : int;
      (** retransmissions absorbed by one replica within the health
          window that constitute a storm (default 10) *)
  stall_samples : int;
      (** consecutive stalled samples (suspicion firing, no view/exec
          progress) before [quorum-stall] (default 3) *)
  lag_window : int option;
      (** executed-prefix lag tolerance; [None] (default) uses 2x the
          cluster's checkpoint interval *)
  max_alerts : int;  (** hard cap on retained alerts (default 256) *)
}

val default_config : config

val rules : string list
(** Every rule name the detector can fire, the alert catalog. *)

type t

val attach : ?config:config -> Cluster.t -> t
(** Installs the detector on a cluster: a network tap, a flight-recorder
    subscription (when the cluster has a recorder — without one the
    [vote-divergence] rule and crash excusal are inert), and a
    self-rescheduling sampling event.  Attach before the workload runs;
    alerts accumulate from that point on.  Each distinct (rule, replica)
    pair is reported once. *)

val alerts : t -> alert list
(** Alerts in detection order. *)

val alert_count : t -> int

val fired : t -> string list
(** Distinct rule names fired so far, sorted. *)

val fired_at : t -> replica:int -> string list
(** Distinct rule names fired against [replica], sorted. *)

val health : t -> Splitbft_obs.Health.t
(** The detector's windowed sampler (shared with dashboards). *)

val wire_rules_active : t -> bool
(** Whether wire-level rules run for this cluster's protocol. *)

val describe : alert -> string
(** One-line rendering: [rule@replica t=<ms> detail]. *)
