(** Small-scope SplitBFT world under model-checker control.

    Wraps one deterministic simulation — n=4 replicas, one client, a
    handful of requests — behind the controlled-scheduler interface of
    [Sim.Engine]: after a free-running setup phase (attestation,
    session provisioning), every network delivery, budgeted timer firing
    and crash/restart point becomes an explicit {!choice} for the DFS
    {!Driver} to fire, with [Internal] events (ecall completions, cost
    model) drained to quiescence after each.

    Soundness of treating replica behavior as schedule-determined: the
    configuration forces jitter/drops/bandwidth to zero, one lane, one
    Execution worker and batch size 1, so compartment transitions depend
    only on message arrival {e order} — exactly what the scheduler
    controls — never on virtual time.  The replicas otherwise run the
    configuration that ships: the broker's reply cache and inflight
    suppression, PrePrepare body elision and the cheap-checks-first
    verification order are all on. *)

type timer_budgets = { suspect : int; retry : int; batch : int; recovery : int }
(** Per-label fire budgets for the self-rearming timers; budgets make the
    interleaving space finite.  They are part of a schedule's identity —
    replay must use the same budgets. *)

val default_budgets : timer_budgets
val viewchange_budgets : timer_budgets
(** Budgets sized for configs that must drive exactly two view changes:
    one suspect fire per replica settles the cluster at view 2, and the
    retry fires are preserved (see the menu ordering in {!enabled}) to
    re-seed the view-2 primary. *)

type config = {
  seed : int64;
  requests : int;
  checkpoint_interval : int;
  adversaries : Adversary.t list;
  crash : (int * bool) option;  (** (host, restart afterwards) *)
  lossy_viewchange : bool;
      (** deterministic message filter steering the run through two view
          changes (the mutation self-test's scenario) *)
  mutate_viewchange : bool;
      (** re-introduce the PR-3 bug (prepared certificates dropped at view
          entry) via [Confirmation.mutate_drop_prepared_on_view_entry] *)
  budgets : timer_budgets;
  per_host_fifo : bool;
      (** coarsen delivery granularity from per-link-head to per-host
          global-FIFO (the scheduler picks which host consumes its oldest
          pending message) — the exhaust preset's model; part of a
          schedule's identity *)
  client_window : int;
      (** max outstanding client requests (capped at [requests]); 1 makes
          the client closed-loop, keeping consecutive requests' phases
          from multiplying in the exhaust search.  Part of a schedule's
          identity *)
}

val default_config : config
(** seed 1, 2 requests, checkpoint interval 2, no adversary, no crash. *)

type t
type choice

val create : config -> t
(** Builds the world and free-runs setup + request submission to the first
    quiescent point.  Raises if the client cannot complete attestation or
    the adversary list is invalid ({!Adversary.validate}). *)

val enabled : t -> choice list
(** The scheduler's menu, in deterministic creation order: every live
    [Choice] event whose timer budget is not exhausted, with network
    deliveries restricted to the head of their (src, dst) link — the
    zero-jitter simulated network is FIFO per link, so within-link
    reorderings are outside the modeled network.  Empty = terminal
    state.  An index into this list identifies the choice in replayable
    schedules. *)

val choices : t -> choice list
(** Every pending live [Choice] event, without the budget or FIFO-link
    filtering of {!enabled}.  The driver's sleep-set ambiguity guard
    scans this: a key matching anything queued behind a link head must
    not be slept. *)

val apply : t -> choice -> unit
(** Fire the choice, then drain [Internal] events to quiescence. *)

val independent : choice -> choice -> bool
(** Commutativity for partial-order reduction: different hosts, or same
    host with distinct non-negative lanes. *)

val fingerprint : t -> string
(** Canonical state digest — the digest of {!state_text} — for
    visited-state pruning. *)

val state_text : t -> string
(** The canonical text {!fingerprint} digests: probes, executed logs,
    persisted storage, each broker's reply-cache and inflight keys, client
    progress, pending choices, budget counters; virtual times excluded.
    Two states share a fingerprint exactly when their texts are equal, so
    diffing the texts explains a collision. *)

val check : ?terminal:bool -> t -> string option
(** The safety invariants, as a violation description or [None]:
    agreement across honest Executions' logs, ledger prefix-contiguity,
    reply integrity (no wrong results accepted), confidentiality canary on
    wire and in untrusted storage.  With [terminal], additionally flags
    honest live prefixes diverging beyond the checkpoint window. *)

val label : choice -> string
val choice_fp : choice -> string
val host : choice -> int
val lane : choice -> int
val describe_choice : choice -> string
val completed : t -> int
val now : t -> float
val executed_log : t -> int -> (int * string) list
val view : t -> int -> int
