(** Untrusted environment of a SplitBFT replica (the "shim layer" of §5).

    The broker owns everything liveness-only (P1): networking, request
    batching, the batch and suspicion timers, message routing between the
    network and the three enclaves (including duplicating PrePrepares,
    Prepares, Checkpoints and NewViews to the compartments that log them),
    the output log, and persistent storage for sealed ledger blocks.  Each
    enclave has a dedicated ecall thread ([Per_enclave]) or all ecalls
    share one thread ([Single_thread] — the §6 ablation).

    The broker is untrusted: a compromised broker can drop, delay or
    misroute, harming liveness only.  {!set_fault} injects exactly those
    behaviours for the fault-model experiments. *)

module Ids = Splitbft_types.Ids

type fault =
  | Env_honest
  | Env_mute  (** drops every enclave output: replica looks crashed *)
  | Env_starve of Ids.compartment  (** never delivers inputs to one compartment *)
  | Env_delay of float  (** delays every ecall by the given µs *)
  | Env_drop_nth of int
      (** drops every [k]-th enclave output it should dispatch (a broker
          that selectively loses ecall results) *)
  | Env_duplicate  (** dispatches every enclave output twice *)
  | Env_reorder  (** reverses each ecall completion's output burst *)

type t

val create :
  Splitbft_sim.Engine.t ->
  Splitbft_sim.Network.t ->
  Config.t ->
  enclave_of:(Ids.compartment -> Splitbft_tee.Enclave.t) ->
  t
(** Registers the replica's network handler.  Enclaves are created by the
    replica assembly and handed in. *)

val set_fault : t -> fault -> unit
val crash : t -> unit
(** Host crash: unregister from the network, stop timers, and quiesce —
    queued batches and pending ecall work are dropped and any in-flight
    completions are invalidated, so a later {!restart} observes no ghost
    callbacks from the previous incarnation.  The enclaves become
    unreachable (their state survives, as on real hardware), and sealed
    storage survives too. *)

val restart : t -> unit
(** Recover from a host crash: re-register on the network and hand each
    compartment its newest sealed checkpoint blob (or [None]) via
    [In_recover].  The compartments validate the blob against their
    rollback counters; Execution then drives state transfer and reports
    [Out_recovered] once caught up.  No-op if not crashed. *)

val alerts : t -> string list
(** Safety alerts raised by compartments (e.g. rollback detection during
    recovery), oldest first. *)

val recovered : t -> bool
(** True once a restart completed recovery (state transfer caught up) and
    no recovery is currently in progress. *)

val is_crashed : t -> bool

val persisted : t -> (string * string) list
(** The untrusted disk, oldest write first.  It keeps one entry per tag
    (a write replaces the entry under its tag), except ledger entry
    records, which stay until a ledger cut covers them. *)

val unanswered : t -> int
(** Requests this broker holds that no reply has answered yet: one record
    each, with its arrival stamp, its latest copy, its trace context and
    whether it is waiting, queued for a batch or batched. *)

val reply_cache_keys : t -> (int * int64) list
(** (client, timestamp) keys of the retransmit reply cache, most recently
    used first.  A request whose key is here is answered by the broker
    without an ecall. *)

val inflight_keys : t -> (int * int64) list
(** (client, timestamp) of the unanswered requests this broker batched,
    sorted.  A retransmission of one of these is suppressed while it was
    batched less than the inflight TTL ago. *)
