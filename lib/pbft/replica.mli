(** Baseline PBFT replica (Castro & Liskov, OSDI'99) — the paper's
    comparison system.

    Implements the full protocol: three-phase normal operation
    (PrePrepare / Prepare / Commit) with request batching, reply caching
    and client retransmission handling, periodic checkpointing with
    log garbage collection, and the view-change / new-view sub-protocol.
    Replicas sign protocol messages and authenticate clients with HMAC
    authenticators, as configured in the paper's evaluation (§6).

    Performance model: message authentication and networking are handled
    by a work-stealing pool of [workers] threads (the tokio pool of the
    Rust baseline), while the protocol core is a single serial resource —
    "networking and message authentication are parallelized, but the core
    protocol is not". *)

module Ids = Splitbft_types.Ids

type config = {
  n : int;  (** number of replicas, [3f + 1] *)
  id : Ids.replica_id;
  cost : Splitbft_tee.Cost_model.t;
  workers : int;  (** worker-pool size; the paper uses 4 *)
  batch_size : int;  (** 1 = unbatched *)
  batch_timeout_us : float;
  checkpoint_interval : int;  (** in sequence numbers (batches) *)
  watermark_window : int;
  suspect_timeout_us : float;  (** request timer driving view changes *)
  viewchange_timeout_us : float;  (** retry timer for a stalled view change *)
  recovery_retry_us : float;
      (** while recovering, period between repeated StateRequest rounds *)
}

val default_config : n:int -> id:Ids.replica_id -> config

type t

val create :
  Splitbft_sim.Engine.t ->
  Splitbft_sim.Network.t ->
  config ->
  app:Splitbft_app.State_machine.t ->
  t
(** Builds the replica, derives its signing identity, and registers its
    network handler at [Addr.replica config.id]. *)

(** {2 Introspection (used by the harness and tests)} *)

val id : t -> Ids.replica_id
val view : t -> Ids.view
val last_executed : t -> Ids.seqno
val low_watermark : t -> Ids.seqno

val viewchange_tallies : t -> Ids.view list
(** Target views this replica holds a ViewChange tally for, ascending. *)

val executed_count : t -> int

val executed_log : t -> (Ids.seqno * string) list
(** (seq, batch digest) for every executed slot, oldest first: the test
    oracle's record, kept outside the protocol state and the sealed image;
    a restore cuts it at the restored seq. *)

val app_digest : t -> string

val persisted : t -> (string * string) list
(** The disk, oldest write first: the newest sealed checkpoint (tag
    ["ckpt:pbft"]) and the application's persist side effects (ledger
    blocks, one tag each).  A write replaces the entry under its tag. *)

val retained : t -> int * int
(** (executed digests, request bodies) held for state transfer and batch
    fetches.  Both are cut one checkpoint interval below the stable
    checkpoint, so neither grows with the run. *)

val crash : t -> unit
(** Host crash: unregisters from the network, stops all timers, and drops
    all queued host-side work so a later {!restart} cannot observe ghost
    callbacks from the previous incarnation.  Sealed checkpoints (the
    "disk") survive. *)

val restart : t -> unit
(** Crash-recovery: wipe volatile state, unseal the newest checkpoint and
    verify it against the platform's monotonic counter (a detected
    rollback is refused loudly — see {!recovery_alerts} — and the replica
    stays down), then rejoin the network and catch up from peers via
    StateRequest/StateReply before participating again. *)

val is_crashed : t -> bool
val is_recovering : t -> bool

val recovered : t -> bool
(** True once a restart finished state transfer and caught up. *)

val recovery_alerts : t -> string list
(** Rollback-refusal (and other recovery-safety) alerts, oldest first. *)

val tamper_counter : t -> string -> unit
(** Rollback attack: reset a named platform counter (e.g. ["ckpt"]) behind
    the replica's back; the next {!restart} must refuse the stale seal. *)

(** {2 Byzantine behaviour injection (harness)} *)

type byzantine_mode =
  | Honest
  | Equivocate of { accomplices : Ids.replica_id list }
      (** primary sends conflicting PrePrepares to disjoint backup halves,
          shows both versions to its accomplices, and double-votes
          (prepares + commits) for both — with [f] accomplices in [Collude]
          mode this deterministically violates safety, which is impossible
          with at most [f] faulty replicas *)
  | Collude
      (** echoes Prepare/Commit for any PrePrepare it sees, without conflict
          checks — the accomplice that makes equivocation succeed once more
          than [f] replicas are faulty *)
  | Mute_commits  (** participates until the commit phase, then withholds *)
  | Corrupt_execution  (** executes operations incorrectly and lies in replies *)

val set_byzantine : t -> byzantine_mode -> unit
val byzantine_mode : t -> byzantine_mode
