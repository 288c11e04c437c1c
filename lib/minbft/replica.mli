(** MinBFT replica (Veronese et al.) — the hybrid-protocol comparison
    point of Table 1.

    [n = 2f + 1] replicas; the trusted {!Usig} rules out equivocation, so
    two phases (Prepare from the primary, Commit from backups) and [f + 1]
    matching attestations decide a batch.  Normal operation, request
    batching, reply caching, periodic checkpoints, and a simplified
    suspicion-triggered view change are implemented (the full MinBFT view
    change with state certificates is out of scope; see DESIGN.md).

    The fault-model experiments use {!set_byzantine}: in particular
    [Faulty_tee_equivocate] compromises the USIG (counter rollback) and
    shows that a {e single} faulty TEE breaks a hybrid protocol's safety —
    the row of Table 1 SplitBFT improves on. *)

module Ids = Splitbft_types.Ids

type config = {
  n : int;  (** [2f + 1] *)
  id : Ids.replica_id;
  cost : Splitbft_tee.Cost_model.t;
  workers : int;
  batch_size : int;
  batch_timeout_us : float;
  checkpoint_interval : int;
  suspect_timeout_us : float;
  recovery_retry_us : float;
      (** while recovering, re-broadcast the state request at this period —
          commits in flight during the crash are lost, so one round can
          leave a gap below the vouched head *)
}

val default_config : n:int -> id:Ids.replica_id -> config

type byzantine_mode =
  | Honest
  | Faulty_tee_equivocate
      (** primary with a compromised USIG: same counter on two conflicting
          Prepares sent to disjoint backup sets *)
  | Mute_commits
  | Corrupt_execution

type t

val create :
  Splitbft_sim.Engine.t ->
  Splitbft_sim.Network.t ->
  config ->
  app:Splitbft_app.State_machine.t ->
  t

val id : t -> Ids.replica_id
val view : t -> Ids.view
val executed_count : t -> int
val last_executed_counter : t -> int64
val executed_log : t -> (int64 * string) list
(** (execution index, batch digest), oldest first: the test oracle's
    record, kept outside the protocol state and the sealed image; a restore
    cuts it at the restored index. *)

val app_digest : t -> string

val crash : t -> unit
(** Quiesce: bump the incarnation (dropping deferred work), stop all
    timers, clear in-flight request state, leave the network.  The sealed
    checkpoint log, the platform counters, and the USIG survive. *)

val is_crashed : t -> bool
val set_byzantine : t -> byzantine_mode -> unit

val restart : t -> unit
(** Wipe volatile state, unseal the last checkpoint, and verify it is bound
    to the current monotonic counter — a mismatch (rollback) is refused
    loudly ({!recovery_alerts}) and the replica stays down.  Otherwise the
    replica rejoins and catches up from peers via state transfer. *)

val is_recovering : t -> bool

val recovered : t -> bool
(** At least one restart completed recovery and none is in progress. *)

val recovery_alerts : t -> string list
(** Rollback/unseal refusals, oldest first. *)

val persisted : t -> (string * string) list
(** Simulated disk: the newest sealed checkpoint blob, tagged
    ["ckpt:minbft"].  A write replaces the entry under its tag. *)

val tamper_counter : t -> string -> unit
(** Fault injection: reset the named platform monotonic counter (the
    rollback attack the sealed checkpoints must detect). *)
