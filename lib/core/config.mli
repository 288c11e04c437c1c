(** SplitBFT replica configuration and the static key tables of the
    deployment. *)

module Ids = Splitbft_types.Ids
module Validation = Splitbft_types.Validation

type threading =
  | Per_enclave
      (** one broker thread per enclave — the paper's multithreaded setup *)
  | Single_thread
      (** all ecalls through one thread — the ablation of §6 showing the
          ≈1190 rps ceiling *)

type t = {
  n : int;
  id : Ids.replica_id;
  cost : Splitbft_tee.Cost_model.t;
  threading : threading;
  batch_size : int;  (** 1 = unbatched *)
  batch_timeout_us : float;
  checkpoint_interval : int;
  watermark_window : int;
  suspect_timeout_us : float;
  viewchange_timeout_us : float;
  recovery_retry_us : float;
      (** while recovering after a restart, the broker re-prompts the
          Execution compartment at this period so a state-request round
          lost to in-flight message drop does not stall catch-up *)
  lanes : int;
      (** number of consensus lanes — concurrent protocol instances over a
          partition of the sequence space ([seq] belongs to lane
          [(seq - 1) mod lanes]).  Each lane gets its own broker ecall
          threads under {!Per_enclave} threading, so
          preprepare/prepare/commit rounds for different seqnos pipeline
          instead of queueing behind one another.  [1] reproduces the
          serial single-pipeline behavior bit-for-bit *)
  exec_workers : int;
      (** size of the Execution compartment's in-enclave worker pool.
          Batches with disjoint read/write footprints (per
          {!Splitbft_app.State_machine.t.classify}) execute on parallel
          workers; conflicting batches are serialized in sequence order so
          results stay identical to serial execution.  [1] reproduces the
          serial cost accounting bit-for-bit *)
  inflight_ttl_us : float;
      (** age bound on the broker's inflight retransmit-suppression
          entries.  A request stuck in flight longer than this (e.g.
          dropped during a primary crash) stops suppressing client
          retransmits, so the retry can be re-driven; keyed to the client
          retry period (default 500 ms ≥ the client's 400 ms timer) *)
  segment_entries : int;
      (** rotation interval (entries per segment) of the Execution
          compartment's append-only rollback-protected ledger
          ({!Splitbft_storage.Ledger}); [0] disables the storage layer
          entirely — no ledger appends, no follower feed, reproducing the
          pre-storage behavior bit-for-bit *)
}

val default : n:int -> id:Ids.replica_id -> t

val storage : t -> bool
(** [segment_entries > 0] — the append-only ledger and follower feed are
    enabled. *)

val f : t -> int
val quorum : t -> int
val primary_of_view : t -> Ids.view -> Ids.replica_id

(** {2 Enclave key tables}

    Signing publics of the enclaves of each compartment type, indexed by
    replica id.  Derived deterministically from the deployment identities
    (the paper assumes public keys are known to all participants). *)

val prep_public : n:int -> Validation.key_lookup
val conf_public : n:int -> Validation.key_lookup
val exec_public : n:int -> Validation.key_lookup
