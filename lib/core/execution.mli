(** Execution compartment: event handlers 4 and 8 (and the duplicated
    9, 7') of Figure 2.

    Holds the application state and the client session keys.  It collects
    commit certificates (2f+1 matching Commits from distinct Confirmation
    enclaves), matches them with the full-request PrePrepares duplicated
    into its input log, then decrypts, deduplicates and executes client
    operations in sequence order, sending back encrypted, authenticated
    replies.  Corrupted operations (bad authenticator or undecryptable
    payload) execute as no-ops.  It originates Checkpoints every
    [checkpoint_interval] batches, and — for the ledger application —
    writes each closed block to untrusted storage through a sealed ocall,
    the per-block cost visible in Figure 3. *)

module Enclave = Splitbft_tee.Enclave
module Ids = Splitbft_types.Ids

type byz =
  | Exec_honest
  | Exec_leak
      (** behaves correctly but exfiltrates decrypted operation plaintexts
          to untrusted storage — the confidentiality failure of a faulty
          Execution enclave (the [0_exec] entry of Table 1) *)
  | Exec_corrupt  (** executes correctly-authenticated wrong results *)
  | Exec_lie_checkpoint
      (** signs checkpoints over a fabricated state digest, trying to
          stabilize a state no honest replica has — contained because
          stability needs a quorum of matching digests *)

type probe = {
  view : unit -> int;
  last_executed : unit -> Ids.seqno;
  executed_total : unit -> int;
  app_digest : unit -> string;
  last_stable : unit -> Ids.seqno;
  sessions : unit -> int;
  body_bytes : unit -> int;  (** encoded bytes of every batch body held *)
  decoded_executed : unit -> int;
      (** bodies held decoded at or below [last_executed] (none once they
          settle into their encoding) *)
}

(** What the test oracle sees of execution, reported as it happens so the
    history of executed batches lives outside the compartment state. *)
type report =
  | Started  (** a fresh incarnation: nothing executed yet *)
  | Restored of Ids.seqno
      (** accepted a sealed image at this seq: the state through it is back *)
  | Executed of Ids.seqno * string  (** (seq, batch digest), in seq order *)

val make :
  ?byz:byz ->
  ?report:(report -> unit) ->
  Config.t ->
  app:(unit -> Splitbft_app.State_machine.t) ->
  Enclave.program * probe
(** [app] is a factory so an enclave restart gets a fresh instance (state
    recovery goes through checkpoints/sealing, not process memory). *)

(** {2 Sealed checkpoint records}

    The disk tags of the sealed checkpoint log (DESIGN.md §6a): the image
    under ["ckpt:execution"], and the base and the deltas of generation
    [gen] under a slot of their own, one of two by [gen]'s parity. *)

val base_tag : int -> string
val delta_tag : int -> string
