(** Metered wrappers over the shared consensus core for logic every
    compartment runs: the checkpoint handler (9), the sealed-checkpoint
    envelope, and signing/verification helpers that charge the enclave for
    every signature they create or check.

    The paper deliberately duplicates these handlers across compartments so
    each runs independently (P2); here they share one implementation, but
    each compartment owns its own {!Splitbft_consensus.Ckpt.t} instance and
    view variable, so at run time the state is fully replicated per
    enclave, as in the paper. *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Enclave = Splitbft_tee.Enclave

val on_checkpoint :
  Enclave.env ->
  exec_lookup:Splitbft_types.Validation.key_lookup ->
  Splitbft_consensus.Ckpt.t ->
  Message.checkpoint ->
  on_stable:(Ids.seqno -> unit) ->
  unit
(** Handler (9): drop a checkpoint at or below the current stable mark
    before any crypto is charged; otherwise charge and verify the
    Execution-enclave signature, log the message, and on a quorum advance
    the stable sequence number, retaining the proving quorum and invoking
    [on_stable] so the compartment can garbage-collect its logs. *)

(** {2 Metered crypto helpers} *)

val charge_sign : Enclave.env -> int -> unit

val sign_with : Enclave.env -> string -> string
(** Sign with the enclave's own key (charges one signature). *)

val metered :
  Enclave.env -> Splitbft_types.Validation.key_lookup -> Splitbft_types.Validation.key_lookup
(** [metered env lookup] is [lookup], charging one signature verification
    per key it looks up.  Every check in {!Splitbft_types.Validation} and
    {!Splitbft_consensus.View_change} looks up one key per signature it
    verifies, so passing it a metered lookup charges each verification as
    it is performed (a failing check stops the charging).  Call sites run
    their cheap structural checks first, so a message that cannot change
    the outcome is dropped before any crypto is charged. *)

(** {2 Sealed checkpoints}

    The compartments' use of {!Splitbft_consensus.Sealed_image}: the
    ["ckpt"] counter, the enclave's sealing key, and a one-slot
    tolerance because the host persists blobs asynchronously. *)

val seal_checkpoint :
  Enclave.env -> tag:string -> (Splitbft_codec.Writer.t -> 'a -> unit) -> 'a -> unit
(** Bumps the counter, seals the image and hands it to the host to
    persist under [tag]. *)

val open_checkpoint :
  Enclave.env ->
  who:string ->
  tag:string ->
  (string * string) list ->
  (Splitbft_codec.Reader.t -> 'a) ->
  'a Splitbft_consensus.Sealed_image.verdict
(** Judges the image under [tag] among the records a restarted enclave
    was offered (none under [tag] counts as no image). *)
