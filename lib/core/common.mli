(** Metered wrappers over the shared consensus core for logic every
    compartment runs: the checkpoint handler (9), the checkpoint/view part
    of NewView handling (7'), and signing/verification helpers that charge
    the enclave for every signature they create or check.

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

val newview_shallow_ok :
  Enclave.env ->
  f:int ->
  n:int ->
  prep_lookup:Splitbft_types.Validation.key_lookup ->
  conf_lookup:Splitbft_types.Validation.key_lookup ->
  Message.newview ->
  bool
(** Checks what Confirmation/Execution validate: the sender is the new
    primary and a [2f+1] quorum of distinct ViewChange senders is present
    (both free), then the NewView signature (a Preparation enclave) and
    each embedded ViewChange signature (Confirmation enclaves), charging
    each verification it performs — but {e not} the embedded Prepares,
    per §4. *)

(** {2 Metered crypto helpers} *)

val charge_sign : Enclave.env -> int -> unit

val sign_with : Enclave.env -> string -> string
(** Sign with the enclave's own key (charges one signature). *)

(** {2 Metered verification}

    Each helper charges one verification per signature it checks, then
    checks it.  Call sites run their cheap structural checks first, so a
    message that cannot change the outcome is dropped before any crypto is
    charged. *)

val verify_preprepare :
  Enclave.env ->
  Splitbft_types.Validation.key_lookup ->
  Message.preprepare ->
  digest:string ->
  bool
(** [digest] must be [Message.digest_of_batch pp.batch], so the batch is
    hashed once per handler instead of again inside signature
    verification. *)

val verify_preprepare_digest :
  Enclave.env -> Splitbft_types.Validation.key_lookup -> Message.preprepare_digest -> bool

val verify_prepare :
  Enclave.env -> Splitbft_types.Validation.key_lookup -> Message.prepare -> bool

val verify_commit :
  Enclave.env -> Splitbft_types.Validation.key_lookup -> Message.commit -> bool

val verify_checkpoint :
  Enclave.env -> Splitbft_types.Validation.key_lookup -> Message.checkpoint -> bool

val verify_newview :
  Enclave.env -> Splitbft_types.Validation.key_lookup -> Message.newview -> bool

val verify_viewchange_deep :
  Enclave.env ->
  f:int ->
  vc_lookup:Splitbft_types.Validation.key_lookup ->
  ckpt_lookup:Splitbft_types.Validation.key_lookup ->
  proof_lookup:Splitbft_types.Validation.key_lookup ->
  Message.viewchange ->
  bool
(** {!Splitbft_types.Validation.verify_viewchange_deep}, charging each
    verification as it is performed (a failing check stops the charging).
    Nothing is memoized: a NewView's ViewChanges are deep-checked in full
    every time. *)

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
  string option ->
  (Splitbft_codec.Reader.t -> 'a) ->
  'a Splitbft_consensus.Sealed_image.verdict
(** Judges the blob a restarted enclave was offered. *)
