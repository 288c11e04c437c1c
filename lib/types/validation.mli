(** Certificate and quorum validation.

    These checks embody principle P5 of the paper: a compartment acts only
    on quorum certificates, never on individual messages, so a single
    faulty sender cannot corrupt the receiving compartment.  Verification
    is pure; callers charge the metered signature-verification costs. *)

type key_lookup = Ids.replica_id -> Splitbft_crypto.Signature.public option
(** Resolves the signing key of a peer (per-compartment tables in SplitBFT,
    per-replica in the PBFT baseline). *)

val distinct_senders : int list -> bool

(** {2 Signature checks} *)

val verify_with : key_lookup -> Ids.replica_id -> string -> string -> bool
(** [verify_with lookup sender bytes signature] — the primitive every
    [verify_*] below reduces to; exposed so callers can verify against
    signing bytes they already hold (e.g. re-using a batch digest computed
    once instead of re-hashing inside {!verify_preprepare}). *)

val verify_preprepare : key_lookup -> Message.preprepare -> bool
val verify_preprepare_digest : key_lookup -> Message.preprepare_digest -> bool
val verify_prepare : key_lookup -> Message.prepare -> bool
val verify_commit : key_lookup -> Message.commit -> bool
val verify_checkpoint : key_lookup -> Message.checkpoint -> bool
val verify_viewchange : key_lookup -> Message.viewchange -> bool
val verify_newview : key_lookup -> Message.newview -> bool

(** {2 Certificates} *)

val prepare_cert_complete :
  f:int -> Message.preprepare_digest -> Message.prepare list -> bool
(** One PrePrepare (digest form) plus at least [2f] Prepares from distinct
    senders, all matching (view, seq, batch digest) and none sent by the
    PrePrepare's sender. *)

val commit_quorum_complete :
  quorum:int -> view:Ids.view -> seq:Ids.seqno -> digest:string ->
  Message.commit list -> bool

val checkpoint_quorum_complete : quorum:int -> Message.checkpoint list -> bool
(** At least [quorum] checkpoints from distinct senders agreeing on
    (seq, state digest). *)

val checkpoint_quorum_seq : quorum:int -> Message.checkpoint list -> Ids.seqno option
(** The sequence number proven stable by the given set, if any. *)
