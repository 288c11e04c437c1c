(** Signature counting for ViewChange / NewView messages: the arithmetic
    that prices verifying someone else's (the PBFT baseline's cost
    model). *)

module Message = Splitbft_types.Message

val count_sigs : Message.prepared_proof list -> int
(** Signatures embedded in a list of prepared proofs: one PrePrepare digest
    plus the Prepares behind it, per proof. *)

val viewchange_sig_count : Message.viewchange -> int
(** Signatures to verify one ViewChange deeply: its own, its checkpoint
    proof and its prepared proofs. *)

val newview_sig_count : Message.newview -> int
(** Signatures to verify one NewView deeply: its own, each embedded
    ViewChange (deeply) and the re-issued PrePrepare digests. *)
