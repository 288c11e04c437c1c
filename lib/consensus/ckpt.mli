(** Checkpoint certificate tracking: the stable low-water proof and the
    per-sequence tallies still being collected (PBFT §4.3).

    Pure protocol state — signature verification and enclave metering stay
    with the caller, so the monolithic PBFT replica and each SplitBFT
    compartment can wrap this with their own cost accounting. *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message

type t

val create : quorum:int -> t
val last_stable : t -> Ids.seqno

val proof : t -> Message.checkpoint list
(** The quorum that proved {!last_stable}; [[]] before the first stable
    checkpoint. *)

val store : t -> Message.checkpoint -> unit
(** Records a checkpoint vote, deduplicating by sender.  Does not try to
    advance — use for own checkpoints, which never complete a quorum
    alone. *)

val observe : t -> Message.checkpoint -> on_stable:(Ids.seqno -> unit) -> unit
(** Records an (already verified) peer checkpoint and, if it completes a
    quorum above the current stable point, advances, retains the proving
    quorum, prunes stale tallies and invokes [on_stable].  Checkpoints at
    or below the stable mark are discarded. *)

val try_advance : t -> Ids.seqno -> on_stable:(Ids.seqno -> unit) -> unit

val force_stable : t -> Ids.seqno -> unit
(** Raises the stable mark without a proving quorum (view entry adopting a
    NewView's stable point); keeps the previous proof. *)

val absorb_newview : t -> Message.newview -> unit
(** Adopts the highest checkpoint certificate proven inside the NewView's
    ViewChanges. *)
