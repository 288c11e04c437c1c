(** The PBFT-family view change, written once for the PBFT baseline and
    SplitBFT's three compartments (§4; PBFT §4.4–4.5): building a
    ViewChange, verifying one deeply, tallying them per target view, and
    the structural rule every consumer applies to a NewView before it
    enters that view.  The NewView's plan (which PrePrepares it re-issues)
    is {!Newview}'s.

    Signing and verification costs stay with the callers: [sign] is a
    plain signing function, and a caller meters verification through the
    key lookups it passes (one charge per lookup, i.e. per signature).

    {b Once per view.}  A consumer enters each view through a NewView at
    most once: {!acceptable} refuses a NewView for a view at or below the
    highest one it {!enter}ed (0 at genesis), by accepting a NewView or by
    sending one as the view's primary.  A replayed NewView would otherwise
    reset the view's logs and let a second PrePrepare at an already
    prepared (view, seq) through.  A view restored from a sealed image or
    adopted from state transfer's vouched view does not count as entered:
    the logs of that view were lost (a restart) or never held (a
    catch-up), so its NewView must still be able to re-issue its
    proposals. *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation

(** {2 ViewChange messages} *)

val make :
  new_view:Ids.view ->
  last_stable:Ids.seqno ->
  proof:Message.checkpoint list ->
  prepared:Message.prepared_proof list ->
  sender:Ids.replica_id ->
  sign:(string -> string) ->
  Message.viewchange
(** A ViewChange for [new_view], signed with [sign]. *)

val verify_prepared_proof : f:int -> Validation.key_lookup -> Message.prepared_proof -> bool
(** {!Validation.prepare_cert_complete} plus the signature of every
    element. *)

val verify_deep :
  f:int ->
  vc_lookup:Validation.key_lookup ->
  ckpt_lookup:Validation.key_lookup ->
  proof_lookup:Validation.key_lookup ->
  Message.viewchange ->
  bool
(** Signature of the ViewChange itself ([vc_lookup] — Confirmation enclaves
    in SplitBFT), of every checkpoint in its proof ([ckpt_lookup] —
    Execution enclaves), and of every nested prepared proof
    ([proof_lookup] — Preparation enclaves); checks the checkpoint quorum
    covers [vc_last_stable].  Stops at the first failing signature.  The
    PBFT baseline passes the same replica table for all three. *)

val verify_newview :
  nv_lookup:Validation.key_lookup -> vc_ok:(Message.viewchange -> bool) -> Message.newview -> bool
(** The NewView's own signature, then [vc_ok] on each embedded ViewChange:
    {!verify_deep} where the full plan is checked (PBFT, Preparation), the
    ViewChange signature alone where it is not (Confirmation, Execution:
    §4). *)

(** {2 Per-consumer view-change state} *)

type t

val create : unit -> t

val tally : t -> Message.viewchange -> bool
(** Records a (verified) ViewChange under its target view; [false] for a
    view already entered or a sender already counted there. *)

val viewchanges : t -> Ids.view -> Message.viewchange list
(** The tally for one target view, newest first. *)

val tallied_views : t -> Ids.view list
(** Target views with a tally, ascending. *)

val forget : t -> upto:Ids.view -> unit
(** Drops the tallies for views at or below [upto]. *)

val enter : t -> Ids.view -> unit
(** Records entering [view] through a NewView and drops the tallies for it
    and every lower view. *)

val reset : t -> unit
(** Back to genesis (a restarted PBFT replica). *)

val acceptable : t -> n:int -> current:Ids.view -> Message.newview -> bool
(** The structural rule all four consumers share, checked before any
    signature: the view is at least [current] and above the highest view
    {!enter}ed, the sender is the view's primary, and the NewView carries
    at least 2f+1 ViewChanges from distinct senders, each for the
    NewView's view. *)
