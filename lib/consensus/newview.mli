(** Deterministic NewView construction from a set of ViewChanges.

    The new primary runs this to build the PrePrepares of its NewView, and
    every validator re-runs it to check the NewView it received — "this
    logic is complex and it is repeated when validating the NewView in the
    Preparation Compartment" (§4).  Having a single implementation shared
    by the PBFT baseline and SplitBFT's Preparation compartment keeps the
    two protocols comparable. *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message

val compute :
  view:Ids.view ->
  sender:Ids.replica_id ->
  Message.viewchange list ->
  Ids.seqno * Ids.seqno * Message.preprepare_digest list
(** [compute ~view ~sender vcs] is [(min_s, max_s, preprepares)]:
    [min_s] is the highest stable checkpoint among the ViewChanges,
    [max_s] the highest prepared sequence number, and [preprepares] one
    digest-form PrePrepare per sequence number in [(min_s, max_s]] — the
    batch digest of the highest-view prepared proof for that number, or
    the no-op digest for gaps.  Signatures are left empty; the primary
    signs, validators compare (seq, digest) pairs. *)

val matches :
  expected:Message.preprepare_digest list ->
  actual:Message.preprepare_digest list ->
  bool
(** Positional comparison on (seq, digest). *)

val build :
  view:Ids.view ->
  sender:Ids.replica_id ->
  sign:(string -> string) ->
  Message.viewchange list ->
  Ids.seqno * Ids.seqno * Message.newview
(** The new primary's NewView: {!compute}'s PrePrepares, each signed with
    [sign], then the NewView itself; also returns [(min_s, max_s)].  The
    caller charges the [1 + List.length nv_preprepares] signatures. *)

val plan : Message.newview -> (Ids.seqno * Ids.seqno) option
(** The plan check of a validator that recomputes the NewView:
    [Some (min_s, max_s)] when the NewView's PrePrepares are exactly the
    ones {!compute} derives from its ViewChanges. *)
