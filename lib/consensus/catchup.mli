(** The f+1 rule of state transfer: how a restarted (or lagging) replica
    decides which transferred log entries to install, which view to
    adopt and when it has caught up — shared by the PBFT baseline,
    MinBFT and SplitBFT's Execution compartment.

    Replies are unsigned, so nothing one replier says is trusted alone:
    - an entry is content-addressed (its body must hash to its digest)
      and is installed once f+1 distinct repliers sent the same digest
      for its key;
    - each replier holds one live (height, view) slot, and a retry
      round's reply supersedes the replier's earlier one;
    - the (f+1)-th highest height and view are vouched for: at least one
      honest replica reached them.

    Keys and heights share one type: sequence numbers for PBFT and
    Execution, the primary's USIG counter for MinBFT. *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message

type 'k t

val create : f:int -> compare:('k -> 'k -> int) -> 'k t

val vote : 'k t -> key:'k -> sender:Ids.replica_id -> digest:string -> Message.request list -> bool
(** Tallies one transferred entry.  [true] when the body hashes to
    [digest], this is [sender]'s first vote at [key], and f+1 senders now
    agree on [digest] there: the caller installs the entry. *)

val offer : 'k t -> replier:Ids.replica_id -> height:'k -> view:Ids.view -> unit
(** Records a reply's slot, replacing the replier's earlier one. *)

val absorb :
  Ids.seqno t ->
  Message.state_reply ->
  admit:(Ids.seqno -> bool) ->
  install:(Message.state_entry -> unit) ->
  unit
(** One [State_reply] in sequence-number form: {!vote}s every entry
    whose key passes [admit] (checked first, entry by entry), [install]s
    each that completes f+1, then {!offer}s the slot whose height is the
    highest of the reply's stable point and entries. *)

val vouched : f:int -> ('a -> 'a -> int) -> 'a list -> 'a option
(** [vouched ~f compare values]: the (f+1)-th highest of one value per
    replier; [None] below f+1 values. *)

val vouched_view : 'k t -> Ids.view option
(** The (f+1)-th highest view among the live slots; [None] until f+1
    repliers answered. *)

val caught_up : 'k t -> 'k -> bool
(** [caught_up t height]: f+1 repliers answered and [height] reached the
    (f+1)-th highest height they vouched for. *)

val reset : 'k t -> unit

(** {2 Serving and installing a snapshot}

    Sequence-number form only (PBFT and Execution): MinBFT keys its
    entries by USIG counter and certifies them differently. *)

val entries :
  from:Ids.seqno ->
  upto:Ids.seqno ->
  decided:(Ids.seqno -> string option) ->
  body:(string -> Message.request list option) ->
  Message.state_entry list
(** The decided entries in [[max 1 from, upto]], ascending: [decided]
    gives a slot's batch digest, [body] the batch behind a digest.  The
    empty-batch digest is served as [[]]; a slot whose body is unknown is
    left out. *)

val serve :
  Message.state_request ->
  replier:Ids.replica_id ->
  view:Ids.view ->
  ckpt:Ckpt.t ->
  snapshot:(Ids.seqno -> string) ->
  upto:Ids.seqno ->
  decided:(Ids.seqno -> string option) ->
  body:(string -> Message.request list option) ->
  Message.state_reply
(** The reply to a [State_request]: the stable checkpoint and its proof,
    [snapshot stable] when the requester asks from at or below a stable
    point above 0 (else [""]), and the {!entries} from the requested
    sequence number up to [upto] (the last executed one). *)

val certified_snapshot :
  quorum:int ->
  verify:(Message.checkpoint -> bool) ->
  above:Ids.seqno ->
  open_:(string -> string option) ->
  Message.state_reply ->
  string option
(** The reply's snapshot, opened with [open_], if it may be installed: it
    is non-empty and moves the receiver past [above]; the checkpoint quorum
    in [st_proof] is at [st_stable]; every checkpoint passes [verify]
    (checked in order, stopping at the first failure); and the opened
    snapshot hashes to the certified state digest. *)
