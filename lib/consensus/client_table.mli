(** Per-client session state: execute-once bookkeeping with reply caching
    (wrapping {!Splitbft_types.Client_dedup}) plus the ordering-side
    "already assigned a sequence number" set a primary consults before
    re-proposing a timestamp.

    The two sides deliberately differ in durability: executed state is
    permanent, while an assignment lasts until the checkpoint covering its
    seq stabilises, or until view entry — a request assigned in a dead view
    may have been lost with it.  Re-ordering either is safe because
    execution deduplicates by exact timestamp. *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Client_dedup = Splitbft_types.Client_dedup

type t

val create : unit -> t

(** {2 Execution side} *)

val entry : t -> Ids.client_id -> Client_dedup.t
(** Find-or-create the client's dedup record. *)

val find : t -> Ids.client_id -> Client_dedup.t option
val executed : t -> Ids.client_id -> int64 -> bool

val record : t -> Ids.client_id -> int64 -> Message.reply option -> unit
(** @raise Invalid_argument if the timestamp was already recorded. *)

val cached_reply : t -> Ids.client_id -> int64 -> Message.reply option

(** {2 Ordering side} *)

val note_assigned : ?seq:Ids.seqno -> t -> Ids.client_id -> int64 -> unit
(** Marks a timestamp as assigned to sequence number [seq].  Without
    [seq] (a host that notes a request when it queues it, before it is
    numbered) the assignment outlives every {!prune_assignments}. *)

val already_assigned : t -> Ids.client_id -> int64 -> bool
(** Assigned in the current view {e or} already executed. *)

val reset_assignments : t -> unit
(** View entry: allow retransmissions of possibly-lost requests to be
    ordered again. *)

val prune_assignments : t -> upto:Ids.seqno -> unit
(** Checkpoint GC: drops every assignment at or below [upto]. *)

val assignments : t -> int
(** Assignments held (probe/metric). *)

val clients : t -> int
(** Number of clients with executed state (probe/metric). *)
