(** Counter-bound sealed checkpoint images: the rollback defense every
    sealer shares (§4–5; DESIGN.md §6a).

    An image is [u64 counter] followed by a caller-written body, sealed
    by the caller's sealing function.  The counter is a fresh value of
    the sealer's monotonic ["ckpt"] counter, so a restarted incarnation
    can tell the newest blob from a replayed older one.  Each caller
    keeps its own body fields and its own restore steps; this module
    owns the envelope, the freshness rule and the refusal texts.

    [slack] is how many of the newest seals may legitimately be missing
    from disk.  It is 1 where the untrusted host persists a blob
    asynchronously after the enclave bumped the counter (the three
    SplitBFT compartments, the execution ledger): a crash between the two
    loses exactly the newest seal.  It is 0 where the blob is on disk
    before the seal returns (the PBFT and MinBFT baselines). *)

module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

val seal : counter:int64 -> seal:(string -> string) -> (W.t -> 'a -> unit) -> 'a -> string
(** [seal ~counter ~seal write body] writes [counter], then [body] through
    [write], and seals the image with [seal]. *)

val fresh : slack:int -> counter:int64 -> int64 -> bool
(** [fresh ~slack ~counter bound]: an artifact bound to [bound] is the
    newest one the platform counter [counter] allows, up to [slack] seals
    behind.  An artifact bound {e past} the counter (a wiped counter) is
    never fresh.  No artifact at all counts as bound to 0. *)

type 'a verdict =
  | Fresh  (** no blob, and the counter says none was ever persisted *)
  | Restored of 'a  (** the body of a blob bound to a fresh counter value *)
  | Refused of string  (** ["<who>: ..."]; the caller halts and alerts *)

val check :
  who:string ->
  slack:int ->
  counter:int64 ->
  unseal:(string -> (string, string) result) ->
  string option ->
  (R.t -> 'a) ->
  'a verdict
(** [check ~who ~slack ~counter ~unseal blob read] judges the blob a
    restarted incarnation was offered against the platform counter's
    current value [counter]: an absent blob though the counter moved past
    [slack], a blob that does not unseal, one whose image does not parse
    (counter, then [read]) exactly, and one bound to a stale counter are
    each refused. *)
