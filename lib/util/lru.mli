(** Bounded least-recently-used map with O(1) find/add/evict and strictly
    capacity-bounded memory.

    Backs the broker's retransmit reply cache, keyed by (client,
    timestamp) through [Htbl.Int_int64], and the workload generator's
    client identity cache, keyed by identity through [Htbl.Int].  Both run
    on hot paths of unbounded-length executions, so the structure must
    never grow with history. *)

module Make (H : Hashtbl.S) : sig
  type key = H.key
  type 'a t

  val create : capacity:int -> 'a t
  (** A capacity of [0] is legal and makes every operation a no-op miss.
      Raises [Invalid_argument] on negative capacity. *)

  val capacity : 'a t -> int
  val length : 'a t -> int

  val find : 'a t -> key -> 'a option
  (** Promotes the entry to most-recently-used and counts a hit; absent
      keys count a miss. *)

  val add : 'a t -> key -> 'a -> unit
  (** Inserts or overwrites (promoting to most-recently-used), evicting the
      least-recently-used entry when the capacity is exceeded. *)

  val clear : 'a t -> unit
  (** Drops every entry; hit/miss statistics are preserved. *)

  val hits : 'a t -> int
  val misses : 'a t -> int
  (** Lifetime lookup statistics (survive {!clear}). *)

  val fold : 'a t -> init:'b -> f:('b -> key -> 'a -> 'b) -> 'b
  (** Most- to least-recently-used order. *)
end
