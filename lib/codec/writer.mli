(** Append-only binary encoder.

    All multi-byte integers are little-endian.  Variable-length payloads are
    length-prefixed with a LEB128 varint.  This is the wire format used
    between replicas, between enclaves and their broker, and for sealed
    state — the role serde played in the paper's Rust implementation. *)

type t

val create : ?initial_size:int -> unit -> t
val contents : t -> string
val length : t -> int

val u8 : t -> int -> unit
val u16 : t -> int -> unit
val u32 : t -> int -> unit

val u64 : t -> int64 -> unit

val varint : t -> int -> unit
(** Unsigned LEB128; [v] must be non-negative. *)

val bool : t -> bool -> unit
val float : t -> float -> unit

val bytes : t -> string -> unit
(** Length-prefixed byte string. *)

val raw : t -> string -> unit
(** Appends bytes with no length prefix. *)

val option : t -> (t -> 'a -> unit) -> 'a option -> unit

val list : t -> (t -> 'a -> unit) -> 'a list -> unit
(** Varint element count followed by the elements.  The input is traversed
    once: elements are counted while they are emitted and the count is
    patched in front of them afterwards. *)

val nested : t -> (t -> 'a -> unit) -> 'a -> unit
(** [nested t enc v] writes [enc v] as a length-prefixed payload directly
    into [t], producing exactly the bytes of [bytes t (to_string enc v)]
    without serializing into a fresh buffer and copying.  Readers consume
    it with {!Reader.bytes}. *)

val append : t -> t -> unit
(** [append t src] appends the bytes written to [src] so far, with no
    length prefix, as one blit. *)

val to_string : (t -> 'a -> unit) -> 'a -> string
(** [to_string enc v] encodes [v] with [enc] and returns the bytes.  The
    encode runs in one reused arena, so a large encode is written once and
    copied out once; an [enc] that itself calls [to_string] gets a fresh
    writer for the inner call.  The result is the same either way. *)
