(** Binary decoder matching {!Writer}.

    Decoding functions raise {!Error} on truncated or malformed input;
    {!parse} converts that into a [result] at message boundaries, which is
    how untrusted bytes enter a compartment. *)

exception Error of string

type t

val of_string : string -> t
val remaining : t -> int
val at_end : t -> bool
val u8 : t -> int
val u16 : t -> int
val u32 : t -> int
val u64 : t -> int64
val varint : t -> int
val bool : t -> bool
val float : t -> float

val bytes : t -> string
(** Length-prefixed byte string written by {!Writer.bytes}. *)

val raw : t -> int -> string
(** [raw t n] reads exactly [n] bytes. *)

val option : t -> (t -> 'a) -> 'a option

val list : ?max_len:int -> t -> (t -> 'a) -> 'a list
(** [max_len] (default [1_000_000]) bounds the announced element count so a
    malformed length prefix cannot force a huge allocation. *)

val parse : ?exact:bool -> (t -> 'a) -> string -> ('a, string) result
(** Runs a decoder over a whole string.  With [exact] (default [true]) the
    decoder must consume every byte. *)
