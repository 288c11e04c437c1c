(** Decimal text of integers without the C format parser, for strings
    built on every request (AEAD associated data).

    The text is byte-identical to [string_of_int] and [Int64.to_string];
    negative values, and int64 values beyond [max_int],
    are handed to those functions. *)

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int n]. *)

val add_int64 : Buffer.t -> int64 -> unit
(** Appends [Int64.to_string n]. *)
