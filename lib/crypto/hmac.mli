(** HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.

    The paper authenticates client requests and replies with HMAC-SHA2; we
    use the same construction for that role, for AEAD tags, and as the PRF
    of the idealized signature scheme.

    A long-lived key is {!prepare}d once by whatever owns it, as ring's
    [hmac::Key] is: the two pad blocks are absorbed at preparation, so each
    tag costs only the compressions of the message and the outer digest.
    Tags under a prepared key are byte-identical to the string-keyed
    functions, which are themselves [prepare] followed by {!mac_with}.

    Every tag is computed in one module-level SHA-256 context restarted
    from the key's pad states, with module-level scratch for the inner
    digest: a tag allocates nothing but the string it returns ({!mac_with})
    or nothing at all ({!mac_sub_into}, {!verify_with}).  Like
    {!Sha256.digest}, this assumes a single domain. *)

type key
(** A prepared key: the SHA-256 states after absorbing [k0 xor ipad] and
    [k0 xor opad].  Immutable; its lifetime is that of its owner. *)

val prepare : string -> key
(** Any key length; keys longer than the block size are hashed first. *)

val mac_with : key -> string list -> string
(** 32-byte tag over the concatenation of the parts.  Does not change the
    key. *)

val mac_sub_into : key -> string list -> string -> int -> int -> bytes -> int -> unit
(** [mac_sub_into key parts s off len dst dst_off] writes the 32-byte tag
    over the concatenation of [parts] and [s[off, off + len)] to
    [dst[dst_off, dst_off + 32)].
    @raise Invalid_argument if either range is out of bounds. *)

val verify_with : key -> msg:string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]; [false]
    if [tag] is not 32 bytes long. *)

val mac : key:string -> string -> string
(** 32-byte tag. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]. *)

val equal_constant_time : string -> string -> bool
(** Timing-safe string equality (also exported for tag comparisons made by
    other modules). *)

val equal_sub_constant_time : string -> int -> string -> int -> int -> bool
(** [equal_sub_constant_time a aoff b boff len] compares [a[aoff, aoff +
    len)] with [b[boff, boff + len)], reading every byte whatever the first
    difference.
    @raise Invalid_argument if either range is out of bounds. *)
