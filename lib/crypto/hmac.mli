(** HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.

    The paper authenticates client requests and replies with HMAC-SHA2; we
    use the same construction for that role, for AEAD tags, and as the PRF
    of the idealized signature scheme.

    A long-lived key is {!prepare}d once by whatever owns it, as ring's
    [hmac::Key] is: the two pad blocks are absorbed at preparation, so each
    tag costs only the compressions of the message and the outer digest.
    Tags under a prepared key are byte-identical to the string-keyed
    functions, which are themselves [prepare] followed by {!mac_with}. *)

type key
(** A prepared key: the SHA-256 states after absorbing [k0 xor ipad] and
    [k0 xor opad].  Immutable; its lifetime is that of its owner. *)

val prepare : string -> key
(** Any key length; keys longer than the block size are hashed first. *)

val mac_with : key -> string list -> string
(** 32-byte tag over the concatenation of the parts.  Does not change the
    key. *)

val verify_with : key -> msg:string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]. *)

val mac : key:string -> string -> string
(** 32-byte tag. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]. *)

val equal_constant_time : string -> string -> bool
(** Timing-safe string equality (also exported for tag comparisons made by
    other modules). *)
