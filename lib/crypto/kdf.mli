(** HKDF-SHA256 key derivation (RFC 5869).

    Used to derive enclave sealing keys from (platform secret, measurement),
    per-direction session keys from a client master secret, and MAC keys
    inside {!Aead}. *)

val extract : salt:string -> ikm:string -> string
(** 32-byte pseudo-random key. *)

val expand : prk:string -> info:string -> length:int -> string
(** Output keying material of [length] bytes ([length <= 255 * 32]). *)

val derive : ?salt:string -> ikm:string -> info:string -> length:int -> unit -> string
(** [extract] followed by [expand]; [salt] defaults to all zeros, a key
    {!Hmac.prepare}d once for the whole process. *)
