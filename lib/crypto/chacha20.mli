(** ChaCha20 stream cipher (RFC 8439), validated against the RFC test
    vectors.  The keystream is generated by a C stub (key and nonce loads
    are explicit little-endian bytes, so every host gives the same
    output).  On x86-64, runs of 256 bytes go through a 4-block SSE2
    kernel and the rest through the portable scalar block function; other
    architectures use the scalar function throughout.  The test suite
    checks both kernels against an array-based OCaml reference of the
    RFC's quarter round.

    Provides the confidentiality layer for client requests/replies and for
    enclave sealing (see {!Aead}). *)

val key_size : int
(** 32. *)

val nonce_size : int
(** 12. *)

val block : key:string -> counter:int -> nonce:string -> string
(** [block ~key ~counter ~nonce] is the 64-byte keystream block. *)

val encrypt : key:string -> nonce:string -> ?counter:int -> string -> string
(** XORs the keystream into the payload.  Encryption and decryption are the
    same operation.  [counter] defaults to 1 as in RFC 8439 AEAD usage;
    only its low 32 bits count, and it wraps modulo 2{^32} from block to
    block.
    @raise Invalid_argument on wrong key or nonce size. *)

val encrypt_into :
  key:string ->
  nonce:string ->
  ?counter:int ->
  string ->
  src_off:int ->
  bytes ->
  dst_off:int ->
  len:int ->
  unit
(** [encrypt_into ~key ~nonce src ~src_off dst ~dst_off ~len] writes the
    encryption of [src[src_off, src_off + len)] to [dst[dst_off, dst_off +
    len)]; bytes of [dst] outside that range are untouched.
    @raise Invalid_argument on wrong key or nonce size, or a range out of
    bounds. *)

(** {2 Test-only}

    The portable scalar kernel, for the differential test.  Nothing else
    should use this. *)
module Private : sig
  val encrypt_scalar : key:string -> nonce:string -> counter:int -> string -> string
  (** [encrypt] through the scalar block function alone, whatever the
      architecture. *)
end
