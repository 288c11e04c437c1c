(** ChaCha20 stream cipher (RFC 8439), implemented from scratch and
    validated against the RFC test vectors.  The 20 rounds keep the 16
    working words in registers (the arguments of a local recursive
    function) rather than in an array; the test suite checks the output
    against an array-based reference.

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
    same operation.  [counter] defaults to 1 as in RFC 8439 AEAD usage.
    @raise Invalid_argument on wrong key or nonce size. *)
