(** Authenticated encryption with associated data: ChaCha20 encryption with
    an encrypt-then-MAC HMAC-SHA256 tag.

    The paper encrypts client requests/replies so only the Execution enclave
    sees plaintexts, and seals enclave state for recovery; both go through
    this module.  (The Rust artifact used ring's AEAD; the substitution is a
    standard EtM composition over our from-scratch primitives.)

    The cipher and MAC subkeys are derived from the 32-byte secret by HKDF.
    A long-lived key is {!prepare}d once by whatever owns it, so that
    derivation runs once per key rather than once per message.  Output
    under a prepared key is byte-identical to the string-keyed functions,
    which are themselves [prepare] followed by {!encrypt_with} or
    {!decrypt_with}.

    A seal writes the ciphertext and then the tag into the one string it
    returns; an open authenticates the ciphertext where it lies in the
    payload, compares the tag in constant time, and only then decrypts
    into the one string it returns.  The MAC is computed in module-level
    scratch (see {!Hmac}), so this assumes a single domain. *)

type key
(** A prepared key: the ChaCha20 subkey and the prepared MAC subkey. *)

val prepare : string -> key

val tag_size : int
(** 16 bytes (truncated HMAC-SHA256). *)

val nonce_size : int
(** 12. *)

val encrypt_with : key -> nonce:string -> aad:string -> string -> string
(** [encrypt_with key ~nonce ~aad plaintext] is [ciphertext ^ tag].  The
    tag covers [aad], the nonce, and the ciphertext. *)

val decrypt_with : key -> nonce:string -> aad:string -> string -> (string, string) result
(** Authenticates then decrypts; [Error _] on a bad tag or truncated
    input. *)

val encrypt : key:string -> nonce:string -> aad:string -> string -> string
(** [encrypt_with (prepare key)]. *)

val decrypt :
  key:string -> nonce:string -> aad:string -> string -> (string, string) result
(** [decrypt_with (prepare key)]. *)
