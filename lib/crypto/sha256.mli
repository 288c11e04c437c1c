(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for message digests, checkpoint state digests, measurements of
    enclave code identity, and as the compression function of {!Hmac} and
    {!Kdf}.  Validated against the FIPS/NIST test vectors in the test
    suite. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit

val finalize : ctx -> string
(** 32-byte digest.  The context must not be used afterwards. *)

type midstate
(** An immutable snapshot of a context that has absorbed whole blocks only:
    the chaining value and the byte count. *)

val midstate : ctx -> midstate
(** Snapshot of the context.
    @raise Invalid_argument if a partial block is pending. *)

val resume : midstate -> ctx
(** A fresh context continuing from the snapshot; the snapshot is not
    changed, so it can be resumed any number of times. *)

val digest : string -> string
(** One-shot hash. *)

val digest_parts : string list -> string
(** Hash of the concatenation of the parts, without building it. *)

val hex : string -> string
(** [hex s] is the lowercase hex digest of [s]. *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64. *)
