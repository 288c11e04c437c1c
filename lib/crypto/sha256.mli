(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for message digests, checkpoint state digests, measurements of
    enclave code identity, and as the compression function of {!Hmac} and
    {!Kdf}.  Validated against the FIPS/NIST test vectors in the test
    suite.

    Each 64-byte block is compressed by the x86-64 SHA extensions when
    CPUID reports them (with SSSE3 and SSE4.1), and by an OCaml kernel
    otherwise — on arm64 and older x86.  The kernel is chosen once, when
    the module is initialised; both produce the same bytes, and there is no
    switch. *)

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

(** {2 Test-only}

    Both compression kernels, for the differential test.  Nothing else
    should use this. *)
module Private : sig
  val hw_available : bool
  (** Whether the hardware kernel is the one in use. *)

  val compress_ocaml : int array -> string -> int -> unit
  (** [compress_ocaml h block off] absorbs [block.[off .. off + 63]] into
      the 8 state words [h], in place. *)

  val compress_hw : int array -> string -> int -> unit
  (** The same through the SHA extensions.  Only callable when
      [hw_available]; it checks no bounds, so [h] must have 8 words and
      [off + 64 <= String.length block]. *)
end
