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

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs [s[off, off + len)].
    @raise Invalid_argument if the range is out of bounds. *)

val finalize : ctx -> string
(** 32-byte digest.  The context must be {!restart}ed before it absorbs
    another message. *)

val finalize_into : ctx -> bytes -> int -> unit
(** [finalize_into ctx dst off] writes the digest to [dst[off, off + 32)],
    as {!finalize} returns it.
    @raise Invalid_argument if the range is out of bounds. *)

type midstate
(** An immutable snapshot of a context that has absorbed whole blocks only:
    the 8 chaining words and the byte count, held as words so that
    restoring one is a copy. *)

val midstate : ctx -> midstate
(** Snapshot of the context.
    @raise Invalid_argument if a partial block is pending. *)

val restart : ctx -> midstate -> unit
(** [restart ctx m] puts [ctx] in the state the snapshot was taken in,
    without allocating, whatever [ctx] absorbed before; the snapshot is not
    changed, so it can be restarted from any number of times. *)

val digest : string -> string
(** One-shot hash.  [digest] and [digest_parts] share one module-level
    context, so, like the message schedule, they assume a single
    domain. *)

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
