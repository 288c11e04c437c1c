(** Digital signatures with transferable authentication.

    The Rust artifact signs replica and enclave messages with Ed25519
    (ring).  Re-implementing curve arithmetic is out of scope for this
    reproduction (see DESIGN.md §1); instead we provide an {e idealized
    signature functionality}: signing is a PRF (HMAC-SHA256) under the
    signer's secret key, and verification resolves the public key through a
    process-global registry populated at key-generation time.  The scheme
    has exactly the interface BFT correctness relies on — only the holder of
    the secret key can produce a tag that verifies under the matching public
    key, and anyone can verify — which is the standard idealization used in
    protocol models.  A byzantine node in the simulation can sign with keys
    it owns but cannot forge signatures of correct nodes.

    Signing and verification latencies are {e metered} by the TEE cost
    model, not by this module. *)

type public = string
(** 32-byte public key. *)

type secret
(** Abstract secret key; cannot be read back out, only used to sign.  It
    holds the {!Hmac.prepare}d signing key, prepared once at key generation;
    the registry holds the same prepared key for verification.  Signatures
    are byte-identical to an HMAC under the raw key. *)

type keypair = { public : public; secret : secret }

val generate : Splitbft_util.Rng.t -> keypair
(** Fresh keypair from simulation randomness; registers the public key. *)

val derive : seed:string -> keypair
(** Deterministic keypair from a seed string (same seed, same keys);
    registers the public key.  Used to give stable identities to replicas,
    enclaves and clients. *)

val sign : secret -> string -> string
(** 32-byte signature over the message. *)

val verify : public:public -> msg:string -> signature:string -> bool
(** [false] for unknown public keys, wrong-length signatures, or tags that
    do not verify. *)

val signature_size : int
val public_size : int
val registered : public -> bool
val pp_public : Format.formatter -> public -> unit
