(** Enclave state sealing (SGX [sgx_seal_data] equivalent).

    Data is AEAD-encrypted under a key derived from (platform secret,
    measurement) — see {!Platform.sealing_key} — so only the same enclave
    code on the same platform can recover it.  Used by the Execution
    compartment for persistent blockchain blocks and for recovery after an
    enclave restart.  [~key] is that sealing key, prepared once by the
    enclave or replica that owns it. *)

val seal : key:Splitbft_crypto.Aead.key -> rng:Splitbft_util.Rng.t -> ?aad:string -> string -> string
(** [seal ~key ~rng data] is a self-contained sealed blob (fresh random
    nonce included). *)

val unseal : key:Splitbft_crypto.Aead.key -> ?aad:string -> string -> (string, string) result
