(** Client session keys and request/reply confidentiality (SplitBFT).

    A client owns two session secrets: [auth] (HMAC key, shared with the
    Preparation and Execution enclaves, authenticating requests and
    replies) and [enc] (AEAD key, shared only with Execution enclaves,
    keeping operation payloads and results confidential from the untrusted
    environment and from the other compartments — opportunity O3 of the
    paper).  This module is the single implementation used by both the
    client library and the Execution compartment, so nonce construction
    cannot drift.

    AEAD nonces need no per-message derivation: each is the session's
    12-byte [iv] XORed with an injective encoding of (direction, replica,
    timestamp), the construction of TLS 1.3 (RFC 8446 §5.3).  This is
    unique per key only because the [enc] key belongs to one client, whose
    timestamps strictly increase; the client id is bound by the AAD, not
    the nonce.  Replica ids must satisfy
    [0 <= replica < 1 lsl 24]. *)

type keys = private {
  auth : string;
  enc : string;
  auth_key : Splitbft_crypto.Hmac.key;  (** [auth], prepared *)
  enc_key : Splitbft_crypto.Aead.key;  (** [enc], prepared *)
  iv : string;  (** 12-byte nonce IV, derived from [enc] by HKDF *)
}
(** The raw secrets are kept because provisioning and recovery images
    serialise them and are the only serialised form; every MAC and AEAD
    operation uses the prepared forms. *)

val make : auth:string -> enc:string -> keys
(** Prepares both keys and derives [iv], once. *)

val generate : Splitbft_util.Rng.t -> keys

(** {2 Provisioning payloads (inside the attestation box)} *)

val encode_for_execution : keys -> string
(** Both keys — what the client provisions to Execution enclaves. *)

val encode_for_preparation : keys -> string
(** Only the auth key. *)

val decode_provision : string -> (keys, string) result
(** [enc] is empty in a preparation-only provision. *)

(** {2 Request path} *)

val encrypt_op : keys -> client:Ids.client_id -> timestamp:int64 -> string -> string
val decrypt_op : keys -> client:Ids.client_id -> timestamp:int64 -> string -> (string, string) result

val authenticate_request : keys -> Message.request -> Message.request
(** Fills the [auth] field. *)

val request_auth_ok : keys -> Message.request -> bool

(** {2 Reply path} *)

val encrypt_result :
  keys -> client:Ids.client_id -> timestamp:int64 -> replica:Ids.replica_id -> string -> string
(** Raises [Invalid_argument] unless [0 <= replica < 1 lsl 24]. *)

val decrypt_result :
  keys -> client:Ids.client_id -> timestamp:int64 -> replica:Ids.replica_id -> string ->
  (string, string) result
(** [replica] comes off the wire: outside [0 <= replica < 1 lsl 24] it
    is an [Error], never an exception. *)

val authenticate_reply : keys -> Message.reply -> Message.reply
val reply_auth_ok : keys -> Message.reply -> bool
