module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Aead = Splitbft_crypto.Aead
module Hmac = Splitbft_crypto.Hmac
module Kdf = Splitbft_crypto.Kdf
module Decimal = Splitbft_util.Decimal

type keys = {
  auth : string;
  enc : string;
  auth_key : Hmac.key;
  enc_key : Aead.key;
  iv : string;
}

let make ~auth ~enc =
  { auth;
    enc;
    auth_key = Hmac.prepare auth;
    enc_key = Aead.prepare enc;
    iv = Kdf.derive ~ikm:enc ~info:"splitbft-session-nonce-iv" ~length:Aead.nonce_size () }

(* [enc] is drawn first: the order the simulation's client streams pin. *)
let generate rng =
  let enc = Splitbft_util.Rng.bytes rng 32 in
  make ~auth:(Splitbft_util.Rng.bytes rng 32) ~enc

let encode_for_execution k =
  W.to_string
    (fun w () ->
      W.bytes w k.auth;
      W.bytes w k.enc)
    ()

let encode_for_preparation k =
  W.to_string
    (fun w () ->
      W.bytes w k.auth;
      W.bytes w "")
    ()

let decode_provision s =
  R.parse
    (fun r ->
      let auth = R.bytes r in
      let enc = R.bytes r in
      make ~auth ~enc)
    s

(* Nonces are [iv XOR encode(direction, replica, timestamp)], as TLS 1.3
   XORs a per-key IV with its record sequence number (RFC 8446 §5.3).  The
   12-byte encoding is injective: byte 0 is the direction (0 op, 1 result),
   bytes 1-3 the replica id (24-bit big-endian, 0 for ops), bytes 4-11 the
   timestamp (big-endian).  A nonce is therefore unique per key because the
   keys are per client and client timestamps are strictly increasing; the
   client id itself is bound by the AAD. *)
let nonce k ~direction ~replica ~timestamp =
  let b = Bytes.create Aead.nonce_size in
  Bytes.set_uint8 b 0 direction;
  Bytes.set_uint8 b 1 (replica lsr 16);
  Bytes.set_uint16_be b 2 (replica land 0xffff);
  Bytes.set_int64_be b 4 timestamp;
  for i = 0 to Aead.nonce_size - 1 do
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor Char.code (String.unsafe_get k.iv i))
  done;
  Bytes.unsafe_to_string b

let op_nonce k ~timestamp = nonce k ~direction:0 ~replica:0 ~timestamp
let result_nonce k ~timestamp ~replica = nonce k ~direction:1 ~replica ~timestamp
let replica_in_range replica = replica >= 0 && replica < 1 lsl 24

(* AADs are built in one scratch buffer (one domain): "op-aad:C:T" and
   "res-aad:C:T:R" in decimal, as [Printf]'s "%d" and "%Ld" print them. *)
let aad_buf = Buffer.create 64

let aad prefix ~client ~timestamp =
  Buffer.clear aad_buf;
  Buffer.add_string aad_buf prefix;
  Decimal.add_int aad_buf client;
  Buffer.add_char aad_buf ':';
  Decimal.add_int64 aad_buf timestamp

let op_aad ~client ~timestamp =
  aad "op-aad:" ~client ~timestamp;
  Buffer.contents aad_buf

let encrypt_op k ~client ~timestamp op =
  Aead.encrypt_with k.enc_key ~nonce:(op_nonce k ~timestamp)
    ~aad:(op_aad ~client ~timestamp) op

let decrypt_op k ~client ~timestamp payload =
  Aead.decrypt_with k.enc_key ~nonce:(op_nonce k ~timestamp)
    ~aad:(op_aad ~client ~timestamp) payload

let authenticate_request k (r : Message.request) =
  { r with Message.auth = Hmac.mac_with k.auth_key [ Message.request_auth_bytes r ] }

let request_auth_ok k (r : Message.request) =
  Hmac.verify_with k.auth_key ~msg:(Message.request_auth_bytes r) ~tag:r.auth

let result_aad ~client ~timestamp ~replica =
  aad "res-aad:" ~client ~timestamp;
  Buffer.add_char aad_buf ':';
  Decimal.add_int aad_buf replica;
  Buffer.contents aad_buf

let encrypt_result k ~client ~timestamp ~replica result =
  if not (replica_in_range replica) then
    invalid_arg (Printf.sprintf "Session.encrypt_result: replica %d out of range" replica);
  Aead.encrypt_with k.enc_key
    ~nonce:(result_nonce k ~timestamp ~replica)
    ~aad:(result_aad ~client ~timestamp ~replica)
    result

let decrypt_result k ~client ~timestamp ~replica payload =
  if not (replica_in_range replica) then Error "session: replica id out of range"
  else
    Aead.decrypt_with k.enc_key
      ~nonce:(result_nonce k ~timestamp ~replica)
      ~aad:(result_aad ~client ~timestamp ~replica)
      payload

let authenticate_reply k (rp : Message.reply) =
  { rp with Message.r_auth = Hmac.mac_with k.auth_key [ Message.reply_auth_bytes rp ] }

let reply_auth_ok k (rp : Message.reply) =
  Hmac.verify_with k.auth_key ~msg:(Message.reply_auth_bytes rp) ~tag:rp.r_auth
