module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Aead = Splitbft_crypto.Aead
module Hmac = Splitbft_crypto.Hmac
module Kdf = Splitbft_crypto.Kdf

type keys = { auth : string; enc : string; auth_key : Hmac.key; enc_key : Aead.key }

let make ~auth ~enc = { auth; enc; auth_key = Hmac.prepare auth; enc_key = Aead.prepare enc }

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

(* Deterministic nonces: unique per (direction, client, timestamp[, replica])
   because client timestamps are strictly increasing. *)
let nonce ~info =
  Kdf.derive ~ikm:info ~info:"splitbft-session-nonce" ~length:Aead.nonce_size ()

let op_nonce ~client ~timestamp =
  nonce ~info:(Printf.sprintf "op:%d:%Ld" client timestamp)

let result_nonce ~client ~timestamp ~replica =
  nonce ~info:(Printf.sprintf "res:%d:%Ld:%d" client timestamp replica)

let op_aad ~client ~timestamp = Printf.sprintf "op-aad:%d:%Ld" client timestamp

let encrypt_op k ~client ~timestamp op =
  Aead.encrypt_with k.enc_key ~nonce:(op_nonce ~client ~timestamp)
    ~aad:(op_aad ~client ~timestamp) op

let decrypt_op k ~client ~timestamp payload =
  Aead.decrypt_with k.enc_key ~nonce:(op_nonce ~client ~timestamp)
    ~aad:(op_aad ~client ~timestamp) payload

let authenticate_request k (r : Message.request) =
  { r with Message.auth = Hmac.mac_with k.auth_key [ Message.request_auth_bytes r ] }

let request_auth_ok k (r : Message.request) =
  Hmac.verify_with k.auth_key ~msg:(Message.request_auth_bytes r) ~tag:r.auth

let result_aad ~client ~timestamp ~replica =
  Printf.sprintf "res-aad:%d:%Ld:%d" client timestamp replica

let encrypt_result k ~client ~timestamp ~replica result =
  Aead.encrypt_with k.enc_key
    ~nonce:(result_nonce ~client ~timestamp ~replica)
    ~aad:(result_aad ~client ~timestamp ~replica)
    result

let decrypt_result k ~client ~timestamp ~replica payload =
  Aead.decrypt_with k.enc_key
    ~nonce:(result_nonce ~client ~timestamp ~replica)
    ~aad:(result_aad ~client ~timestamp ~replica)
    payload

let authenticate_reply k (rp : Message.reply) =
  { rp with Message.r_auth = Hmac.mac_with k.auth_key [ Message.reply_auth_bytes rp ] }

let reply_auth_ok k (rp : Message.reply) =
  Hmac.verify_with k.auth_key ~msg:(Message.reply_auth_bytes rp) ~tag:rp.r_auth
