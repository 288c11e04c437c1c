let tag_size = 16
let nonce_size = Chacha20.nonce_size

type key = { enc_key : string; mac_key : Hmac.key }

(* Independent subkeys for the cipher and the MAC, derived from the AEAD
   key so callers manage a single 32-byte secret. *)
let prepare key =
  let okm = Kdf.derive ~ikm:key ~info:"splitbft-aead-v1" ~length:64 () in
  { enc_key = String.sub okm 0 32; mac_key = Hmac.prepare (String.sub okm 32 32) }

let tag key ~nonce ~aad ciphertext =
  String.sub (Hmac.mac_with key.mac_key [ aad; nonce; ciphertext ]) 0 tag_size

let encrypt_with key ~nonce ~aad plaintext =
  let ciphertext = Chacha20.encrypt ~key:key.enc_key ~nonce plaintext in
  ciphertext ^ tag key ~nonce ~aad ciphertext

let decrypt_with key ~nonce ~aad payload =
  let n = String.length payload in
  if n < tag_size then Error "AEAD payload shorter than tag"
  else begin
    let ciphertext = String.sub payload 0 (n - tag_size) in
    let received = String.sub payload (n - tag_size) tag_size in
    if Hmac.equal_constant_time (tag key ~nonce ~aad ciphertext) received then
      Ok (Chacha20.encrypt ~key:key.enc_key ~nonce ciphertext)
    else Error "AEAD tag verification failed"
  end

let encrypt ~key = encrypt_with (prepare key)
let decrypt ~key = decrypt_with (prepare key)
