module Aead = Splitbft_crypto.Aead

let seal ~key ~rng ?(aad = "") data =
  let nonce = Splitbft_util.Rng.bytes rng Aead.nonce_size in
  nonce ^ Aead.encrypt_with key ~nonce ~aad data

let unseal ~key ?(aad = "") blob =
  if String.length blob < Aead.nonce_size then Error "sealed blob too short"
  else begin
    let nonce = String.sub blob 0 Aead.nonce_size in
    let payload = String.sub blob Aead.nonce_size (String.length blob - Aead.nonce_size) in
    Aead.decrypt_with key ~nonce ~aad payload
  end
