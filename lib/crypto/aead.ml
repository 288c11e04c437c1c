let tag_size = 16
let nonce_size = Chacha20.nonce_size

type key = { enc_key : string; mac_key : Hmac.key }

(* Independent subkeys for the cipher and the MAC, derived from the AEAD
   key so callers manage a single 32-byte secret. *)
let prepare key =
  let okm = Kdf.derive ~ikm:key ~info:"splitbft-aead-v1" ~length:64 () in
  { enc_key = String.sub okm 0 32; mac_key = Hmac.prepare (String.sub okm 32 32) }

(* The full HMAC of the current call, whose first [tag_size] bytes are the
   tag (one domain, as for Hmac's own scratch). *)
let mac = Bytes.create Sha256.digest_size

let encrypt_with key ~nonce ~aad plaintext =
  let n = String.length plaintext in
  let out = Bytes.create (n + tag_size) in
  Chacha20.encrypt_into ~key:key.enc_key ~nonce plaintext ~src_off:0 out ~dst_off:0 ~len:n;
  (* The ciphertext is only read while the tag is computed; [out] is
     written again, and escapes, after that. *)
  Hmac.mac_sub_into key.mac_key [ aad; nonce ] (Bytes.unsafe_to_string out) 0 n mac 0;
  Bytes.blit mac 0 out n tag_size;
  Bytes.unsafe_to_string out

let decrypt_with key ~nonce ~aad payload =
  let n = String.length payload - tag_size in
  if n < 0 then Error "AEAD payload shorter than tag"
  else begin
    Hmac.mac_sub_into key.mac_key [ aad; nonce ] payload 0 n mac 0;
    if Hmac.equal_sub_constant_time (Bytes.unsafe_to_string mac) 0 payload n tag_size then begin
      let out = Bytes.create n in
      Chacha20.encrypt_into ~key:key.enc_key ~nonce payload ~src_off:0 out ~dst_off:0 ~len:n;
      Ok (Bytes.unsafe_to_string out)
    end
    else Error "AEAD tag verification failed"
  end

let encrypt ~key = encrypt_with (prepare key)
let decrypt ~key = decrypt_with (prepare key)
