type public = string
type secret = { recipient : public; shared : Aead.key }
type keypair = { public : public; secret : secret }

let public_size = 32

(* Idealized-PKI registry, as in Signature: public -> prepared shared key.
   [encrypt] consults it (standing in for the DH exchange); [decrypt]
   requires the abstract secret, which adversary code cannot obtain. *)
let registry : (string, Aead.key) Hashtbl.t = Hashtbl.create 64

let register key =
  let public = Sha256.digest_parts [ "splitbft-box-public"; key ] in
  let shared =
    Aead.prepare (Kdf.derive ~ikm:key ~info:"splitbft-box-shared" ~length:32 ())
  in
  Hashtbl.replace registry public shared;
  { public; secret = { recipient = public; shared } }

let generate rng = register (Splitbft_util.Rng.bytes rng 32)
let derive ~seed = register (Sha256.digest_parts [ "splitbft-box-secret"; seed ])

let encrypt ~public ~rng plaintext =
  match Hashtbl.find_opt registry public with
  | None -> Error "unknown box public key"
  | Some shared ->
    let nonce = Splitbft_util.Rng.bytes rng Aead.nonce_size in
    Ok (nonce ^ Aead.encrypt_with shared ~nonce ~aad:public plaintext)

let decrypt secret blob =
  if String.length blob < Aead.nonce_size then Error "box ciphertext too short"
  else begin
    let nonce = String.sub blob 0 Aead.nonce_size in
    let payload = String.sub blob Aead.nonce_size (String.length blob - Aead.nonce_size) in
    Aead.decrypt_with secret.shared ~nonce ~aad:secret.recipient payload
  end
