type public = string
type secret = Hmac.key
type keypair = { public : public; secret : secret }

let signature_size = 32
let public_size = 32

(* The idealized-PKI registry: public key -> prepared signing key.
   Verification is the only reader; adversary code has no access to this
   table. *)
let registry : (string, Hmac.key) Hashtbl.t = Hashtbl.create 64

let public_of_secret key = Sha256.digest_parts [ "splitbft-public-key"; key ]

let register key =
  let public = public_of_secret key in
  let secret = Hmac.prepare key in
  Hashtbl.replace registry public secret;
  { public; secret }

let generate rng = register (Splitbft_util.Rng.bytes rng 32)
let derive ~seed = register (Sha256.digest_parts [ "splitbft-secret-key"; seed ])
let sign secret msg = Hmac.mac_with secret [ msg ]

let verify ~public ~msg ~signature =
  if String.length signature <> signature_size then false
  else
    match Hashtbl.find_opt registry public with
    | None -> false
    | Some key -> Hmac.verify_with key ~msg ~tag:signature

let registered public = Hashtbl.mem registry public
