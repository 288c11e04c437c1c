let extract_with salt ~ikm = Hmac.mac_with salt [ ikm ]
let extract ~salt ~ikm = extract_with (Hmac.prepare salt) ~ikm

let expand ~prk ~info ~length =
  if length > 255 * Sha256.digest_size then invalid_arg "Kdf.expand: length too large";
  let prk = Hmac.prepare prk in
  let buf = Buffer.create length in
  let rec loop prev i =
    if Buffer.length buf >= length then ()
    else begin
      let block = Hmac.mac_with prk [ prev; info; String.make 1 (Char.chr i) ] in
      Buffer.add_string buf block;
      loop block (i + 1)
    end
  in
  loop "" 1;
  String.sub (Buffer.contents buf) 0 length

let zero_salt = Hmac.prepare (String.make Sha256.digest_size '\x00')

let derive ?salt ~ikm ~info ~length () =
  let salt = match salt with Some s -> Hmac.prepare s | None -> zero_salt in
  expand ~prk:(extract_with salt ~ikm) ~info ~length
