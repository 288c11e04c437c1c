let key_size = 32
let nonce_size = 12

(* No checks: [encrypt_into] validates the key, the nonce and both
   ranges before every call (chacha20_stubs.c). *)
external xor_stub : string -> string -> int -> string -> int -> bytes -> int -> int -> unit
  = "splitbft_chacha20_xor_bc" "splitbft_chacha20_xor"
[@@noalloc]

let encrypt_into ~key ~nonce ?(counter = 1) src ~src_off dst ~dst_off ~len =
  if String.length key <> key_size then invalid_arg "Chacha20: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce must be 12 bytes";
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off > String.length src - len
    || dst_off > Bytes.length dst - len
  then invalid_arg "Chacha20.encrypt_into: range out of bounds";
  xor_stub key nonce counter src src_off dst dst_off len

let encrypt ~key ~nonce ?counter payload =
  let n = String.length payload in
  let out = Bytes.create n in
  encrypt_into ~key ~nonce ?counter payload ~src_off:0 out ~dst_off:0 ~len:n;
  Bytes.unsafe_to_string out

let zero_block = String.make 64 '\x00'
let block ~key ~counter ~nonce = encrypt ~key ~nonce ~counter zero_block
