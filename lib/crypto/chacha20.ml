let key_size = 32
let nonce_size = 12

(* No checks: [xor] validates the key, the nonce and both ranges before
   every call.  [wide] lets x86-64 take its 4-block kernel
   (chacha20_stubs.c); the tests clear it to reach the scalar kernel. *)
external xor_stub :
  string -> string -> int -> string -> int -> bytes -> int -> int -> bool -> unit
  = "splitbft_chacha20_xor_bc" "splitbft_chacha20_xor"
[@@noalloc]

let xor ~wide ~key ~nonce counter src ~src_off dst ~dst_off ~len =
  if String.length key <> key_size then invalid_arg "Chacha20: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce must be 12 bytes";
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off > String.length src - len
    || dst_off > Bytes.length dst - len
  then invalid_arg "Chacha20.encrypt_into: range out of bounds";
  xor_stub key nonce counter src src_off dst dst_off len wide

let encrypt_into ~key ~nonce ?(counter = 1) src ~src_off dst ~dst_off ~len =
  xor ~wide:true ~key ~nonce counter src ~src_off dst ~dst_off ~len

let encrypt_with ~wide ~key ~nonce counter payload =
  let n = String.length payload in
  let out = Bytes.create n in
  xor ~wide ~key ~nonce counter payload ~src_off:0 out ~dst_off:0 ~len:n;
  Bytes.unsafe_to_string out

let encrypt ~key ~nonce ?(counter = 1) payload = encrypt_with ~wide:true ~key ~nonce counter payload

let zero_block = String.make 64 '\x00'
let block ~key ~counter ~nonce = encrypt ~key ~nonce ~counter zero_block

module Private = struct
  let encrypt_scalar ~key ~nonce ~counter p = encrypt_with ~wide:false ~key ~nonce counter p
end
