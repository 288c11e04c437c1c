let block_size = Sha256.block_size
let digest_size = Sha256.digest_size

(* The SHA-256 states after absorbing [k0 xor ipad] and [k0 xor opad]. *)
type key = { inner : Sha256.midstate; outer : Sha256.midstate }

let pad_state k0 c =
  let ctx = Sha256.init () in
  Sha256.update ctx (String.map (fun ch -> Char.chr (Char.code ch lxor c)) k0);
  Sha256.midstate ctx

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let k0 = key ^ String.make (block_size - String.length key) '\x00' in
  { inner = pad_state k0 0x36; outer = pad_state k0 0x5c }

(* Scratch for every tag: the context (restarted from a key's pad states),
   the inner digest and a tag to compare.  Nothing here yields while they
   are in use, and the library runs on one domain. *)
let ctx = Sha256.init ()
let inner_digest = Bytes.create digest_size
let expected = Bytes.create digest_size

(* Starts a tag: the inner pad state plus the parts. *)
let absorb_parts key parts =
  Sha256.restart ctx key.inner;
  List.iter (Sha256.update ctx) parts

(* Ends a tag begun by [absorb_parts] and writes it to [dst] at [off]. *)
let finish_into key dst off =
  Sha256.finalize_into ctx inner_digest 0;
  Sha256.restart ctx key.outer;
  Sha256.update ctx (Bytes.unsafe_to_string inner_digest);
  Sha256.finalize_into ctx dst off

let mac_sub_into key parts s off len dst dst_off =
  absorb_parts key parts;
  Sha256.update_sub ctx s off len;
  finish_into key dst dst_off

let mac_with key parts =
  absorb_parts key parts;
  let tag = Bytes.create digest_size in
  finish_into key tag 0;
  Bytes.unsafe_to_string tag

let mac ~key msg = mac_with (prepare key) [ msg ]

(* Every byte is compared, whatever the first difference. *)
let equal_sub_constant_time a aoff b boff len =
  if aoff < 0 || boff < 0 || len < 0 || aoff > String.length a - len
     || boff > String.length b - len
  then invalid_arg "Hmac.equal_sub_constant_time: range out of bounds";
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc :=
      !acc
      lor (Char.code (String.unsafe_get a (aoff + i))
          lxor Char.code (String.unsafe_get b (boff + i)))
  done;
  !acc = 0

let equal_constant_time a b =
  String.length a = String.length b && equal_sub_constant_time a 0 b 0 (String.length a)

let verify_with key ~msg ~tag =
  String.length tag = digest_size
  && begin
       mac_sub_into key [] msg 0 (String.length msg) expected 0;
       equal_sub_constant_time (Bytes.unsafe_to_string expected) 0 tag 0 digest_size
     end

let verify ~key ~msg ~tag = verify_with (prepare key) ~msg ~tag
