let block_size = Sha256.block_size

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

let mac_with key parts =
  let inner = Sha256.resume key.inner in
  List.iter (Sha256.update inner) parts;
  let outer = Sha256.resume key.outer in
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = mac_with (prepare key) [ msg ]

let equal_constant_time a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let verify_with key ~msg ~tag = equal_constant_time (mac_with key [ msg ]) tag
let verify ~key ~msg ~tag = verify_with (prepare key) ~msg ~tag
