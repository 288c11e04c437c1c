let key_size = 32
let nonce_size = 12
let mask = 0xffffffff
let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* Unchecked access for the state and work arrays: every index below is a
   constant under 16. *)
let ( .!() ) (st : int array) i = Array.unsafe_get st i
let ( .!()<- ) (st : int array) i v = Array.unsafe_set st i v

let quarter_round st a b c d =
  st.!(a) <- (st.!(a) + st.!(b)) land mask;
  st.!(d) <- rotl (st.!(d) lxor st.!(a)) 16;
  st.!(c) <- (st.!(c) + st.!(d)) land mask;
  st.!(b) <- rotl (st.!(b) lxor st.!(c)) 12;
  st.!(a) <- (st.!(a) + st.!(b)) land mask;
  st.!(d) <- rotl (st.!(d) lxor st.!(a)) 8;
  st.!(c) <- (st.!(c) + st.!(d)) land mask;
  st.!(b) <- rotl (st.!(b) lxor st.!(c)) 7

let word32_le s off = String.get_uint16_le s off lor (String.get_uint16_le s (off + 2) lsl 16)

let init_state ~key ~nonce =
  if String.length key <> key_size then invalid_arg "Chacha20: key must be 32 bytes";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce must be 12 bytes";
  let st = Array.make 16 0 in
  (* "expand 32-byte k" *)
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- word32_le key (4 * i)
  done;
  for i = 0 to 2 do
    st.(13 + i) <- word32_le nonce (4 * i)
  done;
  st

(* Leaves the keystream block for [st] (whose word 12 is the counter) in
   [work]. *)
let keystream st work =
  Array.blit st 0 work 0 16;
  for _round = 1 to 10 do
    quarter_round work 0 4 8 12;
    quarter_round work 1 5 9 13;
    quarter_round work 2 6 10 14;
    quarter_round work 3 7 11 15;
    quarter_round work 0 5 10 15;
    quarter_round work 1 6 11 12;
    quarter_round work 2 7 8 13;
    quarter_round work 3 4 9 14
  done;
  for i = 0 to 15 do
    work.(i) <- (work.(i) + st.(i)) land mask
  done

let block ~key ~counter ~nonce =
  let st = init_state ~key ~nonce in
  st.(12) <- counter land mask;
  let work = Array.make 16 0 in
  keystream st work;
  let out = Bytes.create 64 in
  Array.iteri (fun i v -> Bytes.set_int32_le out (4 * i) (Int32.of_int v)) work;
  Bytes.unsafe_to_string out

let encrypt ~key ~nonce ?(counter = 1) payload =
  let st = init_state ~key ~nonce in
  let work = Array.make 16 0 in
  let out = Bytes.of_string payload in
  let n = Bytes.length out in
  let pos = ref 0 in
  let ctr = ref counter in
  while !pos < n do
    st.(12) <- !ctr land mask;
    keystream st work;
    let p = !pos in
    if n - p >= 64 then
      for i = 0 to 15 do
        let q = p + (4 * i) and v = work.(i) in
        Bytes.set_uint16_le out q (Bytes.get_uint16_le out q lxor (v land 0xffff));
        Bytes.set_uint16_le out (q + 2) (Bytes.get_uint16_le out (q + 2) lxor (v lsr 16))
      done
    else
      for j = 0 to n - p - 1 do
        let byte = (work.(j lsr 2) lsr (8 * (j land 3))) land 0xff in
        Bytes.set_uint8 out (p + j) (Bytes.get_uint8 out (p + j) lxor byte)
      done;
    pos := p + 64;
    incr ctr
  done;
  Bytes.unsafe_to_string out
