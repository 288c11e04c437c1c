let key_size = 32
let nonce_size = 12
let mask = 0xffffffff
let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* Unchecked access for the state and work arrays: every index below is a
   constant under 16. *)
let ( .!() ) (st : int array) i = Array.unsafe_get st i
let ( .!()<- ) (st : int array) i v = Array.unsafe_set st i v

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
   [work].  The 16 working words are the arguments of [rounds], so they
   stay in registers (or the argument area) instead of being read from and
   written back to an array at every step. *)
let keystream st work =
  let rec rounds n x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 =
    if n = 0 then begin
      work.!(0) <- (x0 + st.!(0)) land mask;
      work.!(1) <- (x1 + st.!(1)) land mask;
      work.!(2) <- (x2 + st.!(2)) land mask;
      work.!(3) <- (x3 + st.!(3)) land mask;
      work.!(4) <- (x4 + st.!(4)) land mask;
      work.!(5) <- (x5 + st.!(5)) land mask;
      work.!(6) <- (x6 + st.!(6)) land mask;
      work.!(7) <- (x7 + st.!(7)) land mask;
      work.!(8) <- (x8 + st.!(8)) land mask;
      work.!(9) <- (x9 + st.!(9)) land mask;
      work.!(10) <- (x10 + st.!(10)) land mask;
      work.!(11) <- (x11 + st.!(11)) land mask;
      work.!(12) <- (x12 + st.!(12)) land mask;
      work.!(13) <- (x13 + st.!(13)) land mask;
      work.!(14) <- (x14 + st.!(14)) land mask;
      work.!(15) <- (x15 + st.!(15)) land mask
    end
    else begin
      (* Column round: quarter rounds on (0 4 8 12) (1 5 9 13) (2 6 10 14)
         (3 7 11 15). *)
      let x0 = (x0 + x4) land mask in
      let x12 = rotl (x12 lxor x0) 16 in
      let x8 = (x8 + x12) land mask in
      let x4 = rotl (x4 lxor x8) 12 in
      let x0 = (x0 + x4) land mask in
      let x12 = rotl (x12 lxor x0) 8 in
      let x8 = (x8 + x12) land mask in
      let x4 = rotl (x4 lxor x8) 7 in
      let x1 = (x1 + x5) land mask in
      let x13 = rotl (x13 lxor x1) 16 in
      let x9 = (x9 + x13) land mask in
      let x5 = rotl (x5 lxor x9) 12 in
      let x1 = (x1 + x5) land mask in
      let x13 = rotl (x13 lxor x1) 8 in
      let x9 = (x9 + x13) land mask in
      let x5 = rotl (x5 lxor x9) 7 in
      let x2 = (x2 + x6) land mask in
      let x14 = rotl (x14 lxor x2) 16 in
      let x10 = (x10 + x14) land mask in
      let x6 = rotl (x6 lxor x10) 12 in
      let x2 = (x2 + x6) land mask in
      let x14 = rotl (x14 lxor x2) 8 in
      let x10 = (x10 + x14) land mask in
      let x6 = rotl (x6 lxor x10) 7 in
      let x3 = (x3 + x7) land mask in
      let x15 = rotl (x15 lxor x3) 16 in
      let x11 = (x11 + x15) land mask in
      let x7 = rotl (x7 lxor x11) 12 in
      let x3 = (x3 + x7) land mask in
      let x15 = rotl (x15 lxor x3) 8 in
      let x11 = (x11 + x15) land mask in
      let x7 = rotl (x7 lxor x11) 7 in
      (* Diagonal round: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14). *)
      let x0 = (x0 + x5) land mask in
      let x15 = rotl (x15 lxor x0) 16 in
      let x10 = (x10 + x15) land mask in
      let x5 = rotl (x5 lxor x10) 12 in
      let x0 = (x0 + x5) land mask in
      let x15 = rotl (x15 lxor x0) 8 in
      let x10 = (x10 + x15) land mask in
      let x5 = rotl (x5 lxor x10) 7 in
      let x1 = (x1 + x6) land mask in
      let x12 = rotl (x12 lxor x1) 16 in
      let x11 = (x11 + x12) land mask in
      let x6 = rotl (x6 lxor x11) 12 in
      let x1 = (x1 + x6) land mask in
      let x12 = rotl (x12 lxor x1) 8 in
      let x11 = (x11 + x12) land mask in
      let x6 = rotl (x6 lxor x11) 7 in
      let x2 = (x2 + x7) land mask in
      let x13 = rotl (x13 lxor x2) 16 in
      let x8 = (x8 + x13) land mask in
      let x7 = rotl (x7 lxor x8) 12 in
      let x2 = (x2 + x7) land mask in
      let x13 = rotl (x13 lxor x2) 8 in
      let x8 = (x8 + x13) land mask in
      let x7 = rotl (x7 lxor x8) 7 in
      let x3 = (x3 + x4) land mask in
      let x14 = rotl (x14 lxor x3) 16 in
      let x9 = (x9 + x14) land mask in
      let x4 = rotl (x4 lxor x9) 12 in
      let x3 = (x3 + x4) land mask in
      let x14 = rotl (x14 lxor x3) 8 in
      let x9 = (x9 + x14) land mask in
      let x4 = rotl (x4 lxor x9) 7 in
      rounds (n - 1) x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15
    end
  in
  rounds 10 st.!(0) st.!(1) st.!(2) st.!(3) st.!(4) st.!(5) st.!(6) st.!(7) st.!(8) st.!(9)
    st.!(10) st.!(11) st.!(12) st.!(13) st.!(14) st.!(15)

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
