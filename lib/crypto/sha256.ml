(* FIPS 180-4 SHA-256.  Words are held in OCaml ints and masked to 32 bits;
   on a 64-bit platform this avoids boxed Int32 arithmetic.  Blocks are
   compressed by the x86-64 SHA extensions when the CPU has them
   (sha256_stubs.c), and by the OCaml kernel below otherwise; both give the
   same bytes. *)

let digest_size = 32
let block_size = 64
let mask = 0xffffffff

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
}

(* The 8 state words, then the byte count: restoring one into a context is
   a blit. *)
type midstate = int array

let word_be s p = (String.get_uint16_be s p lsl 16) lor String.get_uint16_be s (p + 2)

let init () = { h = Array.copy iv; buf = Bytes.create block_size; buf_len = 0; total = 0 }

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: partial block pending";
  let m = Array.make 9 ctx.total in
  Array.blit ctx.h 0 m 0 8;
  m

let restart ctx (m : midstate) =
  Array.blit m 0 ctx.h 0 8;
  ctx.total <- m.(8);
  ctx.buf_len <- 0

(* Message-schedule scratch shared by every context: [compress] runs to
   completion without yielding, and the library is used from one domain. *)
let w = Array.make 64 0

(* [x] (32 bits) doubled into the upper half, so a 32-bit rotate right by
   [n] is [(dbl x lsr n) land mask] for every [n] in 1..31; the bit lost to
   the 63-bit int is never one of those read. *)
let dbl x = x lor (x lsl 32)

let compress_ocaml h (block : string) off =
  for i = 0 to 15 do
    Array.unsafe_set w i (word_be block (off + (4 * i)))
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let d15 = dbl w15 and d2 = dbl w2 in
    let s0 = ((d15 lsr 7) lxor (d15 lsr 18)) land mask lxor (w15 lsr 3) in
    let s1 = ((d2 lsr 17) lxor (d2 lsr 19)) land mask lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let de = dbl !e and da = dbl !a in
    let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land mask in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land mask in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* No bounds check: [h] has 8 words and every caller below passes
   [off + 64 <= String.length block]. *)
external compress_hw : int array -> string -> int -> unit = "splitbft_sha256_compress"
[@@noalloc]

external hw_available : unit -> bool = "splitbft_sha256_hw_available" [@@noalloc]

(* Chosen once, from the platform. *)
let use_hw = hw_available ()
let compress h block off = if use_hw then compress_hw h block off else compress_ocaml h block off

(* The buffer is only read while [compress] runs, never retained. *)
let compress_buf ctx = compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0

let update_sub ctx s off n =
  if off < 0 || n < 0 || off > String.length s - n then
    invalid_arg "Sha256.update_sub: range out of bounds";
  ctx.total <- ctx.total + n;
  let pos = ref off and stop = off + n in
  (* Fill a pending partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min n (block_size - ctx.buf_len) in
    Bytes.blit_string s off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = block_size then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed straight from the input. *)
  while stop - !pos >= block_size do
    compress ctx.h s !pos;
    pos := !pos + block_size
  done;
  if !pos < stop then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len (stop - !pos);
    ctx.buf_len <- ctx.buf_len + (stop - !pos)
  end

let update ctx s = update_sub ctx s 0 (String.length s)

let finalize_into ctx dst off =
  if off < 0 || off > Bytes.length dst - digest_size then
    invalid_arg "Sha256.finalize_into: range out of bounds";
  (* Padding: 0x80, zeros, 64-bit big-endian bit length. *)
  Bytes.set ctx.buf ctx.buf_len '\x80';
  ctx.buf_len <- ctx.buf_len + 1;
  if ctx.buf_len > block_size - 8 then begin
    Bytes.fill ctx.buf ctx.buf_len (block_size - ctx.buf_len) '\x00';
    compress_buf ctx;
    ctx.buf_len <- 0
  end;
  Bytes.fill ctx.buf ctx.buf_len (block_size - 8 - ctx.buf_len) '\x00';
  Bytes.set_int64_be ctx.buf (block_size - 8) (Int64.shift_left (Int64.of_int ctx.total) 3);
  compress_buf ctx;
  for i = 0 to 7 do
    let v = Array.unsafe_get ctx.h i and p = off + (4 * i) in
    Bytes.unsafe_set dst p (Char.unsafe_chr (v lsr 24));
    Bytes.unsafe_set dst (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set dst (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set dst (p + 3) (Char.unsafe_chr (v land 0xff))
  done

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out

(* One context for the one-shot hashes, restarted from the IV per call
   (one domain, as for [w]). *)
let oneshot = init ()
let initial = midstate oneshot

let digest s =
  restart oneshot initial;
  update oneshot s;
  finalize oneshot

let digest_parts parts =
  restart oneshot initial;
  List.iter (update oneshot) parts;
  finalize oneshot

let hex s = Splitbft_util.Hex.encode (digest s)

module Private = struct
  let hw_available = use_hw
  let compress_ocaml = compress_ocaml
  let compress_hw = compress_hw
end
