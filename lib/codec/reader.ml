exception Error of string

type t = { src : string; mutable pos : int }

let of_string src = { src; pos = 0 }
let remaining t = String.length t.src - t.pos
let at_end t = remaining t = 0
let fail msg = raise (Error msg)

let need t n =
  if remaining t < n then
    fail (Printf.sprintf "truncated input: need %d bytes at offset %d" n t.pos)

let u8 t =
  need t 1;
  let v = Char.code t.src.[t.pos] in
  t.pos <- t.pos + 1;
  v

(* Fixed-width integers are little-endian: one bounds check, then one
   unchecked load, byte-swapped on big-endian hosts as
   [String.get_int64_le] does.  A short input fails as reading byte by
   byte would: at the end of the input, needing 1 byte. *)
external get16u : string -> int -> int = "%caml_string_get16u"
external get32u : string -> int -> int32 = "%caml_string_get32u"
external get64u : string -> int -> int64 = "%caml_string_get64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let need_fixed t n =
  if remaining t < n then begin
    t.pos <- String.length t.src;
    need t 1
  end

let u16 t =
  need_fixed t 2;
  let v = get16u t.src t.pos in
  t.pos <- t.pos + 2;
  if Sys.big_endian then swap16 v else v

let u32 t =
  need_fixed t 4;
  let v = get32u t.src t.pos in
  t.pos <- t.pos + 4;
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffff_ffff

let u64 t =
  need_fixed t 8;
  let v = get64u t.src t.pos in
  t.pos <- t.pos + 8;
  if Sys.big_endian then swap64 v else v

let varint t =
  let rec loop shift acc =
    if shift > 56 then fail "varint too long"
    else
      let b = u8 t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let bool t =
  match u8 t with
  | 0 -> false
  | 1 -> true
  | v -> fail (Printf.sprintf "invalid boolean byte 0x%02x" v)

let float t = Int64.float_of_bits (u64 t)

let raw t n =
  if n < 0 then fail "negative length";
  need t n;
  let s = String.sub t.src t.pos n in
  t.pos <- t.pos + n;
  s

let bytes t =
  let n = varint t in
  raw t n

let option t dec =
  match u8 t with
  | 0 -> None
  | 1 -> Some (dec t)
  | v -> fail (Printf.sprintf "invalid option tag 0x%02x" v)

let list ?(max_len = 1_000_000) t dec =
  let n = varint t in
  if n > max_len then fail (Printf.sprintf "list length %d exceeds limit" n);
  let rec loop i acc = if i = 0 then List.rev acc else loop (i - 1) (dec t :: acc) in
  loop n []

let expect_end t =
  if not (at_end t) then fail (Printf.sprintf "%d trailing bytes" (remaining t))

let parse ?(exact = true) dec s =
  let t = of_string s in
  match dec t with
  | v ->
    if exact && not (at_end t) then Result.Error "trailing bytes after message"
    else Ok v
  | exception Error msg -> Result.Error msg
