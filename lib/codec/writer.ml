type t = { mutable buf : Bytes.t; mutable len : int }

let create ?(initial_size = 64) () = { buf = Bytes.create (max 8 initial_size); len = 0 }
let contents t = Bytes.sub_string t.buf 0 t.len
let length t = t.len
let reset t = t.len <- 0

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.buf then begin
    let cap = ref (Bytes.length t.buf) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit t.buf 0 fresh 0 t.len;
    t.buf <- fresh
  end

let u8 t v =
  ensure t 1;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
  t.len <- t.len + 1

(* Fixed-width integers are little-endian: one [ensure], then one
   unchecked store of the low 16, 32 or 64 bits, byte-swapped on
   big-endian hosts as [Bytes.set_int64_le] does. *)
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let u16 t v =
  ensure t 2;
  let v = v land 0xffff in
  set16u t.buf t.len (if Sys.big_endian then swap16 v else v);
  t.len <- t.len + 2

let u32 t v =
  ensure t 4;
  let v = Int32.of_int v in
  set32u t.buf t.len (if Sys.big_endian then swap32 v else v);
  t.len <- t.len + 4

let u64 t v =
  ensure t 8;
  set64u t.buf t.len (if Sys.big_endian then swap64 v else v);
  t.len <- t.len + 8

let rec varint t v =
  if v < 0 then invalid_arg "Writer.varint: negative"
  else if v < 0x80 then u8 t v
  else begin
    u8 t (0x80 lor (v land 0x7f));
    varint t (v lsr 7)
  end

let bool t b = u8 t (if b then 1 else 0)
let float t f = u64 t (Int64.bits_of_float f)

let raw t s =
  let n = String.length s in
  ensure t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let bytes t s =
  varint t (String.length s);
  raw t s

let option t enc = function
  | None -> u8 t 0
  | Some v ->
    u8 t 1;
    enc t v

let varint_width v =
  let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
  go v 1

let write_varint_at t pos v =
  let rec go pos v =
    if v < 0x80 then Bytes.set t.buf pos (Char.chr v)
    else begin
      Bytes.set t.buf pos (Char.chr (0x80 lor (v land 0x7f)));
      go (pos + 1) (v lsr 7)
    end
  in
  go pos v

(* One byte is reserved for the varint before the payload is written; when
   the value needs a wider varint (payload >= 128 bytes, list >= 128
   elements) the payload is shifted right in place.  Either way the output
   bytes are identical to [varint] followed by the payload, without
   round-tripping the payload through a second buffer. *)
let patch_reserved_varint t start value =
  let width = varint_width value in
  if width > 1 then begin
    ensure t (width - 1);
    Bytes.blit t.buf (start + 1) t.buf (start + width) (t.len - start - 1);
    t.len <- t.len + width - 1
  end;
  write_varint_at t start value

let nested t enc v =
  ensure t 1;
  let start = t.len in
  t.len <- start + 1;
  enc t v;
  patch_reserved_varint t start (t.len - start - 1)

let list t enc xs =
  ensure t 1;
  let start = t.len in
  t.len <- start + 1;
  let count = ref 0 in
  List.iter
    (fun x ->
      incr count;
      enc t x)
    xs;
  patch_reserved_varint t start !count

let to_string enc v =
  let t = create () in
  enc t v;
  contents t
