module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

let checkb = Alcotest.(check bool)

let roundtrip enc dec v =
  let bytes = W.to_string enc v in
  match R.parse dec bytes with
  | Ok v' -> v' = v
  | Error _ -> false

let test_integers () =
  List.iter
    (fun v -> checkb "u8" true (roundtrip W.u8 R.u8 v))
    [ 0; 1; 127; 255 ];
  List.iter
    (fun v -> checkb "u16" true (roundtrip W.u16 R.u16 v))
    [ 0; 256; 65535 ];
  List.iter
    (fun v -> checkb "u32" true (roundtrip W.u32 R.u32 v))
    [ 0; 1 lsl 16; 0xffffffff ];
  List.iter
    (fun v -> checkb "u64" true (roundtrip W.u64 R.u64 v))
    [ 0L; 1L; Int64.max_int; Int64.min_int; -1L ]

let test_varint () =
  List.iter
    (fun v -> checkb "varint" true (roundtrip W.varint R.varint v))
    [ 0; 1; 127; 128; 300; 1 lsl 20; 1 lsl 40 ]

let test_varint_negative_rejected () =
  Alcotest.check_raises "negative varint" (Invalid_argument "Writer.varint: negative")
    (fun () -> ignore (W.to_string W.varint (-1)))

let test_bool_and_float () =
  checkb "true" true (roundtrip W.bool R.bool true);
  checkb "false" true (roundtrip W.bool R.bool false);
  List.iter
    (fun v -> checkb "float" true (roundtrip W.float R.float v))
    [ 0.0; -1.5; 3.14159; infinity; Float.max_float ]

let test_bytes_prefix () =
  checkb "bytes" true (roundtrip W.bytes R.bytes "hello");
  checkb "empty bytes" true (roundtrip W.bytes R.bytes "");
  checkb "binary" true (roundtrip W.bytes R.bytes "\x00\x01\xff")

let test_option_list () =
  let enc w v = W.option w W.bytes v in
  let dec r = R.option r R.bytes in
  checkb "some" true (roundtrip enc dec (Some "x"));
  checkb "none" true (roundtrip enc dec None);
  let enc w v = W.list w W.varint v in
  let dec r = R.list r R.varint in
  checkb "list" true (roundtrip enc dec [ 1; 2; 3; 400 ]);
  checkb "empty list" true (roundtrip enc dec [])

let test_truncation_detected () =
  let bytes = W.to_string W.bytes "payload" in
  let truncated = String.sub bytes 0 (String.length bytes - 2) in
  checkb "truncated errors" true (Result.is_error (R.parse R.bytes truncated))

let test_trailing_bytes_detected () =
  let bytes = W.to_string W.u8 7 ^ "junk" in
  checkb "trailing rejected" true (Result.is_error (R.parse R.u8 bytes));
  checkb "trailing allowed when not exact" true
    (Result.is_ok (R.parse ~exact:false R.u8 bytes))

let test_malformed_option_tag () =
  checkb "bad option tag" true
    (Result.is_error (R.parse (fun r -> R.option r R.bytes) "\x07"))

let test_list_length_bound () =
  (* A huge announced length must not allocate. *)
  let w = W.create () in
  W.varint w 5_000_000;
  checkb "oversized list rejected" true
    (Result.is_error (R.parse (fun r -> R.list r R.u8) (W.contents w)))

let test_raw_reads () =
  let r = R.of_string "abcdef" in
  Alcotest.(check string) "raw" "abc" (R.raw r 3);
  Alcotest.(check int) "remaining" 3 (R.remaining r);
  Alcotest.(check string) "raw rest" "def" (R.raw r 3);
  checkb "at end" true (R.at_end r)

(* Fixed-width integers against a byte-at-a-time reference: the low 16, 32
   or 64 bits, little-endian, whatever the sign or size of the int. *)
let le_bytes width v =
  String.init width (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))

let prop_fixed_width =
  QCheck.Test.make ~name:"u16/u32/u64 = byte-at-a-time reference" ~count:1000
    QCheck.(pair int int64)
    (fun (v, v64) ->
      let enc f = W.to_string (fun w () -> f w) () in
      let u16 = enc (fun w -> W.u16 w v) and u32 = enc (fun w -> W.u32 w v) in
      let u64 = enc (fun w -> W.u64 w v64) in
      String.equal u16 (le_bytes 2 (Int64.of_int v))
      && String.equal u32 (le_bytes 4 (Int64.of_int v))
      && String.equal u64 (le_bytes 8 v64)
      && R.parse R.u16 u16 = Ok (v land 0xffff)
      && R.parse R.u32 u32 = Ok (v land 0xffff_ffff)
      && R.parse R.u64 u64 = Ok v64)

let test_fixed_width_extremes () =
  let enc f v = W.to_string f v in
  List.iter
    (fun v ->
      Alcotest.(check string) (Printf.sprintf "u16 %d" v) (le_bytes 2 (Int64.of_int v)) (enc W.u16 v);
      Alcotest.(check string) (Printf.sprintf "u32 %d" v) (le_bytes 4 (Int64.of_int v)) (enc W.u32 v))
    [ 0; 1; -1; 0xffff; 0x10000; 0xffff_ffff; 0x1_0000_0000; min_int; max_int ];
  List.iter
    (fun v -> Alcotest.(check string) (Int64.to_string v) (le_bytes 8 v) (enc W.u64 v))
    [ 0L; -1L; Int64.min_int; Int64.max_int ]

(* A short fixed-width read fails at the end of the input, needing one
   byte, as reading byte by byte did, wherever the read starts. *)
let test_fixed_width_truncated () =
  let err n = Error (Printf.sprintf "truncated input: need 1 bytes at offset %d" n) in
  let after_u8 read r =
    ignore (R.u8 r);
    read r
  in
  for len = 0 to 7 do
    let s = String.make len '\xab' in
    if len < 2 then Alcotest.(check bool) "u16" true (R.parse R.u16 s = err len);
    if len < 4 then Alcotest.(check bool) "u32" true (R.parse R.u32 s = err len);
    Alcotest.(check bool) "u64" true (R.parse R.u64 s = err len);
    if len >= 1 then begin
      if len < 3 then Alcotest.(check bool) "u8, u16" true (R.parse (after_u8 R.u16) s = err len);
      if len < 5 then Alcotest.(check bool) "u8, u32" true (R.parse (after_u8 R.u32) s = err len);
      Alcotest.(check bool) "u8, u64" true (R.parse (after_u8 R.u64) s = err len)
    end
  done

let qcheck_roundtrip name gen enc dec =
  QCheck.Test.make ~name ~count:300 gen (fun v -> roundtrip enc dec v)

let prop_varint = qcheck_roundtrip "varint roundtrip" QCheck.(0 -- max_int) W.varint R.varint
let prop_u64 = qcheck_roundtrip "u64 roundtrip" QCheck.int64 W.u64 R.u64
let prop_bytes = qcheck_roundtrip "bytes roundtrip" QCheck.string W.bytes R.bytes

let prop_pairs =
  qcheck_roundtrip "pair list roundtrip"
    QCheck.(list (pair small_nat string))
    (fun w v ->
      W.list w
        (fun w (a, b) ->
          W.varint w a;
          W.bytes w b)
        v)
    (fun r ->
      R.list r (fun r ->
          let a = R.varint r in
          let b = R.bytes r in
          (a, b)))

let prop_decode_never_crashes =
  QCheck.Test.make ~name:"decoder total on junk" ~count:500 QCheck.string (fun junk ->
      match R.parse (fun r -> R.list r R.bytes) junk with
      | Ok _ | Error _ -> true)

(* [to_string] encodes in a reused arena; every result must equal the same
   encoder run on a fresh writer. *)
let fresh_encode enc v =
  let w = W.create () in
  enc w v;
  W.contents w

let pairs_enc w xs =
  W.list w
    (fun w (a, b) ->
      W.varint w a;
      W.bytes w b)
    xs

let test_arena_nested () =
  let inner = [ (1, "one"); (300, String.make 200 'x') ] in
  (* The outer encoder calls [to_string] while the arena is busy. *)
  let outer w () =
    W.bytes w "head";
    W.bytes w (W.to_string pairs_enc inner);
    W.u64 w 42L
  in
  let expected = fresh_encode outer () in
  Alcotest.(check string) "nested" expected (W.to_string outer ());
  Alcotest.(check string) "reused after nesting" expected (W.to_string outer ());
  Alcotest.(check string) "inner alone" (fresh_encode pairs_enc inner) (W.to_string pairs_enc inner)

exception Mid_encode

let test_arena_exception_releases () =
  let failing w () =
    W.bytes w (String.make 5000 'a');
    raise Mid_encode
  in
  Alcotest.check_raises "raised through" Mid_encode (fun () -> ignore (W.to_string failing ()));
  let xs = [ (7, "seven") ] in
  Alcotest.(check string) "after the exception" (fresh_encode pairs_enc xs)
    (W.to_string pairs_enc xs);
  (* A nested encode that raises leaves the outer encode intact. *)
  let outer w () =
    W.varint w 9;
    (try ignore (W.to_string failing ()) with Mid_encode -> ());
    W.bytes w "tail"
  in
  Alcotest.(check string) "outer survives inner exception" (fresh_encode outer ())
    (W.to_string outer ())

let test_arena_large_then_small () =
  let big = String.init (3 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
  let enc w () =
    W.bytes w big;
    W.varint w 5
  in
  Alcotest.(check string) "multi-MiB" (fresh_encode enc ()) (W.to_string enc ());
  let xs = [ (1, "a"); (2, "b") ] in
  Alcotest.(check string) "small after large" (fresh_encode pairs_enc xs)
    (W.to_string pairs_enc xs);
  Alcotest.(check string) "empty" "" (W.to_string (fun _ () -> ()) ())

let prop_arena_matches_fresh =
  QCheck.Test.make ~name:"to_string = fresh writer" ~count:200
    QCheck.(list (pair small_nat string))
    (fun xs -> String.equal (W.to_string pairs_enc xs) (fresh_encode pairs_enc xs))

let suites =
  [ ( "codec",
      [ Alcotest.test_case "integers" `Quick test_integers;
        Alcotest.test_case "varint" `Quick test_varint;
        Alcotest.test_case "varint negative" `Quick test_varint_negative_rejected;
        Alcotest.test_case "bool/float" `Quick test_bool_and_float;
        Alcotest.test_case "bytes" `Quick test_bytes_prefix;
        Alcotest.test_case "option/list" `Quick test_option_list;
        Alcotest.test_case "truncation" `Quick test_truncation_detected;
        Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_detected;
        Alcotest.test_case "bad option tag" `Quick test_malformed_option_tag;
        Alcotest.test_case "list bound" `Quick test_list_length_bound;
        Alcotest.test_case "raw reads" `Quick test_raw_reads;
        QCheck_alcotest.to_alcotest prop_varint;
        QCheck_alcotest.to_alcotest prop_u64;
        QCheck_alcotest.to_alcotest prop_bytes;
        QCheck_alcotest.to_alcotest prop_pairs;
        QCheck_alcotest.to_alcotest prop_decode_never_crashes;
        QCheck_alcotest.to_alcotest prop_fixed_width;
        Alcotest.test_case "fixed-width extremes" `Quick test_fixed_width_extremes;
        Alcotest.test_case "fixed-width truncated" `Quick test_fixed_width_truncated;
        Alcotest.test_case "arena: nested to_string" `Quick test_arena_nested;
        Alcotest.test_case "arena: exception releases" `Quick test_arena_exception_releases;
        Alcotest.test_case "arena: large then small" `Quick test_arena_large_then_small;
        QCheck_alcotest.to_alcotest prop_arena_matches_fresh ] ) ]
