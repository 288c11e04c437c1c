module Hex = Splitbft_util.Hex
module Rng = Splitbft_util.Rng
module Stats = Splitbft_util.Stats
module Lines = Splitbft_util.Lines
module Decimal = Splitbft_util.Decimal

let check = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ----- hex ----- *)

let test_hex_encode () =
  check "empty" "" (Hex.encode "");
  check "abc" "616263" (Hex.encode "abc");
  check "binary" "00ff10" (Hex.encode "\x00\xff\x10")

let test_hex_decode () =
  check "roundtrip" "\x00\xff\x10" (Hex.decode_exn "00ff10");
  check "uppercase" "\xab\xcd" (Hex.decode_exn "ABCD");
  checkb "odd length rejected" true (Result.is_error (Hex.decode "abc"));
  checkb "bad char rejected" true (Result.is_error (Hex.decode "zz"))

let test_hex_short () =
  check "short truncates" "01020304" (Hex.short "\x01\x02\x03\x04\x05\x06");
  check "short of short input" "0102" (Hex.short "\x01\x02")

let hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Hex.decode_exn (Hex.encode s) = s)

(* ----- rng ----- *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17);
    let f = Rng.float rng 3.5 in
    checkb "float in range" true (f >= 0.0 && f < 3.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 1L in
  let b = Rng.split a in
  checkb "split differs from parent stream" true (Rng.next64 a <> Rng.next64 b)

let test_rng_exponential_positive () =
  let rng = Rng.create 5L in
  for _ = 1 to 200 do
    checkb "positive" true (Rng.exponential rng ~mean:10.0 >= 0.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

(* ----- stats ----- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 2.0)) "p50" 50.0 (Stats.median s);
  Alcotest.(check (float 2.0)) "p99" 99.0 (Stats.percentile s 99.0)

let test_stats_percentile_interpolates () =
  (* Known arrays pin the interpolating definition: rank p/100*(n-1),
     linear between adjacent order statistics. *)
  let of_list l =
    let s = Stats.create () in
    List.iter (Stats.add s) l;
    s
  in
  let quad = of_list [ 10.0; 20.0; 30.0; 40.0 ] in
  Alcotest.(check (float 1e-9)) "p50 of 4" 25.0 (Stats.percentile quad 50.0);
  Alcotest.(check (float 1e-9)) "p90 of 4" 37.0 (Stats.percentile quad 90.0);
  Alcotest.(check (float 1e-9)) "p99 of 4" 39.7 (Stats.percentile quad 99.0);
  (* Before the fix, nearest-rank rounding collapsed p99 of a small sample
     onto the max and biased p50 upward ([1;2;3;4] -> p50 = 3). *)
  let four = of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "p50 unbiased" 2.5 (Stats.percentile four 50.0);
  Alcotest.(check bool) "p99 below max" true (Stats.percentile four 99.0 < 4.0);
  let cent = of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 50.5 (Stats.percentile cent 50.0);
  Alcotest.(check (float 1e-9)) "p90 of 1..100" 90.1 (Stats.percentile cent 90.0);
  Alcotest.(check (float 1e-9)) "p99 of 1..100" 99.01 (Stats.percentile cent 99.0);
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Stats.percentile cent 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 100.0 (Stats.percentile cent 100.0);
  Alcotest.(check (float 1e-9)) "clamped above" 100.0 (Stats.percentile cent 150.0);
  let one = of_list [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Stats.percentile one 99.0)

let test_stats_empty_is_nan () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "p50 nan" true (Float.is_nan (Stats.median s))

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 1.0;
  Stats.add b 3.0;
  let m = Stats.merge a b in
  checki "merged count" 2 (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2.0 (Stats.mean m)

(* ----- lines ----- *)

let test_lines_classification () =
  let src = "let x = 1\n\n(* a comment *)\nlet y = 2 (* trailing *)\n" in
  let c = Lines.count_string src in
  checki "code" 2 c.Lines.code;
  checki "comments" 1 c.Lines.comments;
  checki "blank" 1 c.Lines.blank

let test_lines_multiline_comment () =
  let src = "(* spans\nseveral\nlines *)\nlet z = 3\n" in
  let c = Lines.count_string src in
  checki "comments" 3 c.Lines.comments;
  checki "code" 1 c.Lines.code

let test_lines_nested_comment () =
  let src = "(* outer (* inner *) still comment *)\nlet a = 1\n" in
  let c = Lines.count_string src in
  checki "nested counts as comment" 1 c.Lines.comments;
  checki "code after" 1 c.Lines.code

(* ----- decimal ----- *)

let decimal_int n =
  let b = Buffer.create 4 in
  Decimal.add_int b n;
  Buffer.contents b

let decimal_int64 n =
  let b = Buffer.create 4 in
  Buffer.add_string b "x";
  Decimal.add_int64 b n;
  Buffer.contents b

let check_decimal n = check (string_of_int n) (string_of_int n) (decimal_int n)
let check_decimal64 n = check (Int64.to_string n) ("x" ^ Int64.to_string n) (decimal_int64 n)

let test_decimal_extremes () =
  List.iter check_decimal [ 0; min_int; max_int; min_int + 1; max_int - 1 ];
  List.iter check_decimal64 [ 0L; Int64.min_int; Int64.max_int; Int64.of_int max_int;
                              Int64.succ (Int64.of_int max_int); Int64.of_int min_int ];
  (* Every power of ten that fits, and its neighbours. *)
  let p = ref 1 in
  for _ = 0 to 18 do
    List.iter (fun d -> check_decimal (!p + d); check_decimal (- !p + d)) [ -1; 0; 1 ];
    p := !p * 10
  done;
  let p = ref 1L in
  for _ = 0 to 18 do
    List.iter
      (fun d -> check_decimal64 (Int64.add !p d); check_decimal64 (Int64.sub (Int64.neg !p) d))
      [ -1L; 0L; 1L ];
    p := Int64.mul !p 10L
  done

let test_decimal_random () =
  let rng = Rng.create 10L in
  for _ = 1 to 10_000 do
    let v = Rng.next64 rng in
    (* Every magnitude: shift the 64 random bits right by 0..63. *)
    let v = Int64.shift_right v (Rng.int rng 64) in
    check_decimal (Int64.to_int v);
    check_decimal64 v
  done

let suites =
  [ ( "util",
      [ Alcotest.test_case "hex encode" `Quick test_hex_encode;
        Alcotest.test_case "hex decode" `Quick test_hex_decode;
        Alcotest.test_case "hex short" `Quick test_hex_short;
        QCheck_alcotest.to_alcotest hex_roundtrip;
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng split" `Quick test_rng_split_independent;
        Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
        Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "stats basic" `Quick test_stats_basic;
        Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
        Alcotest.test_case "stats percentile interpolates" `Quick
          test_stats_percentile_interpolates;
        Alcotest.test_case "stats empty" `Quick test_stats_empty_is_nan;
        Alcotest.test_case "stats merge" `Quick test_stats_merge;
        Alcotest.test_case "lines classify" `Quick test_lines_classification;
        Alcotest.test_case "lines multiline" `Quick test_lines_multiline_comment;
        Alcotest.test_case "lines nested" `Quick test_lines_nested_comment;
        Alcotest.test_case "decimal extremes" `Quick test_decimal_extremes;
        Alcotest.test_case "decimal random" `Quick test_decimal_random ] ) ]
