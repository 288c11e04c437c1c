module Hex = Splitbft_util.Hex
module Sha256 = Splitbft_crypto.Sha256
module Hmac = Splitbft_crypto.Hmac
module Chacha20 = Splitbft_crypto.Chacha20
module Aead = Splitbft_crypto.Aead
module Kdf = Splitbft_crypto.Kdf
module Signature = Splitbft_crypto.Signature
module Box = Splitbft_crypto.Box
module Rng = Splitbft_util.Rng

let check = Alcotest.(check string)
let checkb = Alcotest.(check bool)

(* ----- SHA-256 (FIPS 180-4 / NIST CAVS vectors) ----- *)

let test_sha256_vectors () =
  check "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  check "448 bits" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check "896 bits" "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_million_a () =
  check "1M 'a'" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_incremental_equals_oneshot () =
  let data = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  (* Feed in awkward chunk sizes crossing block boundaries. *)
  let ctx = Sha256.init () in
  let pos = ref 0 in
  List.iter
    (fun chunk ->
      let take = min chunk (String.length data - !pos) in
      Sha256.update ctx (String.sub data !pos take);
      pos := !pos + take)
    [ 1; 62; 64; 65; 127; 128; 300; 1000 ];
  Sha256.update ctx (String.sub data !pos (String.length data - !pos));
  check "incremental" (Hex.encode (Sha256.digest data)) (Hex.encode (Sha256.finalize ctx))

let test_sha256_digest_parts () =
  check "parts" (Hex.encode (Sha256.digest "foobarbaz"))
    (Hex.encode (Sha256.digest_parts [ "foo"; "bar"; "baz" ]))

(* ----- HMAC-SHA256 (RFC 4231) ----- *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Hmac.mac ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  check "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let msg = String.make 50 '\xdd' in
  check "case 3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hex.encode (Hmac.mac ~key msg))

let test_hmac_rfc4231_long_key () =
  let key = String.make 131 '\xaa' in
  check "case 6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hex.encode
       (Hmac.mac ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let key = "secret" in
  let tag = Hmac.mac ~key "msg" in
  checkb "verifies" true (Hmac.verify ~key ~msg:"msg" ~tag);
  checkb "wrong msg" false (Hmac.verify ~key ~msg:"other" ~tag);
  checkb "wrong key" false (Hmac.verify ~key:"other" ~msg:"msg" ~tag)

let test_constant_time_eq () =
  checkb "equal" true (Hmac.equal_constant_time "abc" "abc");
  checkb "differs" false (Hmac.equal_constant_time "abc" "abd");
  checkb "length differs" false (Hmac.equal_constant_time "abc" "abcd")

(* ----- ChaCha20 (RFC 8439 §2.3.2 / §2.4.2) ----- *)

let rfc_key = Hex.decode_exn "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
let rfc_nonce = Hex.decode_exn "000000000000004a00000000"

let test_chacha20_block_vector () =
  let nonce = Hex.decode_exn "000000090000004a00000000" in
  let block = Chacha20.block ~key:rfc_key ~counter:1 ~nonce in
  check "rfc8439 2.3.2 block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Hex.encode block)

let test_chacha20_encrypt_vector () =
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you o\
     nly one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.encrypt ~key:rfc_key ~nonce:rfc_nonce ~counter:1 plaintext in
  check "rfc8439 2.4.2 ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
     f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
     07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
     5af90bbf74a35be6b40b8eedf2785e42874d"
    (Hex.encode ct)

let test_chacha20_involutive () =
  let pt = "the quick brown fox" in
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  check "decrypt inverts" pt
    (Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce pt))

let test_chacha20_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.encrypt ~key:"short" ~nonce:(String.make 12 'n') "x"));
  Alcotest.check_raises "short nonce" (Invalid_argument "Chacha20: nonce must be 12 bytes")
    (fun () -> ignore (Chacha20.encrypt ~key:(String.make 32 'k') ~nonce:"n" "x"))

(* ----- HKDF (RFC 5869 test case 1) ----- *)

let test_hkdf_rfc5869_case1 () =
  let ikm = String.make 22 '\x0b' in
  let salt = Hex.decode_exn "000102030405060708090a0b0c" in
  let info = Hex.decode_exn "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Kdf.extract ~salt ~ikm in
  check "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (Hex.encode prk);
  check "okm" "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hex.encode (Kdf.expand ~prk ~info ~length:42))

let test_hkdf_lengths () =
  let okm = Kdf.derive ~ikm:"input" ~info:"ctx" ~length:100 () in
  Alcotest.(check int) "length" 100 (String.length okm);
  checkb "deterministic" true
    (String.equal okm (Kdf.derive ~ikm:"input" ~info:"ctx" ~length:100 ()));
  checkb "info separates" false
    (String.equal okm (Kdf.derive ~ikm:"input" ~info:"other" ~length:100 ()))

(* ----- AEAD ----- *)

let aead_key = String.make 32 'K'
let aead_nonce = String.make 12 'N'

let test_aead_roundtrip () =
  let ct = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:"hdr" "secret" in
  (match Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:"hdr" ct with
  | Ok pt -> check "roundtrip" "secret" pt
  | Error e -> Alcotest.fail e);
  checkb "ciphertext hides plaintext" false
    (String.length ct >= 6
    && String.equal (String.sub ct 0 6) "secret")

let test_aead_tamper_detected () =
  let ct = Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad:"hdr" "secret" in
  let flip = Bytes.of_string ct in
  Bytes.set flip 0 (Char.chr (Char.code (Bytes.get flip 0) lxor 1));
  checkb "tampered ct" true
    (Result.is_error
       (Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:"hdr"
          (Bytes.to_string flip)));
  checkb "wrong aad" true
    (Result.is_error (Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:"other" ct));
  checkb "wrong key" true
    (Result.is_error
       (Aead.decrypt ~key:(String.make 32 'X') ~nonce:aead_nonce ~aad:"hdr" ct));
  checkb "too short" true
    (Result.is_error (Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad:"hdr" "tiny"))

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead roundtrip" ~count:100
    QCheck.(pair string string)
    (fun (pt, aad) ->
      match
        Aead.decrypt ~key:aead_key ~nonce:aead_nonce ~aad
          (Aead.encrypt ~key:aead_key ~nonce:aead_nonce ~aad pt)
      with
      | Ok pt' -> String.equal pt pt'
      | Error _ -> false)

(* ----- signatures ----- *)

let test_signature_basic () =
  let kp = Signature.derive ~seed:"tester" in
  let s = Signature.sign kp.Signature.secret "message" in
  checkb "verifies" true (Signature.verify ~public:kp.Signature.public ~msg:"message" ~signature:s);
  checkb "wrong msg" false (Signature.verify ~public:kp.Signature.public ~msg:"other" ~signature:s);
  let other = Signature.derive ~seed:"other" in
  checkb "wrong key" false (Signature.verify ~public:other.Signature.public ~msg:"message" ~signature:s)

let test_signature_unknown_public () =
  checkb "unknown public" false
    (Signature.verify ~public:(String.make 32 'z') ~msg:"m" ~signature:(String.make 32 's'))

let test_signature_deterministic_derive () =
  let a = Signature.derive ~seed:"same" and b = Signature.derive ~seed:"same" in
  check "same public" (Hex.encode a.Signature.public) (Hex.encode b.Signature.public)

let test_signature_wrong_length () =
  let kp = Signature.derive ~seed:"len" in
  checkb "short sig" false
    (Signature.verify ~public:kp.Signature.public ~msg:"m" ~signature:"short")

(* ----- prepared keys: differential against the one-shot paths ----- *)

(* RFC 2104 written out over one-shot digests: the reference the prepared
   pad states must reproduce. *)
let reference_hmac ~key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let k0 = key ^ String.make (64 - String.length key) '\x00' in
  let pad c = String.map (fun ch -> Char.chr (Char.code ch lxor c)) k0 in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

(* A message and a random split of it into parts (empty parts included). *)
let split_gen =
  QCheck.Gen.(
    string_size (int_bound 300) >>= fun msg ->
    list_size (int_bound 6) (int_bound (String.length msg)) >|= fun cuts ->
    let cuts = List.sort_uniq compare (0 :: String.length msg :: cuts) in
    let rec parts = function
      | a :: (b :: _ as rest) -> String.sub msg a (b - a) :: parts rest
      | _ -> []
    in
    (msg, parts cuts))

let prop_hmac_prepared_parts =
  QCheck.Test.make ~name:"hmac prepared parts = one-shot" ~count:300
    QCheck.(
      pair
        (make Gen.(int_range 0 200 >>= fun n -> string_size (return n)))
        (make ~print:(fun (m, ps) -> Printf.sprintf "%S in %d parts" m (List.length ps)) split_gen))
    (fun (key, (msg, parts)) ->
      let tag = Hmac.mac_with (Hmac.prepare key) parts in
      String.equal tag (Hmac.mac ~key msg) && String.equal tag (reference_hmac ~key msg))

let test_hmac_prepared_reuse () =
  let key = Hmac.prepare "long-lived session key" in
  let tags = List.init 1000 (fun _ -> Hmac.mac_with key [ "request"; " bytes" ]) in
  let expected = reference_hmac ~key:"long-lived session key" "request bytes" in
  checkb "1000 identical tags" true (List.for_all (String.equal expected) tags);
  checkb "verify_with" true (Hmac.verify_with key ~msg:"request bytes" ~tag:expected)

let test_sha256_every_split () =
  let data = String.init 130 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let expected = Sha256.digest data in
  for cut = 0 to 130 do
    let ctx = Sha256.init () in
    Sha256.update ctx (String.sub data 0 cut);
    Sha256.update ctx (String.sub data cut (130 - cut));
    check (Printf.sprintf "split at %d" cut) (Hex.encode expected) (Hex.encode (Sha256.finalize ctx))
  done

let prop_aead_prepared =
  QCheck.Test.make ~name:"aead prepared = string key" ~count:200
    QCheck.(triple (string_of_size (Gen.return 32)) string string)
    (fun (key, pt, aad) ->
      let prepared = Aead.prepare key in
      let ct = Aead.encrypt_with prepared ~nonce:aead_nonce ~aad pt in
      String.equal ct (Aead.encrypt ~key ~nonce:aead_nonce ~aad pt)
      && Aead.decrypt ~key ~nonce:aead_nonce ~aad ct = Ok pt
      && Aead.decrypt_with prepared ~nonce:aead_nonce ~aad ct = Ok pt)

let prop_box_sealing_roundtrip =
  let box = Box.derive ~seed:"prop-recipient" in
  let seal_key = Aead.prepare (String.make 32 's') in
  let rng = Rng.create 5L in
  QCheck.Test.make ~name:"box and sealing roundtrip" ~count:100
    QCheck.(pair string string)
    (fun (pt, aad) ->
      let module Sealing = Splitbft_tee.Sealing in
      (match Box.encrypt ~public:box.Box.public ~rng pt with
      | Ok ct -> Box.decrypt box.Box.secret ct = Ok pt
      | Error _ -> false)
      && Sealing.unseal ~key:seal_key ~aad (Sealing.seal ~key:seal_key ~rng ~aad pt) = Ok pt)

(* ----- compression kernels and the ChaCha20 rounds ----- *)

let sha256_iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
     0x5be0cd19 |]

(* FIPS 180-4 padding and chaining over an explicit compression kernel, so
   each kernel is checked against the vectors whichever one [Sha256] uses. *)
let hex_digest_with compress msg =
  let n = String.length msg in
  let len = (((n + 8) / 64) + 1) * 64 in
  let b = Bytes.make len '\x00' in
  Bytes.blit_string msg 0 b 0 n;
  Bytes.set b n '\x80';
  Bytes.set_int64_be b (len - 8) (Int64.of_int (8 * n));
  let h = Array.copy sha256_iv in
  let blocks = Bytes.unsafe_to_string b in
  for i = 0 to (len / 64) - 1 do
    compress h blocks (64 * i)
  done;
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))

let fips_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( String.make 1_000_000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" ) ]

let check_kernel_vectors name compress =
  List.iter
    (fun (msg, expected) ->
      check (Printf.sprintf "%s kernel, %d bytes" name (String.length msg)) expected
        (hex_digest_with compress msg))
    fips_vectors

let test_sha256_ocaml_kernel_vectors () =
  check_kernel_vectors "ocaml" Sha256.Private.compress_ocaml

let test_sha256_hw_kernel_vectors () =
  if not Sha256.Private.hw_available then Alcotest.skip ();
  check_kernel_vectors "hw" Sha256.Private.compress_hw

(* A random 8-word state and a block at a random offset inside a larger
   string (with bytes on either side). *)
let kernel_case_gen =
  QCheck.Gen.(
    let word = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff) in
    triple (array_size (return 8) word) (int_bound 40) (int_bound 8) >>= fun (h, off, tail) ->
    string_size (return (off + 64 + tail)) >|= fun s -> (h, s, off))

let prop_sha256_kernels_agree =
  QCheck.Test.make ~name:"sha256 hw kernel = ocaml kernel" ~count:2000
    (QCheck.make
       ~print:(fun (h, s, off) ->
         Printf.sprintf "state %s, block at %d of %S"
           (String.concat " " (Array.to_list (Array.map string_of_int h)))
           off s)
       kernel_case_gen)
    (fun (h, s, off) ->
      let a = Array.copy h and b = Array.copy h in
      Sha256.Private.compress_ocaml a s off;
      Sha256.Private.compress_hw b s off;
      a = b)

let test_sha256_kernels_agree () =
  if not Sha256.Private.hw_available then Alcotest.skip ();
  QCheck.Test.check_exn prop_sha256_kernels_agree

(* RFC 8439 ChaCha20 written with an array-based quarter round: the
   reference the C keystream of [Chacha20] must reproduce. *)
let reference_chacha20 ~key ~nonce ~counter payload =
  let mask = 0xffffffff in
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask in
  let quarter_round st a b c d =
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 7
  in
  let word s off = Int32.to_int (String.get_int32_le s off) land mask in
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- word key (4 * i)
  done;
  for i = 0 to 2 do
    st.(13 + i) <- word nonce (4 * i)
  done;
  let out = Bytes.of_string payload in
  let n = Bytes.length out in
  let blk = ref 0 in
  while 64 * !blk < n do
    st.(12) <- (counter + !blk) land mask;
    let w = Array.copy st in
    for _ = 1 to 10 do
      quarter_round w 0 4 8 12;
      quarter_round w 1 5 9 13;
      quarter_round w 2 6 10 14;
      quarter_round w 3 7 11 15;
      quarter_round w 0 5 10 15;
      quarter_round w 1 6 11 12;
      quarter_round w 2 7 8 13;
      quarter_round w 3 4 9 14
    done;
    for j = 64 * !blk to min n (64 * (!blk + 1)) - 1 do
      let k = j land 63 in
      let v = (w.(k / 4) + st.(k / 4)) land mask in
      Bytes.set_uint8 out j (Bytes.get_uint8 out j lxor ((v lsr (8 * (k land 3))) land 0xff))
    done;
    incr blk
  done;
  Bytes.to_string out

(* Block counters anywhere in 32 bits, and within 3 blocks of 2^32 so that
   longer payloads wrap it. *)
let counter_gen =
  QCheck.Gen.(
    frequency
      [ (3, int_bound 0xffffffff); (1, map (fun d -> 0x1_0000_0000 - 1 - d) (int_bound 2)) ])

let prop_chacha20_reference =
  QCheck.Test.make ~name:"chacha20 = array-based reference" ~count:300
    QCheck.(
      quad (string_of_size (Gen.return 32)) (string_of_size (Gen.return 12))
        (make ~print:string_of_int counter_gen)
        (string_of_size Gen.(int_bound 1000)))
    (fun (key, nonce, counter, pt) ->
      String.equal (Chacha20.encrypt ~key ~nonce ~counter pt)
        (reference_chacha20 ~key ~nonce ~counter pt))

(* [encrypt_into] at random offsets of larger buffers writes exactly the
   reference ciphertext to its range and leaves every other byte as it
   was. *)
let prop_chacha20_into =
  QCheck.Test.make ~name:"chacha20 encrypt_into = reference, in range only" ~count:300
    QCheck.(
      make
        ~print:(fun (_, _, counter, src, soff, len, dst, doff) ->
          Printf.sprintf "counter %d, src %d bytes at %d, len %d, dst %d bytes at %d" counter
            (String.length src) soff len (String.length dst) doff)
        Gen.(
          string_size (return 32) >>= fun key ->
          string_size (return 12) >>= fun nonce ->
          counter_gen >>= fun counter ->
          int_bound 300 >>= fun len ->
          pair (int_bound 40) (int_bound 40) >>= fun (soff, doff) ->
          pair (int_bound 40) (int_bound 40) >>= fun (stail, dtail) ->
          string_size (return (soff + len + stail)) >>= fun src ->
          string_size (return (doff + len + dtail)) >|= fun dst ->
          (key, nonce, counter, src, soff, len, dst, doff)))
    (fun (key, nonce, counter, src, soff, len, dst, doff) ->
      let out = Bytes.of_string dst in
      Chacha20.encrypt_into ~key ~nonce ~counter src ~src_off:soff out ~dst_off:doff ~len;
      let expected =
        String.sub dst 0 doff
        ^ reference_chacha20 ~key ~nonce ~counter (String.sub src soff len)
        ^ String.sub dst (doff + len) (String.length dst - doff - len)
      in
      String.equal (Bytes.to_string out) expected)

(* The 4-block kernel (runs of 256 bytes; x86-64 only) and the scalar
   kernel against the reference: lengths up to 2,000 with the kernel
   boundaries forced, counters whose low 32 bits wrap inside a group of
   four blocks, and random offsets into larger buffers. *)
let prop_chacha20_kernels =
  QCheck.Test.make ~name:"chacha20 4-block and scalar kernels = reference" ~count:300
    QCheck.(
      make
        ~print:(fun (_, _, counter, src, soff, len, doff) ->
          Printf.sprintf "counter %d, src %d bytes at %d, len %d, dst at %d" counter
            (String.length src) soff len doff)
        Gen.(
          string_size (return 32) >>= fun key ->
          string_size (return 12) >>= fun nonce ->
          frequency
            [ (2, counter_gen);
              (1, map (fun d -> 0x1_0000_0000 - 4 + d) (int_bound 3)) ]
          >>= fun counter ->
          frequency [ (1, oneofl [ 255; 256; 257; 511; 1024 ]); (3, int_bound 2000) ]
          >>= fun len ->
          pair (int_bound 40) (int_bound 40) >>= fun (soff, doff) ->
          string_size (return (soff + len + 7)) >|= fun src ->
          (key, nonce, counter, src, soff, len, doff)))
    (fun (key, nonce, counter, src, soff, len, doff) ->
      let pt = String.sub src soff len in
      let expected = reference_chacha20 ~key ~nonce ~counter pt in
      let out = Bytes.make (doff + len + 3) '\x00' in
      Chacha20.encrypt_into ~key ~nonce ~counter src ~src_off:soff out ~dst_off:doff ~len;
      String.equal (Bytes.sub_string out doff len) expected
      && String.equal (Chacha20.Private.encrypt_scalar ~key ~nonce ~counter pt) expected)

let test_chacha20_into_bounds () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let src = String.make 10 's' in
  List.iter
    (fun (name, src_off, dst_len, dst_off, len) ->
      match
        Chacha20.encrypt_into ~key ~nonce src ~src_off (Bytes.create dst_len) ~dst_off ~len
      with
      | () -> Alcotest.failf "%s: no exception" name
      | exception Invalid_argument _ -> ())
    [ ("negative length", 0, 10, 0, -1);
      ("negative src offset", -1, 10, 0, 1);
      ("negative dst offset", 0, 10, -1, 1);
      ("src overrun", 5, 10, 0, 6);
      ("dst overrun", 0, 5, 0, 6);
      ("dst offset overrun", 0, 10, 8, 3);
      ("src offset past end", 11, 10, 0, 0) ];
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () ->
      Chacha20.encrypt_into ~key:"short" ~nonce src ~src_off:0 (Bytes.create 10) ~dst_off:0
        ~len:1)

(* ----- the AEAD composition and the HMAC paths, against references ----- *)

(* The AEAD subkeys, derived as [Aead.prepare] derives them. *)
let aead_subkeys key =
  let okm = Kdf.derive ~ikm:key ~info:"splitbft-aead-v1" ~length:64 () in
  (String.sub okm 0 32, String.sub okm 32 32)

let aead_case_gen =
  QCheck.Gen.(
    quad (string_size (return 32)) (string_size (return 12))
      (string_size (int_bound 40))
      (string_size (int_bound 300)))

(* Seal = reference ChaCha20 ciphertext, then the first 16 bytes of the
   reference HMAC over aad, nonce and ciphertext; open inverts it and
   rejects every single-byte change and every truncation. *)
let prop_aead_composition =
  QCheck.Test.make ~name:"aead = chacha20 then truncated hmac" ~count:100
    (QCheck.make
       ~print:(fun (_, _, aad, pt) -> Printf.sprintf "aad %S, plaintext %S" aad pt)
       aead_case_gen)
    (fun (key, nonce, aad, pt) ->
      let enc, mac = aead_subkeys key in
      let ct = reference_chacha20 ~key:enc ~nonce ~counter:1 pt in
      let expected = ct ^ String.sub (reference_hmac ~key:mac (aad ^ nonce ^ ct)) 0 16 in
      let k = Aead.prepare key in
      let sealed = Aead.encrypt_with k ~nonce ~aad pt in
      let rejected payload = Result.is_error (Aead.decrypt_with k ~nonce ~aad payload) in
      let every_change_rejected =
        List.for_all
          (fun i ->
            let b = Bytes.of_string sealed in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i land 7))));
            rejected (Bytes.to_string b))
          (List.init (String.length sealed) Fun.id)
      in
      let every_truncation_rejected =
        List.for_all
          (fun n -> rejected (String.sub sealed 0 n))
          (List.init (String.length sealed) Fun.id)
      in
      String.equal sealed expected
      && Aead.decrypt_with k ~nonce ~aad sealed = Ok pt
      && every_change_rejected && every_truncation_rejected)

(* [mac_sub_into] over parts and a slice, written at an offset, is the
   reference tag over the concatenation; the bytes around it stay. *)
let prop_hmac_sub_into =
  QCheck.Test.make ~name:"hmac mac_sub_into = reference" ~count:300
    QCheck.(
      make
        ~print:(fun (_, (msg, parts), (s, off, len), doff) ->
          Printf.sprintf "%S in %d parts, then %d bytes at %d of %S, tag at %d" msg
            (List.length parts) len off s doff)
        Gen.(
          int_range 0 100 >>= fun klen ->
          string_size (return klen) >>= fun key ->
          split_gen >>= fun split ->
          string_size (int_bound 200) >>= fun s ->
          int_bound (String.length s) >>= fun off ->
          int_bound (String.length s - off) >>= fun len ->
          int_bound 20 >|= fun doff -> (key, split, (s, off, len), doff)))
    (fun (key, (msg, parts), (s, off, len), doff) ->
      let dst = Bytes.make (doff + 40) '*' in
      Hmac.mac_sub_into (Hmac.prepare key) parts s off len dst doff;
      String.equal (Bytes.to_string dst)
        (String.make doff '*'
        ^ reference_hmac ~key (msg ^ String.sub s off len)
        ^ String.make 8 '*'))

let test_hmac_verify_tag_length () =
  let key = Hmac.prepare "k" in
  let tag = Hmac.mac_with key [ "msg" ] in
  checkb "full tag" true (Hmac.verify_with key ~msg:"msg" ~tag);
  checkb "16-byte prefix" false (Hmac.verify_with key ~msg:"msg" ~tag:(String.sub tag 0 16));
  checkb "33 bytes" false (Hmac.verify_with key ~msg:"msg" ~tag:(tag ^ "\x00"));
  checkb "empty" false (Hmac.verify_with key ~msg:"msg" ~tag:"");
  Alcotest.check_raises "slice out of range"
    (Invalid_argument "Sha256.update_sub: range out of bounds") (fun () ->
      Hmac.mac_sub_into key [] "abc" 2 2 (Bytes.create 32) 0);
  Alcotest.check_raises "tag out of range"
    (Invalid_argument "Sha256.finalize_into: range out of bounds") (fun () ->
      Hmac.mac_sub_into key [] "abc" 0 3 (Bytes.create 40) 9)

(* ----- box ----- *)

let test_box_roundtrip () =
  let rng = Rng.create 4L in
  let kp = Box.derive ~seed:"recipient" in
  match Box.encrypt ~public:kp.Box.public ~rng "payload" with
  | Error e -> Alcotest.fail e
  | Ok ct -> (
    checkb "ct differs" false (String.equal ct "payload");
    match Box.decrypt kp.Box.secret ct with
    | Ok pt -> check "roundtrip" "payload" pt
    | Error e -> Alcotest.fail e)

let test_box_wrong_recipient () =
  let rng = Rng.create 4L in
  let a = Box.derive ~seed:"alice" and b = Box.derive ~seed:"bob" in
  match Box.encrypt ~public:a.Box.public ~rng "for alice" with
  | Error e -> Alcotest.fail e
  | Ok ct -> checkb "bob cannot open" true (Result.is_error (Box.decrypt b.Box.secret ct))

let test_box_unknown_public () =
  let rng = Rng.create 4L in
  checkb "unknown recipient" true
    (Result.is_error (Box.encrypt ~public:(String.make 32 'q') ~rng "x"))

let suites =
  [ ( "crypto",
      [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "sha256 1M-a" `Slow test_sha256_million_a;
        Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental_equals_oneshot;
        Alcotest.test_case "sha256 parts" `Quick test_sha256_digest_parts;
        Alcotest.test_case "hmac rfc4231 #1" `Quick test_hmac_rfc4231_case1;
        Alcotest.test_case "hmac rfc4231 #2" `Quick test_hmac_rfc4231_case2;
        Alcotest.test_case "hmac rfc4231 #3" `Quick test_hmac_rfc4231_case3;
        Alcotest.test_case "hmac rfc4231 #6" `Quick test_hmac_rfc4231_long_key;
        Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
        Alcotest.test_case "constant-time eq" `Quick test_constant_time_eq;
        Alcotest.test_case "chacha20 block vector" `Quick test_chacha20_block_vector;
        Alcotest.test_case "chacha20 encrypt vector" `Quick test_chacha20_encrypt_vector;
        Alcotest.test_case "chacha20 involutive" `Quick test_chacha20_involutive;
        Alcotest.test_case "chacha20 sizes" `Quick test_chacha20_bad_sizes;
        Alcotest.test_case "hkdf rfc5869 #1" `Quick test_hkdf_rfc5869_case1;
        Alcotest.test_case "hkdf lengths" `Quick test_hkdf_lengths;
        Alcotest.test_case "aead roundtrip" `Quick test_aead_roundtrip;
        Alcotest.test_case "aead tamper" `Quick test_aead_tamper_detected;
        QCheck_alcotest.to_alcotest prop_aead_roundtrip;
        Alcotest.test_case "signature basic" `Quick test_signature_basic;
        Alcotest.test_case "signature unknown" `Quick test_signature_unknown_public;
        Alcotest.test_case "signature derive" `Quick test_signature_deterministic_derive;
        Alcotest.test_case "signature length" `Quick test_signature_wrong_length;
        Alcotest.test_case "box roundtrip" `Quick test_box_roundtrip;
        Alcotest.test_case "box wrong recipient" `Quick test_box_wrong_recipient;
        Alcotest.test_case "box unknown" `Quick test_box_unknown_public;
        QCheck_alcotest.to_alcotest prop_hmac_prepared_parts;
        Alcotest.test_case "hmac prepared reuse" `Quick test_hmac_prepared_reuse;
        Alcotest.test_case "sha256 every split" `Quick test_sha256_every_split;
        QCheck_alcotest.to_alcotest prop_aead_prepared;
        QCheck_alcotest.to_alcotest prop_box_sealing_roundtrip;
        Alcotest.test_case "sha256 ocaml kernel vectors" `Quick test_sha256_ocaml_kernel_vectors;
        Alcotest.test_case "sha256 hw kernel vectors" `Quick test_sha256_hw_kernel_vectors;
        Alcotest.test_case "sha256 hw kernel = ocaml kernel" `Quick test_sha256_kernels_agree;
        QCheck_alcotest.to_alcotest prop_chacha20_reference;
        QCheck_alcotest.to_alcotest prop_chacha20_into;
        QCheck_alcotest.to_alcotest prop_chacha20_kernels;
        Alcotest.test_case "chacha20 encrypt_into bounds" `Quick test_chacha20_into_bounds;
        QCheck_alcotest.to_alcotest prop_aead_composition;
        QCheck_alcotest.to_alcotest prop_hmac_sub_into;
        Alcotest.test_case "hmac verify tag length" `Quick test_hmac_verify_tag_length ] ) ]
