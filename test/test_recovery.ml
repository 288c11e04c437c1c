(* The recovery core shared by every sealer and every state-transfer
   consumer: the counter-bound sealed image (judged against real
   [Sealing.seal]/[unseal], so on CPUs without the x86-64 kernels the
   tamper cases run the scalar ChaCha20 and the OCaml SHA-256) and the
   f+1 catch-up tally. *)

module Sealed_image = Splitbft_consensus.Sealed_image
module Catchup = Splitbft_consensus.Catchup
module Sealing = Splitbft_tee.Sealing
module Aead = Splitbft_crypto.Aead
module Message = Splitbft_types.Message
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

let checkb = Alcotest.(check bool)

(* ----- sealed image ----- *)

let key = Aead.prepare (String.make 32 'k')
let rng = Splitbft_util.Rng.create 3L

(* The body every case seals: a view and a snapshot. *)
let write_body w (view, snapshot) =
  W.varint w view;
  W.bytes w snapshot

let read_body r =
  let view = R.varint r in
  (view, R.bytes r)

let body = (7, "snapshot bytes")
let image ~counter = Sealed_image.seal ~counter ~seal:Fun.id write_body body
let sealed ~counter = Sealing.seal ~key ~rng (image ~counter)

let flip_byte s i =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s

type expect =
  | Accept_fresh
  | Accept_body
  | Refuse of string  (* the reason's prefix *)

let test_image_layout () =
  Alcotest.(check string) "u64 counter, then the body"
    (W.to_string
       (fun w () ->
         W.u64 w 9L;
         write_body w body)
       ())
    (image ~counter:9L)

(* The platform counter stands at [c] = 5 for the blob cases. *)
let cases =
  let c = 5L in
  let rollback = "test: rollback detected" in
  let image_bytes = image ~counter:c in
  [ ("absent blob, counter 0", 0L, None, Accept_fresh, Accept_fresh);
    ("absent blob, counter 1", 1L, None, Refuse rollback, Accept_fresh);
    ("absent blob, counter 2", 2L, None, Refuse rollback, Refuse rollback);
    ("blob bound to c", c, Some (sealed ~counter:c), Accept_body, Accept_body);
    ("blob bound to c-1", c, Some (sealed ~counter:4L), Refuse rollback, Accept_body);
    ("blob bound to c-2", c, Some (sealed ~counter:3L), Refuse rollback, Refuse rollback);
    ("blob bound to c+1", c, Some (sealed ~counter:6L), Refuse rollback, Refuse rollback);
    ( "one flipped ciphertext byte",
      c,
      Some (flip_byte (sealed ~counter:c) 30),
      Refuse "test: sealed checkpoint rejected",
      Refuse "test: sealed checkpoint rejected" );
    ( "truncated body",
      c,
      Some (Sealing.seal ~key ~rng (String.sub image_bytes 0 (String.length image_bytes - 3))),
      Refuse "test: sealed checkpoint malformed",
      Refuse "test: sealed checkpoint malformed" ) ]

let test_image_verdicts () =
  List.iter
    (fun (name, counter, blob, slack0, slack1) ->
      List.iter
        (fun (slack, expect) ->
          let name = Printf.sprintf "%s, slack %d" name slack in
          match
            ( Sealed_image.check ~who:"test" ~slack ~counter ~unseal:(Sealing.unseal ~key) blob
                read_body,
              expect )
          with
          | Sealed_image.Fresh, Accept_fresh -> ()
          | Restored b, Accept_body -> checkb (name ^ ": body restored") true (b = body)
          | Refused reason, Refuse prefix ->
            checkb
              (Printf.sprintf "%s: %S starts with %S" name reason prefix)
              true
              (String.starts_with ~prefix reason)
          | Fresh, _ -> Alcotest.failf "%s: accepted as a fresh start" name
          | Restored _, _ -> Alcotest.failf "%s: accepted the blob" name
          | Refused reason, _ -> Alcotest.failf "%s: refused (%s)" name reason)
        [ (0, slack0); (1, slack1) ])
    cases

let test_fresh_predicate () =
  checkb "bound to the counter" true (Sealed_image.fresh ~slack:0 ~counter:3L 3L);
  checkb "one behind, slack 0" false (Sealed_image.fresh ~slack:0 ~counter:3L 2L);
  checkb "one behind, slack 1" true (Sealed_image.fresh ~slack:1 ~counter:3L 2L);
  checkb "ahead of the counter" false (Sealed_image.fresh ~slack:1 ~counter:3L 4L)

(* ----- catch-up tally ----- *)

let batch tag =
  [ { Message.client = 1; timestamp = 1L; payload = tag; auth = "" } ]

let digest tag = Message.digest_of_batch (batch tag)
let vote t ~sender tag = Catchup.vote t ~key:4 ~sender ~digest:(digest tag) (batch tag)

let test_duplicate_replier () =
  let t = Catchup.create ~f:1 ~compare:Int.compare in
  checkb "first vote" false (vote t ~sender:1 "a");
  checkb "the same replier again" false (vote t ~sender:1 "a");
  checkb "a second replier completes f+1" true (vote t ~sender:2 "a")

let test_f_against_dissenter () =
  let t = Catchup.create ~f:2 ~compare:Int.compare in
  checkb "1 of f" false (vote t ~sender:1 "a");
  checkb "f agreeing" false (vote t ~sender:2 "a");
  checkb "a dissenter" false (vote t ~sender:3 "b");
  checkb "f+1 agreeing" true (vote t ~sender:4 "a")

let test_body_must_hash () =
  let t = Catchup.create ~f:1 ~compare:Int.compare in
  checkb "body does not hash to its digest" false
    (Catchup.vote t ~key:4 ~sender:1 ~digest:(digest "a") (batch "forged"));
  checkb "one honest vote" false (vote t ~sender:2 "a");
  checkb "the forged vote never counted" true (vote t ~sender:3 "a")

let test_retry_supersedes () =
  let t = Catchup.create ~f:1 ~compare:Int.compare in
  Catchup.offer t ~replier:1 ~height:10 ~view:0;
  Catchup.offer t ~replier:1 ~height:4 ~view:0;
  checkb "one replier vouches for nothing" false (Catchup.caught_up t 4);
  Catchup.offer t ~replier:2 ~height:10 ~view:0;
  checkb "the retry's shorter height is the live one" true (Catchup.caught_up t 4)

let test_vouched_height_and_view () =
  let t = Catchup.create ~f:1 ~compare:Int64.compare in
  Catchup.offer t ~replier:1 ~height:20L ~view:3;
  checkb "no view before f+1 replies" true (Catchup.vouched_view t = None);
  Catchup.offer t ~replier:2 ~height:12L ~view:1;
  Catchup.offer t ~replier:3 ~height:15L ~view:2;
  checkb "below the (f+1)-th highest height" false (Catchup.caught_up t 14L);
  checkb "at the (f+1)-th highest height" true (Catchup.caught_up t 15L);
  checkb "the (f+1)-th highest view" true (Catchup.vouched_view t = Some 2);
  Catchup.reset t;
  checkb "reset forgets the slots" false (Catchup.caught_up t 20L)

let test_absorb () =
  let t = Catchup.create ~f:1 ~compare:Int.compare in
  let reply replier =
    { Message.st_replier = replier;
      st_requester = 0;
      st_stable = 8;
      st_proof = [];
      st_snapshot = "";
      st_view = 1;
      st_entries =
        List.map
          (fun seq -> { Message.se_seq = seq; se_digest = digest "a"; se_batch = batch "a" })
          [ 9; 10; 11 ] }
  in
  let installed = ref [] in
  let absorb replier =
    Catchup.absorb t (reply replier)
      ~admit:(fun seq -> seq > 9)
      ~install:(fun e -> installed := e.Message.se_seq :: !installed)
  in
  absorb 1;
  checkb "nothing installed on one reply" true (!installed = []);
  absorb 2;
  checkb "admitted entries installed at f+1" true (List.rev !installed = [ 10; 11 ]);
  checkb "the slot's height is the last entry" true (Catchup.caught_up t 11);
  checkb "and not below it" false (Catchup.caught_up t 10)

let suites =
  [ ( "recovery",
      [ Alcotest.test_case "sealed image: layout" `Quick test_image_layout;
        Alcotest.test_case "sealed image: verdicts" `Quick test_image_verdicts;
        Alcotest.test_case "sealed image: freshness" `Quick test_fresh_predicate;
        Alcotest.test_case "catchup: duplicate replier" `Quick test_duplicate_replier;
        Alcotest.test_case "catchup: f against a dissenter" `Quick test_f_against_dissenter;
        Alcotest.test_case "catchup: body must hash" `Quick test_body_must_hash;
        Alcotest.test_case "catchup: retry supersedes" `Quick test_retry_supersedes;
        Alcotest.test_case "catchup: vouched height and view" `Quick
          test_vouched_height_and_view;
        Alcotest.test_case "catchup: state reply" `Quick test_absorb ] ) ]
