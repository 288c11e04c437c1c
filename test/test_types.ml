module M = Splitbft_types.Message
module Ids = Splitbft_types.Ids
module Validation = Splitbft_types.Validation
module Newview_logic = Splitbft_consensus.Newview
module View_change = Splitbft_consensus.View_change
module Client_dedup = Splitbft_types.Client_dedup
module Session = Splitbft_types.Session
module Keys = Splitbft_types.Keys
module Addr = Splitbft_types.Addr
module Signature = Splitbft_crypto.Signature
module Rng = Splitbft_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ----- generators ----- *)

let gen_request =
  QCheck.Gen.(
    map4
      (fun client ts payload auth -> { M.client; timestamp = Int64.of_int ts; payload; auth })
      (0 -- 200) (0 -- 10_000) (string_size (0 -- 40)) (string_size (0 -- 40)))

let gen_batch = QCheck.Gen.(list_size (0 -- 5) gen_request)

let gen_msg =
  QCheck.Gen.(
    oneof
      [ map (fun r -> M.Request r) gen_request;
        map4
          (fun view seq batch sender -> M.Preprepare { view; seq; batch; sender; pp_sig = "s" })
          (0 -- 5) (0 -- 100) gen_batch (0 -- 3);
        map4
          (fun view seq digest sender -> M.Prepare { view; seq; digest; sender; p_sig = "s" })
          (0 -- 5) (0 -- 100) (string_size (return 32)) (0 -- 3);
        map4
          (fun view seq digest sender -> M.Commit { view; seq; digest; sender; c_sig = "s" })
          (0 -- 5) (0 -- 100) (string_size (return 32)) (0 -- 3);
        map3
          (fun seq digest sender ->
            M.Checkpoint { seq; state_digest = digest; sender; ck_sig = "s" })
          (0 -- 100) (string_size (return 32)) (0 -- 3);
        map3
          (fun client d requester ->
            if client mod 2 = 0 then M.Batch_fetch { bf_digest = d; bf_requester = requester }
            else M.Session_init { si_client = client })
          (0 -- 10) (string_size (return 32)) (0 -- 3) ])

let gen_prepare_rec =
  QCheck.Gen.(
    map4
      (fun view seq digest sender -> { M.view; seq; digest; sender; p_sig = "sig" })
      (0 -- 3) (0 -- 50) (string_size (return 32)) (0 -- 3))

let gen_proof =
  QCheck.Gen.(
    map2
      (fun (view, seq, digest, sender) prepares ->
        { M.proof_preprepare =
            { M.pd_view = view; pd_seq = seq; pd_digest = digest; pd_sender = sender;
              pd_sig = "s" };
          proof_prepares = prepares })
      (tup4 (0 -- 3) (0 -- 50) (string_size (return 32)) (0 -- 3))
      (list_size (0 -- 3) gen_prepare_rec))

let gen_viewchange =
  QCheck.Gen.(
    map4
      (fun v stable proofs sender ->
        { M.vc_new_view = v;
          vc_last_stable = stable;
          vc_checkpoint_proof = [];
          vc_prepared = proofs;
          vc_sender = sender;
          vc_sig = "vcsig" })
      (1 -- 4) (0 -- 20) (list_size (0 -- 3) gen_proof) (0 -- 3))

let gen_newview =
  QCheck.Gen.(
    map3
      (fun v vcs sender ->
        { M.nv_view = v; nv_viewchanges = vcs; nv_preprepares = []; nv_sender = sender;
          nv_sig = "nvsig" })
      (1 -- 4) (list_size (0 -- 3) gen_viewchange) (0 -- 3))

let prop_viewchange_roundtrip =
  QCheck.Test.make ~name:"viewchange codec roundtrip (nested certs)" ~count:200
    (QCheck.make gen_viewchange)
    (fun vc ->
      match M.decode (M.encode (M.Viewchange vc)) with
      | Ok (M.Viewchange vc') -> vc = vc'
      | _ -> false)

let prop_newview_roundtrip =
  QCheck.Test.make ~name:"newview codec roundtrip (doubly nested)" ~count:100
    (QCheck.make gen_newview)
    (fun nv ->
      match M.decode (M.encode (M.Newview nv)) with
      | Ok (M.Newview nv') -> nv = nv'
      | _ -> false)

let prop_signing_bytes_ignore_signature =
  QCheck.Test.make ~name:"signing bytes independent of signature field" ~count:100
    (QCheck.make gen_viewchange)
    (fun vc ->
      String.equal
        (M.viewchange_signing_bytes vc)
        (M.viewchange_signing_bytes { vc with M.vc_sig = "different" }))

let arbitrary_msg = QCheck.make gen_msg

let prop_message_roundtrip =
  QCheck.Test.make ~name:"message codec roundtrip" ~count:300 arbitrary_msg (fun msg ->
      match M.decode (M.encode msg) with Ok m -> m = msg | Error _ -> false)

let prop_decode_total =
  QCheck.Test.make ~name:"message decode total on junk" ~count:300 QCheck.string
    (fun junk -> match M.decode junk with Ok _ | Error _ -> true)

(* Execution keeps an executed batch as this encoding: it must give the
   batch back, and be exactly the bytes the batch's digest hashes. *)
let prop_batch_encoding =
  QCheck.Test.make ~name:"batch encoding round-trips and is what the digest hashes" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 40) gen_request))
    (fun batch ->
      let enc = M.encode_batch batch in
      M.decode_batch enc = Ok batch
      && String.equal (M.digest_of_batch batch) (Splitbft_crypto.Sha256.digest enc)
      && Result.is_error (M.decode_batch (String.sub enc 1 (String.length enc - 1))))

let test_peek_tag () =
  let msg = M.Request { M.client = 1; timestamp = 2L; payload = "p"; auth = "a" } in
  Alcotest.(check (option int)) "peek" (Some 1) (M.peek_tag (M.encode msg));
  Alcotest.(check (option int)) "empty" None (M.peek_tag "")

let test_summarize_shares_signature () =
  let kp = Signature.derive ~seed:"prep" in
  let pp = { M.view = 1; seq = 2; batch = []; sender = 0; pp_sig = "" } in
  let pp = { pp with M.pp_sig = Signature.sign kp.Signature.secret (M.preprepare_signing_bytes pp) } in
  let pd = M.summarize pp in
  checkb "same signature verifies on digest form" true
    (Signature.verify ~public:kp.Signature.public
       ~msg:(M.preprepare_digest_signing_bytes pd) ~signature:pd.M.pd_sig)

let test_empty_batch_digest () =
  Alcotest.(check string) "constant" (M.digest_of_batch []) M.empty_batch_digest

(* ----- validation ----- *)

let enclave_keys = Array.init 4 (fun i -> Signature.derive ~seed:(Printf.sprintf "val-%d" i))
let lookup i = if i >= 0 && i < 4 then Some enclave_keys.(i).Signature.public else None

let signed_prepare ~view ~seq ~digest ~sender =
  let p = { M.view; seq; digest; sender; p_sig = "" } in
  { p with M.p_sig = Signature.sign enclave_keys.(sender).Signature.secret (M.prepare_signing_bytes p) }

let signed_pd ~view ~seq ~digest ~sender =
  let pd = { M.pd_view = view; pd_seq = seq; pd_digest = digest; pd_sender = sender; pd_sig = "" } in
  { pd with
    M.pd_sig =
      Signature.sign enclave_keys.(sender).Signature.secret (M.preprepare_digest_signing_bytes pd) }

let digest = String.make 32 'd'

let test_prepare_cert () =
  let pd = signed_pd ~view:0 ~seq:1 ~digest ~sender:0 in
  let p1 = signed_prepare ~view:0 ~seq:1 ~digest ~sender:1 in
  let p2 = signed_prepare ~view:0 ~seq:1 ~digest ~sender:2 in
  checkb "2f prepares complete" true (Validation.prepare_cert_complete ~f:1 pd [ p1; p2 ]);
  checkb "too few" false (Validation.prepare_cert_complete ~f:1 pd [ p1 ]);
  checkb "duplicate sender rejected" false
    (Validation.prepare_cert_complete ~f:1 pd [ p1; p1 ]);
  let own = signed_prepare ~view:0 ~seq:1 ~digest ~sender:0 in
  checkb "primary prepare does not count" false
    (Validation.prepare_cert_complete ~f:1 pd [ p1; own ]);
  let other = signed_prepare ~view:0 ~seq:1 ~digest:(String.make 32 'x') ~sender:2 in
  checkb "digest mismatch" false (Validation.prepare_cert_complete ~f:1 pd [ p1; other ])

let test_verify_prepared_proof () =
  let pd = signed_pd ~view:0 ~seq:1 ~digest ~sender:0 in
  let p1 = signed_prepare ~view:0 ~seq:1 ~digest ~sender:1 in
  let p2 = signed_prepare ~view:0 ~seq:1 ~digest ~sender:2 in
  let proof = { M.proof_preprepare = pd; proof_prepares = [ p1; p2 ] } in
  checkb "valid proof" true (View_change.verify_prepared_proof ~f:1 lookup proof);
  let forged = { proof with M.proof_prepares = [ p1; { p2 with M.p_sig = String.make 32 'z' } ] } in
  checkb "bad signature in proof" false (View_change.verify_prepared_proof ~f:1 lookup forged)

let test_commit_quorum () =
  let commit sender =
    let c = { M.view = 0; seq = 1; digest; sender; c_sig = "" } in
    { c with M.c_sig = Signature.sign enclave_keys.(sender).Signature.secret (M.commit_signing_bytes c) }
  in
  checkb "2f+1 commits" true
    (Validation.commit_quorum_complete ~quorum:3 ~view:0 ~seq:1 ~digest
       [ commit 0; commit 1; commit 2 ]);
  checkb "distinct senders required" false
    (Validation.commit_quorum_complete ~quorum:3 ~view:0 ~seq:1 ~digest
       [ commit 0; commit 0; commit 2 ]);
  checkb "wrong view" false
    (Validation.commit_quorum_complete ~quorum:3 ~view:1 ~seq:1 ~digest
       [ commit 0; commit 1; commit 2 ])

let test_checkpoint_quorum () =
  let ck sender seq =
    let c = { M.seq; state_digest = digest; sender; ck_sig = "" } in
    { c with M.ck_sig = Signature.sign enclave_keys.(sender).Signature.secret (M.checkpoint_signing_bytes c) }
  in
  checkb "quorum" true
    (Validation.checkpoint_quorum_complete ~quorum:3 [ ck 0 10; ck 1 10; ck 2 10 ]);
  Alcotest.(check (option int)) "proven seq" (Some 10)
    (Validation.checkpoint_quorum_seq ~quorum:3 [ ck 0 10; ck 1 10; ck 2 10 ]);
  Alcotest.(check (option int)) "mixed seqs, no quorum" None
    (Validation.checkpoint_quorum_seq ~quorum:3 [ ck 0 10; ck 1 20; ck 2 30 ])

let test_distinct_senders () =
  checkb "distinct" true (Validation.distinct_senders [ 1; 2; 3 ]);
  checkb "duplicate" false (Validation.distinct_senders [ 1; 2; 1 ]);
  checkb "empty" true (Validation.distinct_senders [])

(* ----- newview logic ----- *)

let vc ~sender ~stable ~prepared =
  { M.vc_new_view = 1;
    vc_last_stable = stable;
    vc_checkpoint_proof = [];
    vc_prepared = prepared;
    vc_sender = sender;
    vc_sig = "" }

let proof ~view ~seq ~digest =
  { M.proof_preprepare =
      { M.pd_view = view; pd_seq = seq; pd_digest = digest; pd_sender = 0; pd_sig = "" };
    proof_prepares = [] }

let test_newview_compute_gaps () =
  let d5 = String.make 32 '5' and d7 = String.make 32 '7' in
  let vcs =
    [ vc ~sender:0 ~stable:4 ~prepared:[ proof ~view:0 ~seq:5 ~digest:d5 ];
      vc ~sender:1 ~stable:4 ~prepared:[ proof ~view:0 ~seq:7 ~digest:d7 ];
      vc ~sender:2 ~stable:3 ~prepared:[] ]
  in
  let min_s, max_s, pds = Newview_logic.compute ~view:1 ~sender:1 vcs in
  checki "min_s is max stable" 4 min_s;
  checki "max_s" 7 max_s;
  checki "covers (min,max]" 3 (List.length pds);
  let seq6 = List.find (fun (pd : M.preprepare_digest) -> pd.M.pd_seq = 6) pds in
  Alcotest.(check string) "gap filled with noop" M.empty_batch_digest seq6.M.pd_digest;
  let seq5 = List.find (fun (pd : M.preprepare_digest) -> pd.M.pd_seq = 5) pds in
  Alcotest.(check string) "prepared digest kept" d5 seq5.M.pd_digest

let test_newview_highest_view_wins () =
  let d_old = String.make 32 'o' and d_new = String.make 32 'n' in
  let vcs =
    [ vc ~sender:0 ~stable:0 ~prepared:[ proof ~view:1 ~seq:1 ~digest:d_old ];
      vc ~sender:1 ~stable:0 ~prepared:[ proof ~view:2 ~seq:1 ~digest:d_new ] ]
  in
  let _, _, pds = Newview_logic.compute ~view:3 ~sender:0 vcs in
  Alcotest.(check string) "highest view proof wins" d_new
    (List.hd pds).M.pd_digest

let test_newview_matches () =
  let vcs = [ vc ~sender:0 ~stable:0 ~prepared:[ proof ~view:0 ~seq:1 ~digest ] ] in
  let _, _, pds = Newview_logic.compute ~view:1 ~sender:2 vcs in
  checkb "matches itself" true (Newview_logic.matches ~expected:pds ~actual:pds);
  let tampered =
    List.map (fun pd -> { pd with M.pd_digest = String.make 32 't' }) pds
  in
  checkb "tampered rejected" false (Newview_logic.matches ~expected:pds ~actual:tampered);
  checkb "length mismatch" false (Newview_logic.matches ~expected:pds ~actual:[])

(* ----- the shared view change: build -> accept -> plan ----- *)

let sign_by i bytes = Signature.sign enclave_keys.(i).Signature.secret bytes

(* A NewView for view 1 (primary 1) over ViewChanges from 0, 2 and 3 that
   together prove seqs 1 and 2, so the plan holds two PrePrepares. *)
let newview_round_trip_base () =
  let d1 = String.make 32 '1' and d2 = String.make 32 '2' in
  let vc sender prepared =
    View_change.make ~new_view:1 ~last_stable:0 ~proof:[] ~prepared ~sender ~sign:(sign_by sender)
  in
  let vcs =
    [ vc 0 [ proof ~view:0 ~seq:1 ~digest:d1 ];
      vc 2 [ proof ~view:0 ~seq:2 ~digest:d2 ];
      vc 3 [] ]
  in
  let min_s, max_s, nv = Newview_logic.build ~view:1 ~sender:1 ~sign:(sign_by 1) vcs in
  (min_s, max_s, nv)

let newview_passes ?(vc = View_change.create ()) (nv : M.newview) =
  View_change.acceptable vc ~n:4 ~current:0 nv && Newview_logic.plan nv <> None

let test_newview_round_trip () =
  let min_s, max_s, nv = newview_round_trip_base () in
  checki "plan spans (0, 2]" 2 (List.length nv.M.nv_preprepares);
  checkb "signatures verify" true
    (View_change.verify_newview ~nv_lookup:lookup ~vc_ok:(Validation.verify_viewchange lookup) nv);
  checkb "accepted" true (newview_passes nv);
  Alcotest.(check (option (pair int int))) "plan" (Some (min_s, max_s)) (Newview_logic.plan nv);
  let vcs = nv.M.nv_viewchanges and pds = nv.M.nv_preprepares in
  let with_vcs vcs = { nv with M.nv_viewchanges = vcs } in
  let with_pds pds = { nv with M.nv_preprepares = pds } in
  let entered = View_change.create () in
  View_change.enter entered 1;
  List.iter
    (fun (name, vc, mutated) -> checkb (name ^ " rejected") false (newview_passes ?vc mutated))
    [ ("wrong sender", None, { nv with M.nv_sender = 2 });
      ("duplicate ViewChange", None, with_vcs [ List.hd vcs; List.hd vcs; List.nth vcs 2 ]);
      ( "wrong-view ViewChange",
        None,
        with_vcs (List.map (fun (v : M.viewchange) -> { v with M.vc_new_view = 5 }) vcs) );
      ("fewer than 2f+1 ViewChanges", None, with_vcs (List.tl vcs));
      ( "tampered digest",
        None,
        with_pds
          (List.map (fun (pd : M.preprepare_digest) -> { pd with M.pd_digest = digest }) pds) );
      ("reordered digests", None, with_pds (List.rev pds));
      ("truncated digests", None, with_pds [ List.hd pds ]);
      ("view already entered", Some entered, nv) ]

let test_viewchange_tallies_pruned () =
  let t = View_change.create () in
  let vc ~view sender =
    View_change.make ~new_view:view ~last_stable:0 ~proof:[] ~prepared:[] ~sender
      ~sign:(sign_by sender)
  in
  List.iter (fun view -> checkb "tallied" true (View_change.tally t (vc ~view 1))) [ 1; 2; 3; 4 ];
  checkb "one vote per sender" false (View_change.tally t (vc ~view:4 1));
  List.iter (View_change.enter t) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "only the view above remains" [ 4 ] (View_change.tallied_views t);
  checkb "entered view not tallied again" false (View_change.tally t (vc ~view:3 2))

(* ----- state transfer: serving entries, certifying a snapshot ----- *)

module Catchup = Splitbft_consensus.Catchup
module Sha256 = Splitbft_crypto.Sha256

let test_catchup_entries () =
  let body_a = [ { M.client = 1; timestamp = 1L; payload = "a"; auth = "" } ] in
  let da = M.digest_of_batch body_a in
  let decided =
    [ (1, M.empty_batch_digest); (2, da); (3, String.make 32 'u'); (5, da); (7, da) ]
  in
  let entries ~from =
    Catchup.entries ~from ~upto:5
      ~decided:(fun seq -> List.assoc_opt seq decided)
      ~body:(fun d -> if String.equal d da then Some body_a else None)
  in
  let seqs es = List.map (fun (e : M.state_entry) -> e.M.se_seq) es in
  Alcotest.(check (list int)) "ascending, known bodies, up to last executed" [ 1; 2; 5 ]
    (seqs (entries ~from:0));
  Alcotest.(check (list int)) "from the requested seq" [ 2; 5 ] (seqs (entries ~from:2));
  let first = List.hd (entries ~from:1) in
  checki "empty batch served as []" 0 (List.length first.M.se_batch);
  Alcotest.(check (list int)) "nothing above last executed" [] (seqs (entries ~from:6))

let test_catchup_certified_snapshot () =
  let snap = "application state at 10" in
  let ck sender =
    let c = { M.seq = 10; state_digest = Sha256.digest snap; sender; ck_sig = "" } in
    { c with M.ck_sig = sign_by sender (M.checkpoint_signing_bytes c) }
  in
  let reply =
    { M.st_replier = 0; st_requester = 3; st_stable = 10; st_proof = [ ck 0; ck 1; ck 2 ];
      st_snapshot = snap; st_view = 0; st_entries = [] }
  in
  let certified ?(above = 5) ?(open_ = Option.some) r =
    Catchup.certified_snapshot ~quorum:3 ~verify:(Validation.verify_checkpoint lookup) ~above
      ~open_ r
  in
  Alcotest.(check (option string)) "certified" (Some snap) (certified reply);
  List.iter
    (fun (name, got) -> Alcotest.(check (option string)) (name ^ " refused") None got)
    [ ("not ahead", certified ~above:10 reply);
      ("empty snapshot", certified { reply with M.st_snapshot = "" });
      ("quorum below st_stable", certified { reply with M.st_stable = 11 });
      ("two checkpoints", certified { reply with M.st_proof = [ ck 0; ck 1 ] });
      ( "bad checkpoint signature",
        certified { reply with M.st_proof = [ ck 0; ck 1; { (ck 2) with M.ck_sig = "x" } ] } );
      ("digest mismatch", certified { reply with M.st_snapshot = snap ^ "!" });
      ("snapshot that does not open", certified ~open_:(fun _ -> None) reply) ]

(* ----- client dedup ----- *)

let test_dedup_basic () =
  let d = Client_dedup.create () in
  checkb "fresh not executed" false (Client_dedup.executed d 1L);
  Client_dedup.record d 1L None;
  checkb "recorded" true (Client_dedup.executed d 1L);
  Alcotest.(check int64) "floor advanced" 1L (Client_dedup.floor_ts d)

let test_dedup_out_of_order () =
  let d = Client_dedup.create () in
  Client_dedup.record d 3L None;
  Client_dedup.record d 1L None;
  checkb "gap not executed" false (Client_dedup.executed d 2L);
  Alcotest.(check int64) "floor waits for gap" 1L (Client_dedup.floor_ts d);
  Client_dedup.record d 2L None;
  Alcotest.(check int64) "floor jumps over recorded" 3L (Client_dedup.floor_ts d);
  checki "nothing pending" 0 (Client_dedup.pending_above_floor d)

let test_dedup_rejects_duplicates () =
  let d = Client_dedup.create () in
  Client_dedup.record d 5L None;
  checkb "raises" true
    (try
       Client_dedup.record d 5L None;
       false
     with Invalid_argument _ -> true)

let prop_dedup_executes_once =
  QCheck.Test.make ~name:"dedup: any arrival order executes each ts once" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (1 -- 30))
    (fun raw ->
      let d = Client_dedup.create () in
      let executed = Hashtbl.create 16 in
      List.iter
        (fun ts ->
          let ts = Int64.of_int ts in
          if not (Client_dedup.executed d ts) then begin
            Client_dedup.record d ts None;
            Hashtbl.replace executed ts (1 + Option.value ~default:0 (Hashtbl.find_opt executed ts))
          end)
        raw;
      Hashtbl.fold (fun _ n acc -> acc && n = 1) executed true
      && List.for_all (fun ts -> Client_dedup.executed d (Int64.of_int ts)) raw)

let test_dedup_reply_cache () =
  let d = Client_dedup.create () in
  let reply ts =
    { M.view = 0; timestamp = ts; client = 1; sender = 0; result = "r"; r_auth = "" }
  in
  Client_dedup.record d 1L (Some (reply 1L));
  Client_dedup.record d 3L (Some (reply 3L));
  checkb "cached above floor" true (Client_dedup.cached_reply d 3L <> None);
  checkb "cached at floor" true (Client_dedup.cached_reply d 1L <> None)

(* ----- session crypto ----- *)

let session_keys = Session.generate (Rng.create 12L)

let test_session_op_roundtrip () =
  let ct = Session.encrypt_op session_keys ~client:3 ~timestamp:9L "operation" in
  checkb "ciphertext hides op" false (String.equal ct "operation");
  (match Session.decrypt_op session_keys ~client:3 ~timestamp:9L ct with
  | Ok op -> Alcotest.(check string) "roundtrip" "operation" op
  | Error e -> Alcotest.fail e);
  checkb "wrong binding fails" true
    (Result.is_error (Session.decrypt_op session_keys ~client:4 ~timestamp:9L ct))

let test_session_request_auth () =
  let r = { M.client = 3; timestamp = 9L; payload = "ct"; auth = "" } in
  let r = Session.authenticate_request session_keys r in
  checkb "auth ok" true (Session.request_auth_ok session_keys r);
  checkb "tampered payload" false
    (Session.request_auth_ok session_keys { r with M.payload = "ct2" })

let test_session_result_roundtrip () =
  let ct = Session.encrypt_result session_keys ~client:3 ~timestamp:9L ~replica:2 "out" in
  (match Session.decrypt_result session_keys ~client:3 ~timestamp:9L ~replica:2 ct with
  | Ok v -> Alcotest.(check string) "roundtrip" "out" v
  | Error e -> Alcotest.fail e);
  checkb "replica binding" true
    (Result.is_error (Session.decrypt_result session_keys ~client:3 ~timestamp:9L ~replica:1 ct))

let test_session_provision_forms () =
  (match Session.decode_provision (Session.encode_for_execution session_keys) with
  | Ok k ->
    checkb "exec gets enc key" true (String.length k.Session.enc > 0);
    Alcotest.(check string) "auth key" session_keys.Session.auth k.Session.auth
  | Error e -> Alcotest.fail e);
  match Session.decode_provision (Session.encode_for_preparation session_keys) with
  | Ok k -> checki "prep gets no enc key" 0 (String.length k.Session.enc)
  | Error e -> Alcotest.fail e

(* Pins the session wire format for fixed keys: a change to the nonce or
   AAD construction must show up here, not as a silent mismatch between a
   client and an Execution enclave built from different revisions.  The
   expected bytes were computed independently (RFC 5869 HKDF, RFC 8439
   ChaCha20 with initial counter 1, HMAC-SHA256 tag over aad || nonce ||
   ciphertext) from the nonce layout documented in [Session]. *)
let test_session_known_answer () =
  let k = Session.make ~auth:(String.make 32 'a') ~enc:(String.make 32 'e') in
  Alcotest.(check string) "op ciphertext" "34c073035740a267d1a746de44905cf420ee535261e9021826"
    (Splitbft_util.Hex.encode (Session.encrypt_op k ~client:3 ~timestamp:9L "operation"));
  Alcotest.(check string) "result ciphertext" "931aea7bfd263dd7435643d5fc731c26a90b26"
    (Splitbft_util.Hex.encode
       (Session.encrypt_result k ~client:3 ~timestamp:9L ~replica:2 "out"))

(* A zero plaintext encrypts to the ChaCha20 keystream of (key, nonce), so
   the first 32 ciphertext bytes observe the nonce.  Distinct (direction,
   replica, timestamp) triples must give distinct keystreams under one
   key; an op is the triple (op, 0, timestamp). *)
let session_keystream (is_result, replica, timestamp) =
  let zeros = String.make 32 '\000' in
  let ct =
    if is_result then Session.encrypt_result session_keys ~client:0 ~timestamp ~replica zeros
    else Session.encrypt_op session_keys ~client:0 ~timestamp zeros
  in
  String.sub ct 0 32

let prop_session_nonces_distinct =
  let gen_triple =
    QCheck.Gen.(
      triple bool
        (oneof [ 0 -- 3; 0 -- ((1 lsl 24) - 1) ])
        (oneof [ map Int64.of_int (0 -- 3); ui64 ]))
  in
  QCheck.Test.make ~name:"session nonces distinct per (direction, replica, timestamp)"
    ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list (triple bool int Int64.to_string))
       QCheck.Gen.(list_size (2 -- 8) gen_triple))
    (fun triples ->
      let canonical =
        List.map (fun (r, replica, ts) -> (r, (if r then replica else 0), ts)) triples
      in
      List.length (List.sort_uniq compare canonical)
      = List.length (List.sort_uniq String.compare (List.map session_keystream triples)))

let test_session_replica_range () =
  let ct = Session.encrypt_result session_keys ~client:3 ~timestamp:9L ~replica:2 "out" in
  List.iter
    (fun replica ->
      match Session.decrypt_result session_keys ~client:3 ~timestamp:9L ~replica ct with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "replica %d accepted" replica
      | exception e -> Alcotest.failf "replica %d raised %s" replica (Printexc.to_string e))
    [ -1; 1 lsl 24; max_int ];
  checkb "encrypt rejects out-of-range replica" true
    (match
       Session.encrypt_result session_keys ~client:3 ~timestamp:9L ~replica:(1 lsl 24) "out"
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let top = (1 lsl 24) - 1 in
  let ct = Session.encrypt_result session_keys ~client:3 ~timestamp:9L ~replica:top "out" in
  checkb "largest replica id roundtrips" true
    (Session.decrypt_result session_keys ~client:3 ~timestamp:9L ~replica:top ct = Ok "out")

(* ----- authenticators / addresses ----- *)

let test_authenticator () =
  let auth = Keys.make_authenticator ~protocol:"pbft" ~client:5 ~n:4 "bytes" in
  for replica = 0 to 3 do
    checkb "entry verifies" true
      (Keys.check_authenticator ~protocol:"pbft" ~client:5 ~replica ~msg:"bytes" ~auth)
  done;
  checkb "wrong message" false
    (Keys.check_authenticator ~protocol:"pbft" ~client:5 ~replica:0 ~msg:"other" ~auth);
  checkb "wrong client" false
    (Keys.check_authenticator ~protocol:"pbft" ~client:6 ~replica:0 ~msg:"bytes" ~auth);
  checkb "protocol domain separation" false
    (Keys.check_authenticator ~protocol:"minbft" ~client:5 ~replica:0 ~msg:"bytes" ~auth);
  checkb "replica out of range" false
    (Keys.check_authenticator ~protocol:"pbft" ~client:5 ~replica:7 ~msg:"bytes" ~auth)

let test_addresses () =
  checkb "replica not client" false (Addr.is_client (Addr.replica 3));
  checkb "client flagged" true (Addr.is_client (Addr.client 0));
  checki "client roundtrip" 17 (Addr.client_of_addr (Addr.client 17))

let test_quorum_arithmetic () =
  checki "f of 4" 1 (Ids.f_of_n 4);
  checki "f of 7" 2 (Ids.f_of_n 7);
  checki "quorum of 4" 3 (Ids.quorum ~n:4);
  checki "quorum of 7" 5 (Ids.quorum ~n:7);
  checki "hybrid f of 3" 1 (Ids.f_of_n_hybrid 3);
  checki "primary rotates" 1 (Ids.primary_of_view ~n:4 5);
  checki "crash quorum" 2 (Ids.crash_quorum ~n:3)

let suites =
  [ ( "types",
      [ QCheck_alcotest.to_alcotest prop_message_roundtrip;
        QCheck_alcotest.to_alcotest prop_decode_total;
        QCheck_alcotest.to_alcotest prop_batch_encoding;
        QCheck_alcotest.to_alcotest prop_viewchange_roundtrip;
        QCheck_alcotest.to_alcotest prop_newview_roundtrip;
        QCheck_alcotest.to_alcotest prop_signing_bytes_ignore_signature;
        Alcotest.test_case "peek tag" `Quick test_peek_tag;
        Alcotest.test_case "summarize signature" `Quick test_summarize_shares_signature;
        Alcotest.test_case "empty batch digest" `Quick test_empty_batch_digest;
        Alcotest.test_case "prepare cert" `Quick test_prepare_cert;
        Alcotest.test_case "prepared proof" `Quick test_verify_prepared_proof;
        Alcotest.test_case "commit quorum" `Quick test_commit_quorum;
        Alcotest.test_case "checkpoint quorum" `Quick test_checkpoint_quorum;
        Alcotest.test_case "distinct senders" `Quick test_distinct_senders;
        Alcotest.test_case "newview gaps" `Quick test_newview_compute_gaps;
        Alcotest.test_case "newview highest view" `Quick test_newview_highest_view_wins;
        Alcotest.test_case "newview matches" `Quick test_newview_matches;
        Alcotest.test_case "newview round trip and mutations" `Quick test_newview_round_trip;
        Alcotest.test_case "viewchange tallies pruned" `Quick test_viewchange_tallies_pruned;
        Alcotest.test_case "catchup entries" `Quick test_catchup_entries;
        Alcotest.test_case "catchup certified snapshot" `Quick test_catchup_certified_snapshot;
        Alcotest.test_case "dedup basic" `Quick test_dedup_basic;
        Alcotest.test_case "dedup out of order" `Quick test_dedup_out_of_order;
        Alcotest.test_case "dedup duplicates" `Quick test_dedup_rejects_duplicates;
        QCheck_alcotest.to_alcotest prop_dedup_executes_once;
        Alcotest.test_case "dedup reply cache" `Quick test_dedup_reply_cache;
        Alcotest.test_case "session op" `Quick test_session_op_roundtrip;
        Alcotest.test_case "session request auth" `Quick test_session_request_auth;
        Alcotest.test_case "session result" `Quick test_session_result_roundtrip;
        Alcotest.test_case "session provisions" `Quick test_session_provision_forms;
        Alcotest.test_case "session known answer" `Quick test_session_known_answer;
        QCheck_alcotest.to_alcotest prop_session_nonces_distinct;
        Alcotest.test_case "session replica range" `Quick test_session_replica_range;
        Alcotest.test_case "authenticator" `Quick test_authenticator;
        Alcotest.test_case "addresses" `Quick test_addresses;
        Alcotest.test_case "quorum arithmetic" `Quick test_quorum_arithmetic ] ) ]
