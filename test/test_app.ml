module State_machine = Splitbft_app.State_machine
module Kvs = Splitbft_app.Kvs
module Ledger = Splitbft_app.Ledger
module Counter_app = Splitbft_app.Counter_app

let check = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ----- kvs ----- *)

let test_kvs_put_get_delete () =
  let app = Kvs.create () in
  check "put" Kvs.ok (app.State_machine.apply (Kvs.encode_op (Kvs.Put ("k", "v"))));
  check "get" "v" (app.State_machine.apply (Kvs.encode_op (Kvs.Get "k")));
  check "overwrite" Kvs.ok (app.State_machine.apply (Kvs.encode_op (Kvs.Put ("k", "v2"))));
  check "get new" "v2" (app.State_machine.apply (Kvs.encode_op (Kvs.Get "k")));
  check "delete" Kvs.ok (app.State_machine.apply (Kvs.encode_op (Kvs.Delete "k")));
  check "absent" Kvs.not_found (app.State_machine.apply (Kvs.encode_op (Kvs.Get "k")))

let test_kvs_malformed_op_noops () =
  let app = Kvs.create () in
  check "garbage" State_machine.noop_result (app.State_machine.apply "\xff\xfe");
  check "empty" State_machine.noop_result (app.State_machine.apply "")

let test_kvs_snapshot_restore () =
  let a = Kvs.create () in
  ignore (a.State_machine.apply (Kvs.encode_op (Kvs.Put ("x", "1"))));
  ignore (a.State_machine.apply (Kvs.encode_op (Kvs.Put ("y", "2"))));
  let snap = a.State_machine.snapshot () in
  let b = Kvs.create () in
  (match b.State_machine.restore snap with Ok () -> () | Error e -> Alcotest.fail e);
  check "restored" "1" (b.State_machine.apply (Kvs.encode_op (Kvs.Get "x")));
  check "digest equal" (Splitbft_util.Hex.encode (State_machine.digest a))
    (Splitbft_util.Hex.encode (State_machine.digest b))

let test_kvs_snapshot_canonical () =
  (* Insertion order must not affect the snapshot (checkpoint digests must
     agree across replicas). *)
  let a = Kvs.create () and b = Kvs.create () in
  ignore (a.State_machine.apply (Kvs.encode_op (Kvs.Put ("x", "1"))));
  ignore (a.State_machine.apply (Kvs.encode_op (Kvs.Put ("y", "2"))));
  ignore (b.State_machine.apply (Kvs.encode_op (Kvs.Put ("y", "2"))));
  ignore (b.State_machine.apply (Kvs.encode_op (Kvs.Put ("x", "1"))));
  check "canonical" (Splitbft_util.Hex.encode (State_machine.digest a))
    (Splitbft_util.Hex.encode (State_machine.digest b))

let prop_kvs_op_roundtrip =
  QCheck.Test.make ~name:"kvs op codec roundtrip" ~count:200
    QCheck.(pair string string)
    (fun (k, v) ->
      match Kvs.decode_op (Kvs.encode_op (Kvs.Put (k, v))) with
      | Ok (Kvs.Put (k', v')) -> k = k' && v = v'
      | _ -> false)

let prop_kvs_deterministic =
  QCheck.Test.make ~name:"kvs replicas converge on same op sequence" ~count:50
    QCheck.(list (pair (string_of_size Gen.(1 -- 8)) (string_of_size Gen.(0 -- 8))))
    (fun ops ->
      let run () =
        let app = Kvs.create () in
        List.iter (fun (k, v) -> ignore (app.State_machine.apply (Kvs.encode_op (Kvs.Put (k, v))))) ops;
        State_machine.digest app
      in
      String.equal (run ()) (run ()))

(* ----- ledger ----- *)

let test_ledger_blocks_close () =
  let app = Ledger.create ~block_size:3 () in
  for i = 1 to 7 do
    ignore (app.State_machine.apply (Printf.sprintf "tx%d" i))
  done;
  let effects = app.State_machine.drain_effects () in
  checki "two blocks closed" 2 (List.length effects);
  checki "drain clears" 0 (List.length (app.State_machine.drain_effects ()))

let test_ledger_chain_verifies () =
  let app = Ledger.create ~block_size:2 () in
  for i = 1 to 6 do
    ignore (app.State_machine.apply (Printf.sprintf "tx%d" i))
  done;
  let blocks =
    List.map
      (fun (State_machine.Persist { data; _ }) ->
        match Ledger.decode_block data with Ok b -> b | Error e -> Alcotest.fail e)
      (app.State_machine.drain_effects ())
  in
  checki "three blocks" 3 (List.length blocks);
  (match Ledger.verify_chain blocks with Ok () -> () | Error e -> Alcotest.fail e);
  checkb "broken chain detected" true
    (Result.is_error (Ledger.verify_chain (List.rev blocks)));
  (* Tampering with a transaction breaks the link of the NEXT block. *)
  match blocks with
  | b1 :: rest ->
    let tampered = { b1 with Ledger.transactions = [ "evil" ] } in
    checkb "tampered tx detected" true (Result.is_error (Ledger.verify_chain (tampered :: rest)))
  | [] -> Alcotest.fail "no blocks"

let test_ledger_snapshot_restore () =
  let a = Ledger.create ~block_size:5 () in
  for i = 1 to 7 do
    ignore (a.State_machine.apply (Printf.sprintf "tx%d" i))
  done;
  ignore (a.State_machine.drain_effects ());
  let snap = a.State_machine.snapshot () in
  let b = Ledger.create ~block_size:5 () in
  (match b.State_machine.restore snap with Ok () -> () | Error e -> Alcotest.fail e);
  (* Both continue identically. *)
  ignore (a.State_machine.apply "tx8");
  ignore (b.State_machine.apply "tx8");
  check "digests agree after restore" (Splitbft_util.Hex.encode (State_machine.digest a))
    (Splitbft_util.Hex.encode (State_machine.digest b))

let test_ledger_block_codec () =
  let b = { Ledger.height = 3; prev_hash = String.make 32 'h'; transactions = [ "a"; "b" ] } in
  match Ledger.decode_block (Ledger.encode_block b) with
  | Ok b' -> checkb "roundtrip" true (b = b')
  | Error e -> Alcotest.fail e

let test_ledger_invalid_block_size () =
  checkb "zero rejected" true
    (try
       ignore (Ledger.create ~block_size:0 ());
       false
     with Invalid_argument _ -> true)

(* ----- counter ----- *)

let test_counter () =
  let app = Counter_app.create () in
  check "inc" "1" (app.State_machine.apply Counter_app.increment_op);
  check "inc" "2" (app.State_machine.apply Counter_app.increment_op);
  check "read" "2" (app.State_machine.apply Counter_app.read_op);
  check "garbage noop" State_machine.noop_result (app.State_machine.apply "junk");
  check "unchanged" "2" (app.State_machine.apply Counter_app.read_op)

let test_counter_restore () =
  let a = Counter_app.create () in
  ignore (a.State_machine.apply Counter_app.increment_op);
  let b = Counter_app.create () in
  (match b.State_machine.restore (a.State_machine.snapshot ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check "restored" "1" (b.State_machine.apply Counter_app.read_op);
  checkb "bad snapshot" true (Result.is_error (b.State_machine.restore "nonsense"))

(* Reference snapshot encoding: fold a hash table, sort by key, [W.list]
   the pairs.  The store must reproduce these bytes exactly, at any size
   and after any mix of operations. *)
let reference_kvs_snapshot model =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] in
  let entries = List.sort (fun (ka, _) (kb, _) -> String.compare ka kb) entries in
  Splitbft_codec.Writer.to_string
    (fun w () ->
      Splitbft_codec.Writer.list w
        (fun w (k, v) ->
          Splitbft_codec.Writer.bytes w k;
          Splitbft_codec.Writer.bytes w v)
        entries)
    ()

type kvs_step = Op of Kvs.op | Snapshot | Restore_fresh | Restore_self

let kvs_step_gen =
  (* 256 keys, so runs of a few hundred steps pass the 128-entry mark where
     the list's count varint widens. *)
  let key = QCheck.Gen.map (Printf.sprintf "key%03d") (QCheck.Gen.int_bound 255) in
  let value = QCheck.Gen.(string_size ~gen:printable (int_range 0 12)) in
  QCheck.Gen.frequency
    [ (6, QCheck.Gen.map2 (fun k v -> Op (Kvs.Put (k, v))) key value);
      (2, QCheck.Gen.map (fun k -> Op (Kvs.Get k)) key);
      (2, QCheck.Gen.map (fun k -> Op (Kvs.Delete k)) key);
      (1, QCheck.Gen.return Snapshot);
      (1, QCheck.Gen.return Restore_fresh);
      (1, QCheck.Gen.return Restore_self) ]

let prop_kvs_snapshot_matches_reference =
  QCheck.Test.make ~name:"kvs snapshot = sorted reference encoding" ~count:100
    QCheck.(make Gen.(list_size (int_range 0 600) kvs_step_gen))
    (fun steps ->
      let app = ref (Kvs.create ()) and model = Hashtbl.create 64 in
      let agrees () =
        String.equal (!app.State_machine.snapshot ()) (reference_kvs_snapshot model)
      in
      List.for_all
        (fun step ->
          match step with
          | Op op ->
            let result = !app.State_machine.apply (Kvs.encode_op op) in
            let expected =
              match op with
              | Kvs.Put (k, v) ->
                Hashtbl.replace model k v;
                Kvs.ok
              | Kvs.Get k -> Option.value (Hashtbl.find_opt model k) ~default:Kvs.not_found
              | Kvs.Delete k ->
                Hashtbl.remove model k;
                Kvs.ok
            in
            String.equal result expected
          | Snapshot -> agrees ()
          | Restore_fresh ->
            let fresh = Kvs.create () in
            Result.is_ok (fresh.State_machine.restore (reference_kvs_snapshot model))
            && (app := fresh;
                agrees ())
          | Restore_self ->
            Result.is_ok (!app.State_machine.restore (!app.State_machine.snapshot ())) && agrees ())
        steps
      && agrees ())

let suites =
  [ ( "app",
      [ Alcotest.test_case "kvs ops" `Quick test_kvs_put_get_delete;
        Alcotest.test_case "kvs malformed" `Quick test_kvs_malformed_op_noops;
        Alcotest.test_case "kvs snapshot" `Quick test_kvs_snapshot_restore;
        Alcotest.test_case "kvs canonical" `Quick test_kvs_snapshot_canonical;
        QCheck_alcotest.to_alcotest prop_kvs_op_roundtrip;
        QCheck_alcotest.to_alcotest prop_kvs_deterministic;
        QCheck_alcotest.to_alcotest prop_kvs_snapshot_matches_reference;
        Alcotest.test_case "ledger blocks" `Quick test_ledger_blocks_close;
        Alcotest.test_case "ledger chain" `Quick test_ledger_chain_verifies;
        Alcotest.test_case "ledger snapshot" `Quick test_ledger_snapshot_restore;
        Alcotest.test_case "ledger codec" `Quick test_ledger_block_codec;
        Alcotest.test_case "ledger block size" `Quick test_ledger_invalid_block_size;
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "counter restore" `Quick test_counter_restore ] ) ]
