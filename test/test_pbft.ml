module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Replica = Splitbft_pbft.Replica
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type cluster = {
  engine : Engine.t;
  net : Network.t;
  replicas : Replica.t list;
}

let make ?(n = 4) ?(batch_size = 1) ?(checkpoint_interval = 64) ?(net_cfg = Network.default_config)
    ?(suspect_timeout_us = 200_000.0) () =
  let engine = Engine.create ~seed:5L () in
  let net = Network.create engine net_cfg in
  let replicas =
    List.init n (fun i ->
        Replica.create engine net
          { (Replica.default_config ~n ~id:i) with
            Replica.batch_size;
            checkpoint_interval;
            suspect_timeout_us;
            viewchange_timeout_us = 400_000.0 }
          ~app:(Kvs.create ()))
  in
  { engine; net; replicas }

let client ?(window = 1) ?(id = 0) c =
  Client.create c.engine c.net
    { (Client.default_config Client.Pbft ~n:(List.length c.replicas) ~id) with
      Client.window;
      retry_timeout_us = 300_000.0 }

(* Issues [ops] PUTs through one client, returns (completed, wrong). *)
let drive ?(window = 1) ?(until = 5_000_000.0) c ~ops =
  let cl = client ~window c in
  let completed = ref 0 and wrong = ref 0 in
  Client.start cl ~on_ready:(fun () ->
      for i = 1 to ops do
        Client.submit cl
          ~op:(Kvs.encode_op (Kvs.Put (Printf.sprintf "k%d" i, "v")))
          ~on_result:(fun ~latency_us:_ ~result ->
            incr completed;
            if not (String.equal result Kvs.ok) then incr wrong)
      done);
  Engine.run ~until c.engine;
  (!completed, !wrong)

let agreement replicas =
  let logs = List.map Replica.executed_log replicas in
  let tables =
    List.map
      (fun log ->
        let t = Hashtbl.create 64 in
        List.iter (fun (seq, d) -> Hashtbl.replace t seq d) log;
        t)
      logs
  in
  List.for_all
    (fun ta ->
      List.for_all
        (fun tb ->
          Hashtbl.fold
            (fun seq da acc ->
              acc
              &&
              match Hashtbl.find_opt tb seq with
              | Some db -> String.equal da db
              | None -> true)
            ta true)
        tables)
    tables

let honest_subset c ids = List.filteri (fun i _ -> List.mem i ids) c.replicas

(* ----- tests ----- *)

let test_normal_operation () =
  let c = make () in
  let completed, wrong = drive c ~ops:30 in
  checki "all complete" 30 completed;
  checki "no wrong results" 0 wrong;
  checkb "agreement" true (agreement c.replicas);
  List.iter
    (fun r -> checki "all executed" 30 (Replica.executed_count r))
    c.replicas

let test_batching_reduces_consensus_instances () =
  let c = make ~batch_size:10 () in
  let completed, _ = drive ~window:30 c ~ops:30 in
  checki "all complete" 30 completed;
  let r = List.hd c.replicas in
  checkb "few sequence numbers used" true (Replica.last_executed r <= 6);
  checkb "agreement" true (agreement c.replicas)

let test_checkpoint_garbage_collection () =
  let c = make ~checkpoint_interval:8 () in
  let completed, _ = drive c ~ops:40 in
  checki "all complete" 40 completed;
  List.iter
    (fun r ->
      checkb "low watermark advanced" true (Replica.low_watermark r >= 8);
      checkb "watermark at a checkpoint multiple" true (Replica.low_watermark r mod 8 = 0))
    c.replicas

let test_backup_crash_tolerated () =
  let c = make () in
  ignore
    (Engine.schedule c.engine ~delay:50_000.0 ~label:"crash" (fun () ->
         Replica.crash (List.nth c.replicas 3)));
  let completed, wrong = drive c ~ops:40 in
  checki "all complete" 40 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement among survivors" true (agreement (honest_subset c [ 0; 1; 2 ]))

let test_primary_crash_view_change () =
  let c = make () in
  ignore
    (Engine.schedule c.engine ~delay:5_000.0 ~label:"crash" (fun () ->
         Replica.crash (List.nth c.replicas 0)));
  let completed, _ = drive ~until:8_000_000.0 c ~ops:40 in
  checki "all complete despite primary crash" 40 completed;
  List.iter
    (fun r -> checkb "moved to a new view" true (Replica.view r >= 1))
    (honest_subset c [ 1; 2; 3 ]);
  checkb "agreement" true (agreement (honest_subset c [ 1; 2; 3 ]))

let test_byzantine_execution_masked () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 1) Replica.Corrupt_execution;
  let completed, wrong = drive c ~ops:30 in
  checki "all complete" 30 completed;
  checki "corrupt replies never accepted" 0 wrong

let test_mute_commits_tolerated () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 2) Replica.Mute_commits;
  let completed, wrong = drive c ~ops:30 in
  checki "progress with one mute replica" 30 completed;
  checki "no wrong" 0 wrong

let test_equivocation_beyond_f_diverges () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 0)
    (Replica.Equivocate { accomplices = [ 1 ] });
  Replica.set_byzantine (List.nth c.replicas 1) Replica.Collude;
  let _completed, _ = drive ~until:3_000_000.0 c ~ops:20 in
  checkb "honest replicas diverge with f+1 byzantine" false
    (agreement (honest_subset c [ 2; 3 ]))

let test_lossy_network_retransmission () =
  let net_cfg = { Network.default_config with Network.drop_probability = 0.05 } in
  let c = make ~net_cfg () in
  let completed, wrong = drive ~until:20_000_000.0 c ~ops:20 in
  checki "retransmission recovers all" 20 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c.replicas)

(* Replica [r]'s sealed checkpoint images on its disk, unsealed with the
   key the replica derives from its platform. *)
let images r =
  let platform = Splitbft_tee.Platform.create (Engine.create ~seed:0L ()) ~id:(Replica.id r) in
  let key =
    Splitbft_crypto.Aead.prepare
      (Splitbft_tee.Platform.sealing_key platform
         (Splitbft_tee.Measurement.of_source ~name:"pbft-replica" ~version:"1"
            ~code:"baseline pbft replica checkpoint state"))
  in
  List.filter_map
    (fun (tag, blob) ->
      if String.equal tag "ckpt:pbft" then
        match Splitbft_tee.Sealing.unseal ~key blob with
        | Ok image -> Some image
        | Error e -> Alcotest.fail e
      else None)
    (Replica.persisted r)

(* The image holds the view, the last executed seq and the snapshot:
   nothing that grows with the executed history follows the snapshot.
   The disk keeps only the newest image, so each one is taken as it is
   written: every send samples every replica's disk. *)
let test_image_is_flat () =
  let c = make ~checkpoint_interval:8 () in
  let seen = Array.make (List.length c.replicas) [] in
  Network.add_tap c.net (fun ~src:_ ~dst:_ _ ->
      List.iteri
        (fun i r ->
          List.iter
            (fun image -> if not (List.mem image seen.(i)) then seen.(i) <- image :: seen.(i))
            (images r))
        c.replicas);
  let completed, _ = drive c ~ops:200 in
  checki "served" 200 completed;
  List.iteri
    (fun i r ->
      checkb "checkpointed through the run" true (List.length seen.(i) >= 20);
      List.iter
        (fun image ->
          let r = Splitbft_codec.Reader.of_string image in
          ignore (Splitbft_codec.Reader.u64 r);
          ignore (Splitbft_codec.Reader.varint r);
          ignore (Splitbft_codec.Reader.varint r);
          ignore (Splitbft_codec.Reader.bytes r);
          checki "bytes after the snapshot" 0 (Splitbft_codec.Reader.remaining r))
        seen.(i);
      let tags = List.map fst (Replica.persisted r) in
      checki "one image per tag" (List.length (List.sort_uniq String.compare tags))
        (List.length tags);
      checki "one checkpoint image" 1 (List.length (images r)))
    c.replicas

(* Executed digests and request bodies are cut one checkpoint interval
   below the stable checkpoint: four times the ops leave both tables
   under the same bound. *)
let test_retained_bounded () =
  List.iter
    (fun ops ->
      let c = make ~checkpoint_interval:8 () in
      let completed, _ = drive c ~ops in
      checki "served" ops completed;
      List.iter
        (fun r ->
          let digests, bodies = Replica.retained r in
          checkb "digests bounded" true (digests <= 32);
          checkb "bodies bounded" true (bodies <= 32))
        c.replicas)
    [ 200; 800 ]

(* Pins the sealed checkpoint bytes: replica 0's first image of a fixed
   run. *)
let test_image_golden () =
  let c = make ~checkpoint_interval:8 () in
  let _ = drive c ~ops:10 in
  match images (List.hd c.replicas) with
  | [] -> Alcotest.fail "no sealed image"
  | image :: _ ->
    Alcotest.(check string) "image sha256" "e618b8b4717c13980fef76787a5377d1266716642afa13db49a7f4f8339afc9f"
      (Splitbft_util.Hex.encode (Splitbft_crypto.Sha256.digest image))

(* ----- one replica driven message by message -----

   Replica [id] alone on the network: [feed ~from msg] delivers one
   message signed by peer [from] and lets it settle (well inside the
   suspect timeout); [sent ()] is everything the replica sent, newest
   first. *)

module Message = Splitbft_types.Message
module Addr = Splitbft_types.Addr
module View_change = Splitbft_consensus.View_change

let pbft_sign replica =
  let kp =
    Splitbft_crypto.Signature.derive
      ~seed:(Splitbft_types.Keys.replica_signing_seed ~protocol:"pbft" replica)
  in
  Splitbft_crypto.Signature.sign kp.Splitbft_crypto.Signature.secret

let lone ~id =
  let engine = Engine.create ~seed:5L () in
  let net = Network.create engine Network.default_config in
  let r = Replica.create engine net (Replica.default_config ~n:4 ~id) ~app:(Kvs.create ()) in
  let sent = ref [] in
  Network.add_tap net (fun ~src ~dst:_ payload ->
      if src = Addr.replica id then
        match Message.decode payload with Ok m -> sent := m :: !sent | Error _ -> ());
  let feed ~from msg =
    Network.send net ~src:(Addr.replica from) ~dst:(Addr.replica id) (Message.encode msg);
    Engine.run ~until:(Engine.now engine +. 20_000.0) engine
  in
  (r, feed, fun () -> !sent)

let vc_for ~view sender =
  View_change.make ~new_view:view ~last_stable:0 ~proof:[] ~prepared:[] ~sender
    ~sign:(pbft_sign sender)

(* A NewView from [view]'s primary over ViewChanges from the other three
   replicas (or [vcs]). *)
let newview ?vcs view =
  let primary = view mod 4 in
  let vcs =
    match vcs with
    | Some vcs -> vcs
    | None -> List.map (vc_for ~view) (List.filter (( <> ) primary) [ 0; 1; 2; 3 ])
  in
  let _, _, nv =
    Splitbft_consensus.Newview.build ~view ~sender:primary ~sign:(pbft_sign primary) vcs
  in
  Message.Newview nv

let test_newview_checks_viewchanges () =
  let r, feed, _ = lone ~id:2 in
  feed ~from:1 (newview ~vcs:[ vc_for ~view:1 0; vc_for ~view:1 0; vc_for ~view:1 0 ] 1);
  checki "three copies of one ViewChange rejected" 0 (Replica.view r);
  feed ~from:1 (newview ~vcs:(List.map (vc_for ~view:5) [ 0; 2; 3 ]) 1);
  checki "ViewChanges for another view rejected" 0 (Replica.view r);
  feed ~from:1 (newview 1);
  checki "honest NewView accepted" 1 (Replica.view r)

(* A backup prepared d_a at (view 1, seq 1); the same NewView replayed must
   not reopen the slot for a second PrePrepare with d_b. *)
let test_replayed_newview_keeps_slot () =
  let r, feed, sent = lone ~id:2 in
  let preprepare batch =
    let pp = { Message.view = 1; seq = 1; batch; sender = 1; pp_sig = "" } in
    Message.Preprepare { pp with pp_sig = pbft_sign 1 (Message.preprepare_signing_bytes pp) }
  in
  let prepare digest sender =
    let p = { Message.view = 1; seq = 1; digest; sender; p_sig = "" } in
    Message.Prepare { p with p_sig = pbft_sign sender (Message.prepare_signing_bytes p) }
  in
  let req =
    let op = Kvs.encode_op (Kvs.Put ("k", "v")) in
    let r = { Message.client = 0; timestamp = 1L; payload = op; auth = "" } in
    { r with
      auth =
        Splitbft_types.Keys.make_authenticator ~protocol:"pbft" ~client:0 ~n:4
          (Message.request_auth_bytes r) }
  in
  let d_a = Message.digest_of_batch [ req ] in
  feed ~from:1 (newview 1);
  feed ~from:1 (preprepare [ req ]);
  feed ~from:0 (prepare d_a 0);
  feed ~from:3 (prepare d_a 3);
  feed ~from:1 (newview 1);
  feed ~from:1 (preprepare []);
  checki "still view 1" 1 (Replica.view r);
  let voted =
    List.filter_map
      (function
        | Message.Prepare p when p.view = 1 && p.seq = 1 -> Some p.digest
        | Message.Commit c when c.view = 1 && c.seq = 1 -> Some c.digest
        | _ -> None)
      (sent ())
  in
  checkb "prepared and committed d_a" true (List.mem d_a voted);
  Alcotest.(check (list string)) "no vote for a second digest" [ d_a ]
    (List.sort_uniq String.compare voted)

(* Replica 0 tallies one ViewChange for each of views 1-4, then enters
   views 1, 2 and 3 through their NewViews. *)
let test_viewchange_tallies_pruned () =
  let r, feed, _ = lone ~id:0 in
  List.iter (fun view -> feed ~from:1 (Message.Viewchange (vc_for ~view 1))) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "tallied" [ 1; 2; 3; 4 ] (Replica.viewchange_tallies r);
  List.iter (fun view -> feed ~from:(view mod 4) (newview view)) [ 1; 2; 3 ];
  checki "view 3" 3 (Replica.view r);
  Alcotest.(check (list int)) "no tally at or below view 3" [ 4 ] (Replica.viewchange_tallies r)

let suites =
  [ ( "pbft",
      [ Alcotest.test_case "normal operation" `Quick test_normal_operation;
        Alcotest.test_case "batching" `Quick test_batching_reduces_consensus_instances;
        Alcotest.test_case "checkpoint GC" `Quick test_checkpoint_garbage_collection;
        Alcotest.test_case "backup crash" `Quick test_backup_crash_tolerated;
        Alcotest.test_case "primary crash / view change" `Quick test_primary_crash_view_change;
        Alcotest.test_case "byz execution masked" `Quick test_byzantine_execution_masked;
        Alcotest.test_case "mute commits tolerated" `Quick test_mute_commits_tolerated;
        Alcotest.test_case "f+1 equivocation diverges" `Quick test_equivocation_beyond_f_diverges;
        Alcotest.test_case "lossy network" `Slow test_lossy_network_retransmission;
        Alcotest.test_case "checkpoint: image is flat" `Quick test_image_is_flat;
        Alcotest.test_case "checkpoint: image golden" `Quick test_image_golden;
        Alcotest.test_case "checkpoint: retained tables bounded" `Quick test_retained_bounded;
        Alcotest.test_case "newview: viewchanges checked" `Quick test_newview_checks_viewchanges;
        Alcotest.test_case "newview: replay keeps the slot" `Quick
          test_replayed_newview_keeps_slot;
        Alcotest.test_case "newview: viewchange tallies pruned" `Quick
          test_viewchange_tallies_pruned ] ) ]
