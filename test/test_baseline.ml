(* The host contract both baselines run on (Splitbft_baseline.Host): one
   test per contract, each run over PBFT and MinBFT. *)

module Proto = Splitbft_proto
module Cluster = Splitbft_harness.Cluster
module Safety = Splitbft_harness.Safety
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs
module Network = Splitbft_sim.Network
module Message = Splitbft_types.Message
module Addr = Splitbft_types.Addr

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let baselines = [ Proto.Proto_pbft.protocol; Proto.Proto_minbft.protocol ]

let cluster ?(batch_size = 1) protocol =
  Cluster.create
    { (Cluster.default_params protocol) with
      Cluster.batch_size;
      suspect_timeout_us = 200_000.0;
      seed = 5L }

(* Issues [ops] PUTs through one client, returns (completed, wrong). *)
let drive ?(window = 1) c ~ops =
  let cl = List.hd (Cluster.make_clients c ~count:1 ~window ()) in
  let completed = ref 0 and wrong = ref 0 in
  Client.start cl ~on_ready:(fun () ->
      for i = 1 to ops do
        Client.submit cl
          ~op:(Kvs.encode_op (Kvs.Put (Printf.sprintf "k%d" i, "v")))
          ~on_result:(fun ~latency_us:_ ~result ->
            incr completed;
            if not (String.equal result Kvs.ok) then incr wrong)
      done);
  Cluster.run c ~until_us:5_000_000.0;
  (!completed, !wrong)

let agreement c =
  Safety.check_agreement c ~honest:(List.init (Cluster.params c).n Fun.id) = Safety.Agreement

let over_baselines test () =
  List.iter
    (fun protocol ->
      Printf.printf "-- %s\n" (Proto.Protocol_intf.name protocol);
      test protocol)
    baselines

(* Replaying the latest request verbatim from the client's address: the
   replicas answer from the reply cache without executing it again. *)
let duplicates_execute_once protocol =
  let c = cluster protocol in
  let completed, _ = drive c ~ops:10 in
  checki "completed" 10 completed;
  let n = (Cluster.params c).n in
  let before = Cluster.executed_count_of (Cluster.node c 0) in
  let replayed =
    let r =
      { Message.client = 0; timestamp = 10L; payload = Kvs.encode_op (Kvs.Put ("k10", "v"));
        auth = "" }
    in
    { r with
      Message.auth =
        Splitbft_types.Keys.make_authenticator ~protocol:(Cluster.protocol_name c) ~client:0 ~n
          (Message.request_auth_bytes r) }
  in
  let net = Cluster.network c in
  let replies = ref 0 in
  Network.register net (Addr.client 0) (fun ~src:_ payload ->
      match Message.decode payload with
      | Ok (Message.Reply rp) when Int64.equal rp.Message.timestamp 10L -> incr replies
      | _ -> ());
  for j = 0 to n - 1 do
    Network.send net ~src:(Addr.client 0) ~dst:(Addr.replica j)
      (Message.encode (Message.Request replayed))
  done;
  Cluster.run c ~until_us:8_000_000.0;
  checkb "cached replies resent" true (!replies >= 2);
  checki "nothing re-executed" before (Cluster.executed_count_of (Cluster.node c 0))

(* A window of 25 outstanding requests over batches of 20: the FIFO batch
   queue and its timer drain every request exactly once. *)
let pipelined_windows protocol =
  let c = cluster ~batch_size:20 protocol in
  let completed, wrong = drive ~window:25 c ~ops:100 in
  checki "pipelined completes" 100 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c)

let suites =
  [ ( "baseline",
      [ Alcotest.test_case "duplicates execute once" `Quick
          (over_baselines duplicates_execute_once);
        Alcotest.test_case "pipelined windows" `Quick (over_baselines pipelined_windows) ] ) ]
