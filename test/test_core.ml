module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Replica = Splitbft_core.Replica
module Config = Splitbft_core.Config
module Broker = Splitbft_core.Broker
module Preparation = Splitbft_core.Preparation
module Confirmation = Splitbft_core.Confirmation
module Execution = Splitbft_core.Execution
module Wire = Splitbft_core.Wire
module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Addr = Splitbft_types.Addr
module Enclave = Splitbft_tee.Enclave
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs
module State_machine = Splitbft_app.State_machine
module Platform = Splitbft_tee.Platform
module Sealing = Splitbft_tee.Sealing
module Aead = Splitbft_crypto.Aead
module Sha256 = Splitbft_crypto.Sha256
module Registry = Splitbft_obs.Registry
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ----- wire codec ----- *)

let test_wire_roundtrips () =
  let req = { Message.client = 1; timestamp = 2L; payload = "p"; auth = "a" } in
  let inputs =
    [ Wire.In_net (Message.Request req);
      Wire.In_batch [ req; req ];
      Wire.In_suspect 3;
      Wire.In_recover [];
      Wire.In_recover [ ("ckpt:execution", "image"); ("ledger:entry", "") ] ]
  in
  List.iter
    (fun i ->
      match Wire.decode_input (Wire.encode_input i) with
      | Ok i' -> checkb "input roundtrip" true (i = i')
      | Error e -> Alcotest.fail e)
    inputs;
  let outputs =
    [ Wire.Out_send (42, Message.Request req);
      Wire.Out_broadcast (Message.Request req);
      Wire.Out_persist { tag = "t"; data = "d" };
      Wire.Out_entered_view 7 ]
  in
  List.iter
    (fun o ->
      match Wire.decode_output (Wire.encode_output o) with
      | Ok o' -> checkb "output roundtrip" true (o = o')
      | Error e -> Alcotest.fail e)
    outputs;
  checkb "junk input rejected" true (Result.is_error (Wire.decode_input "\x09junk"));
  checkb "junk output rejected" true (Result.is_error (Wire.decode_output "\x09junk"))

(* ----- cluster helpers ----- *)

type cluster = {
  engine : Engine.t;
  net : Network.t;
  replicas : Replica.t list;
}

let make ?(n = 4) ?(threading = Config.Per_enclave) ?(checkpoint_interval = 64) ?(batch_size = 1)
    ?(byz = fun _ -> (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_honest))
    ?(app = fun _ () -> Kvs.create ()) () =
  let engine = Engine.create ~seed:8L () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init n (fun i ->
        let prep_byz, conf_byz, exec_byz = byz i in
        Replica.create ~prep_byz ~conf_byz ~exec_byz engine net
          { (Config.default ~n ~id:i) with
            Config.threading;
            checkpoint_interval;
            batch_size;
            suspect_timeout_us = 200_000.0;
            viewchange_timeout_us = 400_000.0 }
          ~app:(app i))
  in
  { engine; net; replicas }

let put_fresh i = Kvs.encode_op (Kvs.Put (Printf.sprintf "k%d" i, "v"))

(* Submits [ops] operations ([op i] is the i-th, 1-based); [after k] runs
   once the k-th result arrives. *)
let drive ?(until = 6_000_000.0) ?(ready_quorum = 4) ?(window = 1) ?(op = put_fresh)
    ?(after = ignore) c ~ops =
  let cl =
    Client.create c.engine c.net
      { (Client.default_config
           (Client.Splitbft { ready_quorum })
           ~n:(List.length c.replicas) ~id:0)
        with
        Client.window;
        retry_timeout_us = 300_000.0 }
  in
  let completed = ref 0 and wrong = ref 0 in
  Client.start cl ~on_ready:(fun () ->
      for i = 1 to ops do
        Client.submit cl ~op:(op i) ~on_result:(fun ~latency_us:_ ~result ->
            incr completed;
            after !completed;
            if not (String.equal result Kvs.ok) then incr wrong)
      done);
  Engine.run ~until c.engine;
  (cl, !completed, !wrong)

let agreement replicas =
  let tables =
    List.map
      (fun r ->
        let t = Hashtbl.create 64 in
        List.iter (fun (seq, d) -> Hashtbl.replace t seq d) (Replica.executed_log r);
        t)
      replicas
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

let subset c ids = List.filteri (fun i _ -> List.mem i ids) c.replicas

(* ----- tests ----- *)

let test_handshake_establishes_sessions () =
  let c = make () in
  let cl, completed, _ = drive c ~ops:1 in
  checkb "client ready" true (Client.is_ready cl);
  checki "op served" 1 completed;
  List.iter
    (fun r ->
      checki "execution holds the session" 1 ((Replica.exec_probe r).Execution.sessions ());
      checki "preparation holds the auth key" 1 ((Replica.prep_probe r).Preparation.sessions ()))
    c.replicas

let test_normal_operation () =
  let c = make () in
  let _, completed, wrong = drive c ~ops:30 in
  checki "all complete" 30 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c.replicas);
  List.iter (fun r -> checki "executed" 30 (Replica.executed_count r)) c.replicas

let test_confidentiality_on_the_wire () =
  let c = make () in
  let secret = "S3CRET-operation-payload" in
  let leaks = ref 0 in
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec loop i =
      i + n <= m && (String.equal (String.sub hay i n) needle || loop (i + 1))
    in
    loop 0
  in
  Network.set_tap c.net
    (Some (fun ~src:_ ~dst:_ payload -> if contains payload secret then incr leaks));
  let cl =
    Client.create c.engine c.net
      (Client.default_config (Client.Splitbft { ready_quorum = 4 }) ~n:4 ~id:0)
  in
  let got = ref "" in
  Client.start cl ~on_ready:(fun () ->
      Client.submit cl
        ~op:(Kvs.encode_op (Kvs.Put ("k", secret)))
        ~on_result:(fun ~latency_us:_ ~result -> got := result));
  Engine.run ~until:3_000_000.0 c.engine;
  Alcotest.(check string) "op executed" Kvs.ok !got;
  checki "plaintext never on the wire" 0 !leaks

let test_checkpoint_gc () =
  let c = make ~checkpoint_interval:8 () in
  let _, completed, _ = drive c ~ops:40 in
  checki "complete" 40 completed;
  List.iter
    (fun r ->
      checkb "exec stable advanced" true ((Replica.exec_probe r).Execution.last_stable () >= 8);
      checkb "prep stable advanced" true
        ((Replica.prep_probe r).Preparation.last_stable () >= 8);
      checkb "conf stable advanced" true
        ((Replica.conf_probe r).Confirmation.last_stable () >= 8))
    c.replicas

let test_host_crash_view_change () =
  let c = make () in
  ignore
    (Engine.schedule c.engine ~delay:10_000.0 ~label:"crash" (fun () ->
         Replica.crash_host (List.nth c.replicas 0)));
  let _, completed, wrong = drive ~until:10_000_000.0 ~ready_quorum:4 c ~ops:40 in
  checki "all complete despite primary host crash" 40 completed;
  checki "no wrong" 0 wrong;
  List.iter
    (fun r -> checkb "new view" true (Replica.view r >= 1))
    (subset c [ 1; 2; 3 ]);
  checkb "agreement" true (agreement (subset c [ 1; 2; 3 ]))

(* An open-loop client that submits [ops] Puts, one every [every_us] from
   the moment it is ready, with no retry jitter so its retry times are
   exact.  [on_ready] runs first.  Returns, per request, its submission
   time and latency (both nan until answered). *)
let open_loop c ~retry_timeout_us ~every_us ~ops ~on_ready =
  let cl =
    Client.create c.engine c.net
      { (Client.default_config (Client.Splitbft { ready_quorum = 4 }) ~n:4 ~id:0) with
        Client.window = ops;
        retry_timeout_us;
        retry_jitter = 0.0 }
  in
  let results = Array.make ops (nan, nan) in
  Client.start cl ~on_ready:(fun () ->
      on_ready ();
      for i = 0 to ops - 1 do
        ignore
          (Engine.schedule c.engine ~delay:(float_of_int i *. every_us) ~label:"submit"
             (fun () ->
               let submitted = Engine.now c.engine in
               Client.submit cl
                 ~op:(Kvs.encode_op (Kvs.Put (Printf.sprintf "k%d" i, "v")))
                 ~on_result:(fun ~latency_us ~result:_ -> results.(i) <- (submitted, latency_us))))
      done);
  results

let crash_primary_after c delay =
  ignore
    (Engine.schedule c.engine ~delay ~label:"crash" (fun () ->
         Replica.crash_host (List.nth c.replicas 0)))

(* The new primary proposes the requests its broker already holds when it
   enters the view, so a request submitted while the old primary is down
   waits for the view change, not for a retransmission that happens to
   land after it.  The first retry (150 ms) fires before the backups
   suspect (200 ms after the last reply), so without the backlog the
   outage's first requests wait at least for the second retry, at
   150 + 300 ms. *)
let test_view_change_serves_backlog () =
  let c = make () in
  let crash_after = 100_000.0 and retry_timeout_us = 150_000.0 in
  let crashed_at = ref nan in
  let results =
    open_loop c ~retry_timeout_us ~every_us:5_000.0 ~ops:80 ~on_ready:(fun () ->
        crashed_at := Engine.now c.engine +. crash_after;
        crash_primary_after c crash_after)
  in
  Engine.run ~until:3_000_000.0 c.engine;
  let second_retry = retry_timeout_us *. 3.0 in
  let outage = ref 0 in
  Array.iter
    (fun (submitted, latency) ->
      checkb "answered" false (Float.is_nan latency);
      let into = submitted -. !crashed_at in
      if into >= 0.0 && into < 200_000.0 then begin
        incr outage;
        if latency >= second_retry then
          Alcotest.failf "request submitted %.0f us into the outage took %.0f us" into latency
      end)
    results;
  checki "requests submitted during the outage" 40 !outage;
  List.iter (fun r -> checkb "new view" true (Replica.view r >= 1)) (subset c [ 1; 2; 3 ]);
  checkb "agreement" true (agreement (subset c [ 1; 2; 3 ]))

(* A request that reaches the next primary after its Confirmation started
   the view change but before its Preparation entered the new view is
   ordered as soon as the NewView is out.  Batched into the old view's
   Preparation instead, it would be dropped there, and its inflight entry
   would suppress the client's retries for [inflight_ttl_us]. *)
let test_request_during_view_change_ordered () =
  let c = make () in
  (* Holding the ViewChanges to replica 1 back 50 ms opens the window:
     replica 1 starts the view change when its own suspect timer fires,
     200 ms after request 0, and sends the NewView about 50 ms later.
     Request 1 arrives 220 ms after request 0. *)
  Network.set_filter c.net
    (Some
       (fun ~src:_ ~dst payload ->
         match Message.decode_traced payload with
         | Ok (Message.Viewchange _, _) when dst = Addr.replica 1 ->
           Network.Delay 50_000.0
         | _ -> Network.Deliver));
  let results =
    open_loop c ~retry_timeout_us:300_000.0 ~every_us:220_000.0 ~ops:2 ~on_ready:(fun () ->
        crash_primary_after c 0.0)
  in
  Engine.run ~until:3_000_000.0 c.engine;
  let _, latency = results.(1) in
  checkb "answered" false (Float.is_nan latency);
  let ttl = (Config.default ~n:4 ~id:1).Config.inflight_ttl_us in
  if latency >= ttl then Alcotest.failf "request took %.0f us (inflight TTL %.0f us)" latency ttl;
  List.iter (fun r -> checki "view" 1 (Replica.view r)) (subset c [ 1; 2; 3 ])

(* A ViewChange that reaches the new primary after its NewView is out and
   the new view has executed slots must not make it enter the view again:
   re-entry would reset its log and give the seqnos it already proposed to
   the requests that arrive next, which every replica then drops as
   decided, so the view stalls.  All four replicas stay up: replica 0
   stops proposing 100 ms in, replica 3's ViewChange to replica 1 is held
   back 150 ms, and requests keep arriving for 600 ms. *)
let test_late_viewchange_keeps_view () =
  let c = make () in
  let cut = ref infinity in
  Network.set_filter c.net
    (Some
       (fun ~src ~dst payload ->
         match Message.decode_traced payload with
         | Ok ((Message.Preprepare _ | Message.Preprepare_digest _), _)
           when src = Addr.replica 0 && Engine.now c.engine >= !cut ->
           Network.Drop
         | Ok (Message.Viewchange _, _) when src = Addr.replica 3 && dst = Addr.replica 1 ->
           Network.Delay 150_000.0
         | _ -> Network.Deliver));
  let retry_timeout_us = 1_000_000.0 and ops = 120 in
  let results =
    open_loop c ~retry_timeout_us ~every_us:5_000.0 ~ops ~on_ready:(fun () ->
        cut := Engine.now c.engine +. 100_000.0)
  in
  Engine.run ~until:1_500_000.0 c.engine;
  Array.iter
    (fun (_, latency) ->
      checkb "answered" false (Float.is_nan latency);
      if latency >= retry_timeout_us then Alcotest.failf "a request waited %.0f us" latency)
    results;
  List.iter
    (fun r ->
      checki "view" 1 (Replica.view r);
      checki "each request once" ops (Replica.executed_count r))
    c.replicas;
  checkb "agreement" true (agreement c.replicas)

(* A forged copy of a request that reaches a backup first does not pin the
   body it keeps: the client's own copy replaces it, so the backup, once it
   leads view 1, proposes the real request there.  Proposing the junk body
   instead would leave view 1 idle until the backups moved on to view 2. *)
let test_backlog_keeps_latest_copy () =
  let c = make () in
  let forged = ref false in
  Network.set_filter c.net
    (Some
       (fun ~src ~dst payload ->
         match Message.decode_traced payload with
         | Ok (Message.Request r, _) when dst = Addr.replica 1 && not !forged ->
           forged := true;
           Network.send c.net ~src ~dst
             (Message.encode (Message.Request { r with payload = "junk" }));
           Network.Delay 5_000.0
         | _ -> Network.Deliver));
  let retry_timeout_us = 1_000_000.0 in
  let results =
    open_loop c ~retry_timeout_us ~every_us:0.0 ~ops:1 ~on_ready:(fun () ->
        crash_primary_after c 0.0)
  in
  Engine.run ~until:900_000.0 c.engine;
  checkb "forged copy sent" true !forged;
  let _, latency = results.(0) in
  checkb "answered before the retry" false (Float.is_nan latency);
  List.iter (fun r -> checki "view" 1 (Replica.view r)) (subset c [ 1; 2; 3 ])

(* A reply removes the broker's record of its request: once every request
   is answered, no broker holds one, although the view-0 primary crashed
   and the new primary proposed its backlog in batches.  A later copy of
   an answered request is then served from the reply cache, without an
   ecall. *)
let test_answered_leaves_nothing () =
  let c = make ~batch_size:4 () in
  let results =
    open_loop c ~retry_timeout_us:150_000.0 ~every_us:5_000.0 ~ops:60 ~on_ready:(fun () ->
        crash_primary_after c 100_000.0)
  in
  Engine.run ~until:3_000_000.0 c.engine;
  Array.iter (fun (_, latency) -> checkb "answered" false (Float.is_nan latency)) results;
  List.iter (fun r -> checkb "new view" true (Replica.view r >= 1)) (subset c [ 1; 2; 3 ]);
  List.iteri
    (fun i r ->
      let b = Replica.broker r in
      checki (Printf.sprintf "replica %d: no unanswered request" i) 0 (Broker.unanswered b);
      checkb (Printf.sprintf "replica %d: nothing inflight" i) true (Broker.inflight_keys b = []))
    c.replicas;
  let obs = Engine.obs c.engine in
  let read ?(labels = []) name =
    Option.value ~default:0.0 (Registry.read obs ~labels:(("replica", "1") :: labels) name)
  in
  let ecalls () =
    List.fold_left
      (fun acc comp ->
        acc +. read ~labels:[ ("compartment", Ids.compartment_name comp) ] "broker.ecalls")
      0.0 Ids.all_compartments
  in
  let replayed = read "broker.retx_replayed" and ecalls_before = ecalls () in
  let client, timestamp =
    match Broker.reply_cache_keys (Replica.broker (List.nth c.replicas 1)) with
    | key :: _ -> key
    | [] -> Alcotest.fail "empty reply cache"
  in
  Network.send c.net ~src:(Addr.client client) ~dst:(Addr.replica 1)
    (Message.encode (Message.Request { client; timestamp; payload = "op"; auth = "" }));
  Engine.run ~until:(Engine.now c.engine +. 100_000.0) c.engine;
  checkb "served from the reply cache" true (read "broker.retx_replayed" = replayed +. 1.0);
  checkb "no ecall" true (ecalls () = ecalls_before)

(* ----- batch bodies in Execution ----- *)

(* Which of [digests] replica 0's Execution still holds: each is asked for
   in a Batch_fetch from replica 3, and a held body comes back as
   Batch_data. *)
let served_bodies c digests =
  let served = Hashtbl.create 64 in
  Network.add_tap c.net (fun ~src ~dst payload ->
      if src = Addr.replica 0 && dst = Addr.replica 3 then
        match Message.decode_traced payload with
        | Ok (Message.Batch_data bd, _) ->
          Hashtbl.replace served (Message.digest_of_batch bd.bd_batch) ()
        | _ -> ());
  List.iter
    (fun d ->
      Network.send c.net ~src:(Addr.replica 3) ~dst:(Addr.replica 0)
        (Message.encode (Message.Batch_fetch { bf_digest = d; bf_requester = 3 })))
    digests;
  Engine.run ~until:(Engine.now c.engine +. 1_000_000.0) c.engine;
  Hashtbl.mem served

(* Over a long run the body table holds about one checkpoint interval:
   bodies of slots more than an interval below the stable checkpoint are
   dropped, and a laggard's fetch inside that interval is still served. *)
let test_batch_bodies_pruned () =
  let interval = 8 and ops = 200 in
  let c = make ~checkpoint_interval:interval () in
  let _, completed, _ = drive c ~ops in
  checki "complete" ops completed;
  let r0 = List.hd c.replicas in
  let stable = (Replica.exec_probe r0).Execution.last_stable () in
  checki "stable at the last checkpoint" ops stable;
  let log = Replica.executed_log r0 in
  let served = served_bodies c (List.map snd log) in
  List.iter
    (fun (seq, d) ->
      if seq > stable - interval then checkb "inside the slack: served" true (served d)
      else checkb "an interval below stable: dropped" false (served d))
    log;
  checki "bodies held" interval (List.length (List.filter (fun (_, d) -> served d) log))

(* A slot prepared in view 0 whose Commits are lost is re-proposed by the
   NewView in digest form; every Execution runs it from the body it kept,
   well after several checkpoints have pruned older bodies, and the copy
   the new primary proposes again from its backlog executes only once. *)
let test_reproposed_digest_executes () =
  let c = make ~checkpoint_interval:4 () in
  let stalled = 30 and ops = 40 in
  Network.set_filter c.net
    (Some
       (fun ~src:_ ~dst:_ payload ->
         match Message.decode_traced payload with
         | Ok (Message.Commit { view = 0; seq; _ }, _) when seq = stalled -> Network.Drop
         | _ -> Network.Deliver));
  let fetches = ref 0 in
  Network.add_tap c.net (fun ~src:_ ~dst:_ payload ->
      match Message.decode_traced payload with
      | Ok (Message.Batch_fetch _, _) -> incr fetches
      | _ -> ());
  let _, completed, wrong = drive ~until:10_000_000.0 c ~ops in
  checki "complete" ops completed;
  checki "no wrong" 0 wrong;
  checki "no body fetched" 0 !fetches;
  List.iter
    (fun r ->
      checkb "new view" true (Replica.view r >= 1);
      checkb "stalled slot executed" true (List.mem_assoc stalled (Replica.executed_log r));
      checki "each request once" ops (Replica.executed_count r))
    c.replicas;
  checkb "agreement" true (agreement c.replicas)

(* ----- what each replica retains ----- *)

(* A batch-200 deployment: [clients] closed-loop clients, each keeping
   [window] writes over 64 keys outstanding. *)
let make_saturated ?(clients = 8) ?(window = 50) () =
  let c = make ~batch_size:200 ~checkpoint_interval:16 () in
  List.iter
    (fun id ->
      let cl =
        Client.create c.engine c.net
          { (Client.default_config (Client.Splitbft { ready_quorum = 4 }) ~n:4 ~id) with
            Client.window;
            retry_timeout_us = 300_000.0 }
      in
      let rec submit i =
        Client.submit cl ~op:(put_fresh (i mod 64)) ~on_result:(fun ~latency_us:_ ~result:_ ->
            submit (i + window))
      in
      Client.start cl ~on_ready:(fun () ->
          for i = 1 to window do
            submit i
          done))
    (List.init clients Fun.id);
  c

let test_retention_digests_and_encodings () =
  let c = make_saturated () in
  Engine.run ~until:100_000.0 c.engine;
  List.iteri
    (fun i r ->
      let prep = Replica.prep_probe r and exec = Replica.exec_probe r in
      checkb (Printf.sprintf "replica %d: batches of more than one request" i) true
        (exec.Execution.executed_total () > 2 * exec.Execution.last_executed ());
      checki (Printf.sprintf "replica %d: Preparation holds no request body" i) 0
        (prep.Preparation.held_requests ());
      checkb (Printf.sprintf "replica %d: Preparation logs its proposals" i) true
        (prep.Preparation.logged () > 0);
      checki (Printf.sprintf "replica %d: no decoded batch at or below last_executed" i) 0
        (exec.Execution.decoded_executed ()))
    c.replicas

(* An executed batch is held encoded; a peer's Batch_fetch and a state
   transfer still get its body back, and it hashes to the digest it was
   decided under. *)
let test_executed_bodies_served () =
  let c = make_saturated () in
  Engine.run ~until:100_000.0 c.engine;
  let r0 = List.hd c.replicas in
  let exec = Replica.exec_probe r0 in
  let last = exec.Execution.last_executed () in
  let executed = List.filter (fun (seq, _) -> seq <= last) (Replica.executed_log r0) in
  let newest = List.filteri (fun i _ -> i >= List.length executed - 4) executed in
  let fetched = Hashtbl.create 8 and entries = ref [] in
  Network.add_tap c.net (fun ~src ~dst payload ->
      if src = Addr.replica 0 && dst = Addr.replica 3 then
        match Message.decode_traced payload with
        | Ok (Message.Batch_data bd, _) ->
          Hashtbl.replace fetched (Message.digest_of_batch bd.bd_batch) ()
        | Ok (Message.State_reply sr, _) when sr.st_requester = 3 ->
          entries := sr.st_entries @ !entries
        | _ -> ());
  List.iter
    (fun (_, d) ->
      Network.send c.net ~src:(Addr.replica 3) ~dst:(Addr.replica 0)
        (Message.encode (Message.Batch_fetch { bf_digest = d; bf_requester = 3 })))
    newest;
  Network.send c.net ~src:(Addr.replica 3) ~dst:(Addr.replica 0)
    (Message.encode
       (Message.State_request
          { sr_requester = 3; sr_from = (exec.Execution.last_stable ()) + 1 }));
  Engine.run ~until:(Engine.now c.engine +. 20_000.0) c.engine;
  List.iter
    (fun (seq, d) ->
      checkb (Printf.sprintf "seq %d: fetched body matches its digest" seq) true
        (Hashtbl.mem fetched d))
    newest;
  checkb "state transfer sent entries" true (!entries <> []);
  List.iter
    (fun (e : Message.state_entry) ->
      checkb (Printf.sprintf "seq %d: transferred body matches its digest" e.se_seq) true
        (String.equal (Message.digest_of_batch e.se_batch) e.se_digest
        && List.assoc_opt e.se_seq executed = Some e.se_digest))
    !entries

(* Soak: what a replica holds per slot and per request is bounded by the
   checkpoint window, not by the run.  Each table's high-water mark over
   (T, 4T] stays within 1.25x of its mark over [0, T] plus one batch of
   requests. *)
let test_soak_retention_flat () =
  let c = make_saturated () in
  let counts r =
    let prep = Replica.prep_probe r and exec = Replica.exec_probe r in
    [ ("assignments", prep.Preparation.assignments ());
      ("Preparation log entries", prep.Preparation.logged ());
      ("Execution body bytes", exec.Execution.body_bytes ());
      ("Broker.unanswered", Broker.unanswered (Replica.broker r)) ]
  in
  let marks until =
    let hw = Array.make (List.length c.replicas) [] in
    let step = 5_000.0 in
    while Engine.now c.engine < until do
      Engine.run ~until:(Float.min until (Engine.now c.engine +. step)) c.engine;
      List.iteri
        (fun i r ->
          hw.(i) <-
            (match hw.(i) with
            | [] -> counts r
            | prev -> List.map2 (fun (k, a) (_, b) -> (k, max a b)) prev (counts r)))
        c.replicas
    done;
    hw
  in
  let t = 75_000.0 in
  let first = marks t in
  let later = marks (4.0 *. t) in
  let executed = (Replica.exec_probe (List.hd c.replicas)).Execution.executed_total () in
  checkb "the run kept going" true (executed > 20 * 8 * 50);
  Array.iteri
    (fun i at_t ->
      List.iter2
        (fun (k, a) (_, b) ->
          checkb
            (Printf.sprintf "replica %d: %s %d over (T, 4T] <= 1.25 x %d + 200" i k b a)
            true
            (float_of_int b <= (1.25 *. float_of_int a) +. 200.0))
        at_t later.(i))
    first

let test_env_starve_conf_loses_liveness_not_safety () =
  let c = make () in
  List.iter
    (fun r -> Replica.set_env_fault r (Broker.Env_starve Ids.Confirmation))
    c.replicas;
  let _, completed, _ = drive ~until:2_000_000.0 c ~ops:10 in
  checki "no progress" 0 completed;
  checkb "but no divergence" true (agreement c.replicas)

let test_env_delay_degrades_only () =
  let c = make () in
  List.iter (fun r -> Replica.set_env_fault r (Broker.Env_delay 2_000.0)) c.replicas;
  let _, completed, wrong = drive ~until:8_000_000.0 c ~ops:15 in
  checki "still completes" 15 completed;
  checki "no wrong" 0 wrong

let test_env_mute_is_a_crash () =
  let c = make () in
  Replica.set_env_fault (List.nth c.replicas 3) Broker.Env_mute;
  let _, completed, _ = drive ~ready_quorum:3 c ~ops:20 in
  checki "tolerated like a crash" 20 completed;
  (* The muted replica's enclaves still execute (inputs flow), but none of
     their outputs escape the compromised environment. *)
  checki "no sealed blocks escaped" 0
    (List.length (Replica.persisted (List.nth c.replicas 3)))

let test_exec_enclave_crash_tolerated () =
  let c = make () in
  ignore
    (Engine.schedule c.engine ~delay:100_000.0 ~label:"crash-enclave" (fun () ->
         Replica.crash_enclave (List.nth c.replicas 2) Ids.Execution));
  let _, completed, wrong = drive ~ready_quorum:4 c ~ops:30 in
  checki "f=1 enclave crash tolerated" 30 completed;
  checki "no wrong" 0 wrong;
  checkb "crashed enclave flagged" true
    (Enclave.is_crashed (Replica.enclave (List.nth c.replicas 2) Ids.Execution))

let test_single_thread_mode_functional () =
  let c = make ~threading:Config.Single_thread () in
  let _, completed, wrong = drive c ~ops:20 in
  checki "single ecall thread still correct" 20 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c.replicas)

let test_corrupt_exec_within_f_masked () =
  let byz i =
    if i = 2 then (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_corrupt)
    else (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_honest)
  in
  let c = make ~byz () in
  let _, completed, wrong = drive c ~ops:20 in
  checki "completes" 20 completed;
  checki "corrupt exec masked by reply quorum" 0 wrong

let test_corrupt_exec_beyond_f_breaks_integrity () =
  let byz i =
    if i <= 1 then (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_corrupt)
    else (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_honest)
  in
  let c = make ~byz () in
  (* Several clients so reply races sample both quorums. *)
  let completed = ref 0 and wrong = ref 0 in
  List.iter
    (fun id ->
      let cl =
        Client.create c.engine c.net
          (Client.default_config (Client.Splitbft { ready_quorum = 4 }) ~n:4 ~id)
      in
      Client.start cl ~on_ready:(fun () ->
          for i = 1 to 30 do
            Client.submit cl
              ~op:(Kvs.encode_op (Kvs.Put (Printf.sprintf "c%d-k%d" id i, "v")))
              ~on_result:(fun ~latency_us:_ ~result ->
                incr completed;
                if not (String.equal result Kvs.ok) then incr wrong)
          done))
    [ 0; 1; 2 ];
  Engine.run ~until:8_000_000.0 c.engine;
  checkb "requests complete" true (!completed > 0);
  checkb "f+1 corrupt executions reach clients" true (!wrong > 0)

let test_leaky_exec_exposes_plaintext () =
  let byz i =
    if i = 0 then (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_leak)
    else (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_honest)
  in
  let c = make ~byz () in
  let _, completed, _ = drive c ~ops:10 in
  checki "completes" 10 completed;
  let leaked = Replica.persisted (List.nth c.replicas 0) in
  checkb "plaintext exfiltrated to untrusted storage" true
    (List.exists (fun (tag, _) -> String.equal tag "exfil") leaked)

let test_equivocating_prep_recovers_via_view_change () =
  let byz i =
    if i = 0 then (Preparation.Prep_equivocate, Confirmation.Conf_honest, Execution.Exec_honest)
    else (Preparation.Prep_honest, Confirmation.Conf_honest, Execution.Exec_honest)
  in
  let c = make ~byz () in
  let _, completed, wrong = drive ~until:12_000_000.0 c ~ops:20 in
  checki "liveness recovered" 20 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement among honest executions" true (agreement c.replicas);
  List.iter
    (fun r -> checkb "left the equivocator's view" true (Replica.view r >= 1))
    (subset c [ 1; 2; 3 ])

let test_ledger_blocks_sealed_in_storage () =
  let engine = Engine.create ~seed:9L () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init 4 (fun i ->
        Replica.create engine net (Config.default ~n:4 ~id:i)
          ~app:(fun () -> Splitbft_app.Ledger.create ()))
  in
  let cl =
    Client.create engine net
      (Client.default_config (Client.Splitbft { ready_quorum = 4 }) ~n:4 ~id:0)
  in
  let completed = ref 0 in
  Client.start cl ~on_ready:(fun () ->
      for i = 1 to 12 do
        Client.submit cl
          ~op:(Printf.sprintf "transaction-%d-SENSITIVE" i)
          ~on_result:(fun ~latency_us:_ ~result:_ -> incr completed)
      done);
  Engine.run ~until:6_000_000.0 engine;
  checki "transactions applied" 12 !completed;
  let stored = Replica.persisted (List.hd replicas) in
  checkb "blocks persisted" true (List.length stored >= 2);
  (* The persisted blobs are sealed: no transaction plaintext. *)
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec loop i =
      i + n <= m && (String.equal (String.sub hay i n) needle || loop (i + 1))
    in
    loop 0
  in
  checkb "sealed blobs hide transactions" false
    (List.exists (fun (_, data) -> contains data "SENSITIVE") stored)

(* ----- NewView validation inside each compartment -----

   One enclave per compartment, driven by one ecall per message; the
   NewViews (view 1 unless stated: primary replica 1) are built and signed
   here with the deployment's enclave keys.  Accepting the NewView moves the
   compartment's view to 1; rejecting it leaves view 0.  Each forgery is
   re-signed by every enclave above it (the ViewChange's sender, the new
   primary), as colluding compromised enclaves could, so only the
   compartment's own check of the forged signature can catch it. *)

module Keys = Splitbft_types.Keys
module Signature = Splitbft_crypto.Signature

let sign_as replica compartment bytes =
  let kp = Signature.derive ~seed:(Keys.enclave_signing_seed replica compartment) in
  Signature.sign kp.Signature.secret bytes

let signed_vc (vc : Message.viewchange) =
  { vc with
    Message.vc_sig = sign_as vc.vc_sender Ids.Confirmation (Message.viewchange_signing_bytes vc) }

(* View 0's prepare certificate for seq 1: the primary's PrePrepare plus
   2f = 2 Prepares. *)
let prepared_seq1 =
  let digest = Message.digest_of_batch [] in
  let pd = { Message.pd_view = 0; pd_seq = 1; pd_digest = digest; pd_sender = 0; pd_sig = "" } in
  let pd =
    { pd with pd_sig = sign_as 0 Ids.Preparation (Message.preprepare_digest_signing_bytes pd) }
  in
  let prepare sender =
    let p = { Message.view = 0; seq = 1; digest; sender; p_sig = "" } in
    { p with p_sig = sign_as sender Ids.Preparation (Message.prepare_signing_bytes p) }
  in
  { Message.proof_preprepare = pd; proof_prepares = [ prepare 1; prepare 2 ] }

let honest_vc sender =
  signed_vc
    { Message.vc_new_view = 1;
      vc_last_stable = 0;
      vc_checkpoint_proof = [];
      vc_prepared = [ prepared_seq1 ];
      vc_sender = sender;
      vc_sig = "" }

let newview_of ?(view = 1) vcs =
  let primary = view mod 4 in
  let _, _, nv =
    Splitbft_consensus.Newview.build ~view ~sender:primary ~sign:(sign_as primary Ids.Preparation)
      vcs
  in
  nv

let honest_newview = newview_of (List.map honest_vc [ 0; 2; 3 ])

(* Replica 3's ViewChange carries a Prepare that claims replica 2 but is
   signed by replica 3's Preparation enclave. *)
let forged_prepare_newview =
  let forged_proof =
    { prepared_seq1 with
      Message.proof_prepares =
        List.map
          (fun (p : Message.prepare) ->
            if p.sender = 2 then
              { p with p_sig = sign_as 3 Ids.Preparation (Message.prepare_signing_bytes p) }
            else p)
          prepared_seq1.proof_prepares }
  in
  let vc3 = signed_vc { (honest_vc 3) with Message.vc_prepared = [ forged_proof ] } in
  newview_of [ honest_vc 0; honest_vc 2; vc3 ]

(* Replica 3's ViewChange is signed by replica 0's Confirmation enclave. *)
let forged_vc_newview =
  let vc3 = honest_vc 3 in
  let vc3 =
    { vc3 with Message.vc_sig = sign_as 0 Ids.Confirmation (Message.viewchange_signing_bytes vc3) }
  in
  newview_of [ honest_vc 0; honest_vc 2; vc3 ]

type under_test = {
  view : unit -> int;
  commits_sent : unit -> int;
  tallied_views : unit -> int list;
}

(* A fresh compartment of replica [id] fed one ecall per message, in
   order; returns its probe. *)
let drive_compartment ?(id = 2) compartment msgs =
  let engine = Engine.create ~seed:3L () in
  let platform = Splitbft_tee.Platform.create engine ~id in
  let cfg = Config.default ~n:4 ~id in
  let none () = [] and zero () = 0 in
  let program, probe =
    match compartment with
    | Ids.Preparation ->
      let program, p = Preparation.make cfg in
      ( program,
        { view = p.Preparation.view; commits_sent = zero; tallied_views = p.tallied_views } )
    | Ids.Confirmation ->
      let program, p = Confirmation.make cfg in
      ( program,
        { view = p.Confirmation.view; commits_sent = p.commits_sent; tallied_views = none } )
    | Ids.Execution ->
      let program, p = Execution.make cfg ~app:(fun () -> Kvs.create ()) in
      (program, { view = p.Execution.view; commits_sent = zero; tallied_views = none })
  in
  let enclave =
    Enclave.create platform
      ~name:(Printf.sprintf "replica%d-under-test" id)
      ~measurement:(Splitbft_types.Enclave_identity.of_compartment compartment)
      ~cost_model:cfg.Config.cost
      ~key_seed:(Keys.enclave_signing_seed id compartment)
      ~program
  in
  let thread = Splitbft_sim.Resource.create engine ~name:"ecall" in
  List.iter
    (fun msg ->
      Enclave.ecall enclave ~thread
        ~payload:(Wire.encode_input (Wire.In_net msg))
        ~on_done:ignore ();
      Engine.run engine)
    msgs;
  probe

(* The view a fresh compartment of replica 2 is in after one NewView. *)
let view_after_newview compartment nv =
  (drive_compartment compartment [ Message.Newview nv ]).view ()

(* Three copies of one ViewChange, and a quorum of ViewChanges for another
   view: each lets a NewView past a bare count of its ViewChanges. *)
let duplicate_vc_newview = newview_of [ honest_vc 0; honest_vc 0; honest_vc 0 ]

let wrong_view_vc_newview =
  newview_of
    (List.map (fun s -> signed_vc { (honest_vc s) with Message.vc_new_view = 5 }) [ 0; 2; 3 ])

let test_prep_rejects_forged_prepared_proof () =
  checki "honest NewView accepted" 1 (view_after_newview Ids.Preparation honest_newview);
  checki "forged Prepare in a prepared proof rejected" 0
    (view_after_newview Ids.Preparation forged_prepare_newview);
  checki "three copies of one ViewChange rejected" 0
    (view_after_newview Ids.Preparation duplicate_vc_newview);
  checki "ViewChanges for another view rejected" 0
    (view_after_newview Ids.Preparation wrong_view_vc_newview);
  (* Confirmation does not check embedded Prepares (§4), so it accepts the
     same NewView: the forged Prepare is all that is wrong with it. *)
  checki "confirmation accepts it" 1
    (view_after_newview Ids.Confirmation forged_prepare_newview)

let test_conf_exec_reject_forged_viewchange () =
  List.iter
    (fun compartment ->
      let name = Ids.compartment_name compartment in
      checki (name ^ ": honest NewView accepted") 1 (view_after_newview compartment honest_newview);
      checki (name ^ ": forged ViewChange signature rejected") 0
        (view_after_newview compartment forged_vc_newview))
    [ Ids.Confirmation; Ids.Execution ]

(* A replayed NewView must not reopen its view: an honest Confirmation
   that committed d1 at (view 1, seq 2) must not also commit d2 there after
   the same NewView arrives again. *)
let test_replayed_newview_one_commit () =
  let proposal digest =
    let pd =
      { Message.pd_view = 1; pd_seq = 2; pd_digest = digest; pd_sender = 1; pd_sig = "" }
    in
    Message.Preprepare_digest
      { pd with pd_sig = sign_as 1 Ids.Preparation (Message.preprepare_digest_signing_bytes pd) }
  in
  let prepare digest sender =
    let p = { Message.view = 1; seq = 2; digest; sender; p_sig = "" } in
    Message.Prepare
      { p with p_sig = sign_as sender Ids.Preparation (Message.prepare_signing_bytes p) }
  in
  let slot digest = [ proposal digest; prepare digest 0; prepare digest 3 ] in
  let batch payload =
    Message.digest_of_batch [ { Message.client = 0; timestamp = 1L; payload; auth = "" } ]
  in
  let d1 = batch "d1" and d2 = batch "d2" in
  let nv = Message.Newview honest_newview in
  let once = drive_compartment Ids.Confirmation ((nv :: slot d1) @ (nv :: slot d2)) in
  checki "view 1" 1 (once.view ());
  checki "one Commit at (view 1, seq 2)" 1 (once.commits_sent ())

(* Preparation of replica 0 tallies one ViewChange for each of views 1-4,
   then enters views 1, 2 and 3 through their NewViews. *)
let test_prep_prunes_viewchange_tallies () =
  let vc view sender = signed_vc { (honest_vc sender) with Message.vc_new_view = view } in
  let newview view =
    let primary = view mod 4 in
    Message.Newview
      (newview_of ~view (List.map (vc view) (List.filter (( <> ) primary) [ 0; 1; 2; 3 ])))
  in
  let probe =
    drive_compartment ~id:0 Ids.Preparation
      (List.map (fun v -> Message.Viewchange (vc v 1)) [ 1; 2; 3; 4 ]
      @ List.map newview [ 1; 2; 3 ])
  in
  checki "view 3" 3 (probe.view ());
  Alcotest.(check (list int)) "no tally at or below view 3" [ 4 ] (probe.tallied_views ())

(* ----- sealed checkpoint images ----- *)

(* One compartment's sealed checkpoint images, unsealed. *)
let unseal compartment r blobs =
  let platform = Enclave.platform (Replica.enclave r compartment) in
  let key =
    Aead.prepare
      (Platform.sealing_key platform
         (Splitbft_types.Enclave_identity.of_compartment compartment))
  in
  List.map
    (fun blob ->
      match Sealing.unseal ~key blob with Ok image -> image | Error e -> Alcotest.fail e)
    blobs

(* The images on [r]'s disk under [tag]. *)
let images compartment ~tag r =
  unseal compartment r
    (List.filter_map
       (fun (t, blob) -> if String.equal t tag then Some blob else None)
       (Replica.persisted r))

let exec_images = images Ids.Execution ~tag:"ckpt:execution"

(* The disk keeps only the newest image per tag, so each Execution image
   is taken as it is written: every send samples every replica's disk, and
   so does each read of the result, replica [i]'s images taken so far,
   oldest first, unsealed. *)
let tap_exec_images c =
  let taken = Array.make (List.length c.replicas) [] in
  let sample () =
    List.iteri
      (fun i r ->
        match (List.assoc_opt "ckpt:execution" (Replica.persisted r), taken.(i)) with
        | Some blob, last :: _ when String.equal blob last -> ()
        | Some blob, _ -> taken.(i) <- blob :: taken.(i)
        | None, _ -> ())
      c.replicas
  in
  Network.add_tap c.net (fun ~src:_ ~dst:_ _ -> sample ());
  fun i ->
    sample ();
    unseal Ids.Execution (List.nth c.replicas i) (List.rev taken.(i))

type image = {
  counter : int64;
  view : int;
  last : int;
  gen : int;
  base_seq : int;
  base_digest : string;
  head : string;
  sessions : (int * string * string) list;
}

let parse_image s =
  match
    R.parse
      (fun r ->
        let counter = R.u64 r in
        let view = R.varint r in
        let last = R.varint r in
        let gen = R.varint r in
        let base_seq = R.varint r in
        let base_digest = R.bytes r in
        let head = R.bytes r in
        let sessions =
          R.list r (fun r ->
              let c = R.varint r in
              let auth = R.bytes r in
              let enc = R.bytes r in
              (c, auth, enc))
        in
        { counter; view; last; gen; base_seq; base_digest; head; sessions })
      s
  with
  | Ok i -> i
  | Error e -> Alcotest.fail ("recovery image: " ^ e)

(* The recovery image layout, every list through [W.list]. *)
let reference_image i =
  W.to_string
    (fun w () ->
      W.u64 w i.counter;
      W.varint w i.view;
      W.varint w i.last;
      W.varint w i.gen;
      W.varint w i.base_seq;
      W.bytes w i.base_digest;
      W.bytes w i.head;
      W.list w
        (fun w (c, auth, enc) ->
          W.varint w c;
          W.bytes w auth;
          W.bytes w enc)
        i.sessions)
    ()

(* The newest image of [r] is the reference encoding of its header, log
   position and sessions, sealed at a seq the replica executed. *)
let check_newest_image name r =
  match List.rev (exec_images r) with
  | [] -> Alcotest.fail (name ^ ": no sealed image")
  | newest :: _ ->
    let i = parse_image newest in
    checkb (name ^ ": history reaches the sealed seq") true
      (List.mem_assoc i.last (Replica.executed_log r));
    Alcotest.(check string) (name ^ ": image = reference encoding")
      (Splitbft_util.Hex.encode (reference_image i))
      (Splitbft_util.Hex.encode newest)

let counting_app counts i () =
  let app = Kvs.create () in
  { app with
    State_machine.snapshot =
      (fun () ->
        counts.(i) <- counts.(i) + 1;
        app.State_machine.snapshot ()) }

let test_one_snapshot_per_checkpoint () =
  let counts = Array.make 4 0 in
  let c = make ~checkpoint_interval:8 ~app:(counting_app counts) () in
  let taken = tap_exec_images c in
  let _, completed, _ = drive c ~ops:40 in
  checki "served" 40 completed;
  List.iteri
    (fun i r ->
      let name = Printf.sprintf "replica %d" i in
      let checkpoints = Replica.last_executed r / 8 in
      checkb (name ^ ": checkpointed") true (checkpoints >= 5);
      checki (name ^ ": one sealed image per checkpoint") checkpoints
        (List.length (taken i));
      checki (name ^ ": one snapshot per checkpoint") checkpoints counts.(i);
      (* Checkpoint deltas accumulate under their slot's tag; every other
         tag holds one record. *)
      let deltas = [ Execution.delta_tag 0; Execution.delta_tag 1 ] in
      let tags =
        List.filter (fun t -> not (List.mem t deltas)) (List.map fst (Replica.persisted r))
      in
      checki (name ^ ": one image per tag")
        (List.length (List.sort_uniq String.compare tags))
        (List.length tags))
    c.replicas

(* The bytes an image holds after its log position (which follows the
   counter, the view and the sealed seq), read without parsing them, so a
   growing tail shows as a growing number. *)
let image_tail image =
  let r = R.of_string image in
  ignore (R.u64 r);
  ignore (R.varint r);
  ignore (R.varint r);
  ignore (R.varint r);
  ignore (R.varint r);
  ignore (R.bytes r);
  ignore (R.bytes r);
  R.remaining r

let test_image_is_flat () =
  let c = make ~checkpoint_interval:8 () in
  let taken = tap_exec_images c in
  let _, completed, _ = drive c ~ops:200 in
  checki "served" 200 completed;
  List.iteri
    (fun i _ ->
      let name = Printf.sprintf "replica %d" i in
      match List.map image_tail (taken i) with
      | [] -> Alcotest.fail (name ^ ": no sealed image")
      | first :: rest as all ->
        checkb (name ^ ": checkpointed through the run") true (List.length all >= 20);
        List.iteri
          (fun k o -> checki (Printf.sprintf "%s: image %d tail = first" name (k + 2)) first o)
          rest)
    c.replicas

let test_history_survives_restore () =
  let c = make ~checkpoint_interval:8 () in
  let r3 = List.nth c.replicas 3 in
  let taken = tap_exec_images c in
  let on_disk_at_restart = ref [] and taken_before_restart = ref [] in
  let history_before_restart = ref [] in
  ignore
    (Engine.schedule c.engine ~delay:30_000.0 ~label:"crash-host" (fun () ->
         Replica.crash_host r3));
  ignore
    (Engine.schedule c.engine ~delay:45_000.0 ~label:"restart-host" (fun () ->
         on_disk_at_restart := exec_images r3;
         taken_before_restart := taken 3;
         history_before_restart := Replica.executed_log r3;
         Replica.restart_host r3));
  let _, completed, wrong = drive c ~ops:200 in
  checki "served" 200 completed;
  checki "no wrong" 0 wrong;
  List.iteri (fun i r -> check_newest_image (Printf.sprintf "replica %d" i) r) c.replicas;
  checkb "replica 3 recovered" true (Replica.recovered r3);
  let before = List.length !taken_before_restart in
  checkb "replica 3 sealed before the crash" true (before > 0);
  let newest_before = List.nth !taken_before_restart (before - 1) in
  checkb "the disk held the newest pre-crash image" true
    (!on_disk_at_restart = [ newest_before ]);
  checkb "replica 3 sealed after the restore" true (List.length (taken 3) > before);
  (* The restore accepted the newest image on disk; the history is the
     pre-crash one cut at its seq, then what the new incarnation executed,
     in order and in agreement with replica 0. *)
  let restored = (parse_image newest_before).last in
  let cut, later = List.partition (fun (seq, _) -> seq <= restored) (Replica.executed_log r3) in
  checkb "replica 3 executed past the crash" true
    (List.exists (fun (seq, _) -> seq > restored) !history_before_restart);
  checkb "cut = pre-crash history through the restored seq" true
    (cut = List.filter (fun (seq, _) -> seq <= restored) !history_before_restart);
  let seqs = List.map fst later in
  checkb "replica 3 executed after the restore" true (seqs <> []);
  checkb "later executions strictly increase" true (seqs = List.sort_uniq compare seqs);
  let r0 = Replica.executed_log (List.hd c.replicas) in
  checkb "later executions agree with replica 0" true
    (List.for_all (fun (seq, d) -> List.assoc_opt seq r0 = Some d) later);
  checki "history ends at the last executed seq" (Replica.last_executed r3)
    (List.hd (List.rev seqs))

(* Pins the image bytes: replica 0's first image (seq 8) of a fixed run. *)
let test_image_golden () =
  let c = make ~checkpoint_interval:8 () in
  let _ = drive c ~ops:10 in
  match exec_images (List.hd c.replicas) with
  | [] -> Alcotest.fail "no sealed image"
  | first :: _ ->
    checki "sealed at seq 8" 8 (parse_image first).last;
    Alcotest.(check string) "image sha256"
      "021f4d5e62a0196a88dc27cf6d9ade8e758f81e4516585469741e747af8a0044"
      (Splitbft_util.Hex.encode (Sha256.digest first))

(* The same pin for the ordering compartments' images (view, cursors,
   stable mark and, for Preparation, the request-authentication keys). *)
let test_ordering_images_golden () =
  let c = make ~checkpoint_interval:8 () in
  let _ = drive c ~ops:10 in
  List.iter
    (fun (compartment, tag, hash) ->
      match images compartment ~tag (List.hd c.replicas) with
      | [] -> Alcotest.fail (tag ^ ": no sealed image")
      | first :: _ ->
        Alcotest.(check string) (tag ^ " image sha256") hash
          (Splitbft_util.Hex.encode (Sha256.digest first)))
    [ ( Ids.Preparation,
        "ckpt:preparation",
        "5c182a160e785af0dcd9f46f9b44aa8f81796db513fd760dcc455f46f5342c20" );
      ( Ids.Confirmation,
        "ckpt:confirmation",
        "713614b660f2127331514997412b727cc9b9231ebe86ac41b67c84dd0d3aa2f7" ) ]

(* ----- the sealed checkpoint log: recovery verdicts ----- *)

let exec_records r =
  List.filter
    (fun (tag, _) -> String.starts_with ~prefix:"ckpt:execution" tag)
    (Replica.persisted r)

(* A fresh Execution enclave on [r]'s platform (its sealing key and its
   counters) offered [records]: the seq and digest of the state it
   restored, or the alert it raised. *)
let recover_from r records =
  let platform = Enclave.platform (Replica.enclave r Ids.Execution) in
  let engine = Platform.engine platform in
  let id = Replica.id r in
  let cfg = Config.default ~n:4 ~id in
  let program, probe = Execution.make cfg ~app:(fun () -> Kvs.create ()) in
  let enclave =
    Enclave.create platform ~name:"execution-under-test"
      ~measurement:(Splitbft_types.Enclave_identity.of_compartment Ids.Execution)
      ~cost_model:cfg.Config.cost
      ~key_seed:(Keys.enclave_signing_seed id Ids.Execution)
      ~program
  in
  let outputs = ref [] in
  Enclave.ecall enclave
    ~thread:(Splitbft_sim.Resource.create engine ~name:"recover-under-test")
    ~payload:(Wire.encode_input (Wire.In_recover records))
    ~on_done:(fun o -> outputs := o)
    ();
  Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
  match
    List.filter_map
      (fun o -> match Wire.decode_output o with Ok (Wire.Out_alert a) -> Some a | _ -> None)
      !outputs
  with
  | alert :: _ -> Error alert
  | [] -> Ok (probe.Execution.last_executed (), probe.Execution.app_digest ())

(* Replica 3 of a cluster at checkpoint interval 4 after 48 puts, its
   host crashed so its disk and counters hold still; its last image names
   a generation with deltas.  Returns the replica, its Execution records
   (oldest first), the generation, and the seq and digest it had. *)
let log_fixture () =
  let c = make ~checkpoint_interval:4 () in
  let _, completed, _ = drive c ~ops:48 in
  checki "served" 48 completed;
  let r3 = List.nth c.replicas 3 in
  let live = (Replica.last_executed r3, Replica.app_digest r3) in
  Replica.crash_host r3;
  let records = exec_records r3 in
  let image = parse_image (List.hd (exec_images r3)) in
  checki "the image is at the last executed seq" (fst live) image.last;
  (r3, records, image.gen, live)

let under tag records = List.filter (fun (t, _) -> String.equal t tag) records
let without tag records = List.filter (fun (t, _) -> not (String.equal t tag)) records

(* [records] with the records under [tag] replaced by [f] of them. *)
let rework tag f records = without tag records @ f (under tag records)

let test_log_recovery_verdicts () =
  let r3, records, gen, live = log_fixture () in
  let deltas = Execution.delta_tag gen and base = Execution.base_tag gen in
  let older_deltas = under (Execution.delta_tag (gen - 1)) records in
  checkb "the image's generation has three deltas" true (List.length (under deltas records) >= 3);
  checkb "the older generation has a delta" true (older_deltas <> []);
  let older_base = List.hd (under (Execution.base_tag (gen - 1)) records) in
  let torn (tag, blob) = (tag, String.sub blob 0 (String.length blob / 2)) in
  let cases =
    [ ("as persisted", records, true);
      ( "a delta dropped",
        rework deltas (function d0 :: _ :: rest -> d0 :: rest | l -> l) records,
        false );
      ( "two deltas swapped",
        rework deltas (function d0 :: d1 :: rest -> d1 :: d0 :: rest | l -> l) records,
        false );
      ( "a delta replayed",
        rework deltas (function d0 :: rest -> d0 :: d0 :: rest | l -> l) records,
        false );
      ( "a delta from an older base generation",
        rework deltas
          (function d0 :: _ :: rest -> d0 :: (deltas, snd (List.hd older_deltas)) :: rest | l -> l)
          records,
        false );
      ( "an older base substituted",
        rework base (fun _ -> [ (base, snd older_base) ]) records,
        false );
      ( "a torn final delta",
        records @ [ torn (List.hd (List.rev (under deltas records))) ],
        true );
      ( "a crash after the next base, before its image",
        (* The host's rule: the next generation's base replaces the older
           base of its slot and drops that slot's deltas. *)
        (let next = Execution.base_tag (gen + 1) in
         without (Execution.delta_tag (gen + 1)) (without next records)
         @ [ (next, snd (List.hd (under base records))) ]),
        true ) ]
  in
  List.iter
    (fun (name, records, recovers) ->
      match (recover_from r3 records, recovers) with
      | Ok restored, true -> checkb (name ^ ": restores the live state") true (restored = live)
      | Error alert, false ->
        checkb (name ^ ": refused by execution") true
          (String.starts_with ~prefix:"execution:" alert)
      | Ok _, false -> Alcotest.failf "%s: restored" name
      | Error alert, true -> Alcotest.failf "%s: refused (%s)" name alert)
    cases

(* Base + deltas restore the state the live replica had at its image's
   seq, for random op streams and checkpoint intervals.  Replica 3 crashes
   after the 8th result and restarts after the 20th, behind a stable
   checkpoint, so state transfer installs a snapshot and its next
   checkpoint seals a base; after the last result it crashes again, and a
   fresh enclave recovers from its disk.  The live digests are the ones
   replica 3 broadcast in its Checkpoint messages. *)
let kvs_op =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "key%d") (int_bound 5) in
  oneof
    [ map2 (fun k v -> Kvs.Put (k, v)) key (string_size ~gen:printable (int_range 0 12));
      map (fun k -> Kvs.Get k) key;
      map (fun k -> Kvs.Delete k) key ]

let prop_log_restores_live_state =
  QCheck.Test.make ~name:"checkpoint log restores the live state" ~count:6
    QCheck.(
      make
        ~print:(fun (interval, ops) ->
          Printf.sprintf "interval %d, %d ops" interval (List.length ops))
        Gen.(pair (int_range 2 6) (list_size (int_range 30 45) kvs_op)))
    (fun (interval, ops) ->
      let c = make ~checkpoint_interval:interval () in
      let r3 = List.nth c.replicas 3 in
      let live = Hashtbl.create 16 in
      Network.add_tap c.net (fun ~src:_ ~dst:_ payload ->
          match Message.decode_traced payload with
          | Ok (Message.Checkpoint ck, _) when ck.Message.sender = 3 ->
            Hashtbl.replace live ck.Message.seq ck.Message.state_digest
          | _ -> ());
      let ops = Array.of_list (List.map Kvs.encode_op ops) in
      let after k =
        if k = 8 || k = 20 then
          ignore
            (Engine.schedule c.engine ~delay:0.0 ~label:"test" (fun () ->
                 if k = 8 then Replica.crash_host r3 else Replica.restart_host r3))
      in
      let _, completed, _ = drive c ~ops:(Array.length ops) ~op:(fun i -> ops.(i - 1)) ~after in
      Replica.crash_host r3;
      let image = parse_image (List.hd (List.rev (exec_images r3))) in
      completed = Array.length ops
      && Replica.recovery_alerts r3 = []
      && image.gen >= 2
      && recover_from r3 (exec_records r3) = Ok (image.last, Hashtbl.find live image.last))

(* Every delta replica 0 seals, as (seq, sealed length) in seq order:
   sampled from its disk at every send and at each read of the result. *)
let tap_deltas c =
  let r0 = List.hd c.replicas in
  let sealed = Hashtbl.create 16 in
  let sample () =
      List.iter
        (fun (tag, blob) ->
          if String.equal tag (Execution.delta_tag 0) || String.equal tag (Execution.delta_tag 1)
          then
            let image = List.hd (unseal Ids.Execution r0 [ blob ]) in
            match Splitbft_storage.Entry.decode_record image with
            | Ok (e, _) -> Hashtbl.replace sealed e.Splitbft_storage.Entry.seq (String.length blob)
            | Error e -> Alcotest.fail e)
        (Replica.persisted r0)
  in
  Network.add_tap c.net (fun ~src:_ ~dst:_ _ -> sample ());
  fun () ->
    sample ();
    List.sort compare (Hashtbl.fold (fun seq n acc -> (seq, n) :: acc) sealed [])

(* The same writes over a store ten times larger seal the same deltas:
   a checkpoint's cost follows what was written, not what is stored. *)
let test_delta_bytes_independent_of_store () =
  let run preload =
    let app _ () =
      let a = Kvs.create () in
      for i = 1 to preload do
        let op = Kvs.Put (Printf.sprintf "pre%05d" i, "0123456789") in
        ignore (a.State_machine.apply (Kvs.encode_op op))
      done;
      a
    in
    let c = make ~checkpoint_interval:8 ~app () in
    let deltas = tap_deltas c in
    let images = tap_exec_images c in
    let _, completed, _ = drive c ~ops:64 in
    checki "served" 64 completed;
    (deltas (), List.map String.length (images 0))
  in
  let small, small_images = run 100 and large, large_images = run 1000 in
  checki "a delta at every checkpoint after the first" 7 (List.length small);
  checkb "the same delta bytes at every checkpoint" true (small = large);
  checkb "the same image bytes at every checkpoint" true (small_images = large_images)

(* Persisted bytes per replica do not grow with the run: the peak over
   400 writes to 16 keys is the peak over 100. *)
let test_disk_is_flat () =
  let peak ops =
    let c = make ~checkpoint_interval:8 () in
    let peak = Array.make 4 0 in
    let bytes r = List.fold_left (fun n (_, d) -> n + String.length d) 0 (Replica.persisted r) in
    Network.add_tap c.net (fun ~src:_ ~dst:_ _ ->
        List.iteri (fun i r -> peak.(i) <- max peak.(i) (bytes r)) c.replicas);
    let op i = Kvs.encode_op (Kvs.Put (Printf.sprintf "k%d" (i mod 16), string_of_int i)) in
    let _, completed, _ = drive c ~ops ~op in
    checki "served" ops completed;
    peak
  in
  let short = peak 100 and long = peak 400 in
  Array.iteri
    (fun i p ->
      checkb
        (Printf.sprintf "replica %d: peak %d B over 400 writes <= 1.1 x %d B over 100" i long.(i) p)
        true
        (float_of_int long.(i) <= 1.1 *. float_of_int p))
    short

let suites =
  [ ( "splitbft",
      [ Alcotest.test_case "wire codec" `Quick test_wire_roundtrips;
        Alcotest.test_case "attestation handshake" `Quick test_handshake_establishes_sessions;
        Alcotest.test_case "normal operation" `Quick test_normal_operation;
        Alcotest.test_case "wire confidentiality" `Quick test_confidentiality_on_the_wire;
        Alcotest.test_case "checkpoint GC" `Quick test_checkpoint_gc;
        Alcotest.test_case "host crash / view change" `Quick test_host_crash_view_change;
        Alcotest.test_case "view change serves the backlog" `Quick test_view_change_serves_backlog;
        Alcotest.test_case "request during view change ordered" `Quick
          test_request_during_view_change_ordered;
        Alcotest.test_case "late view change keeps the view" `Quick
          test_late_viewchange_keeps_view;
        Alcotest.test_case "backlog keeps the latest copy" `Quick test_backlog_keeps_latest_copy;
        Alcotest.test_case "an answered request leaves nothing" `Quick
          test_answered_leaves_nothing;
        Alcotest.test_case "batch bodies pruned" `Quick test_batch_bodies_pruned;
        Alcotest.test_case "re-proposed digest executes" `Quick test_reproposed_digest_executes;
        Alcotest.test_case "retention: digests and encodings" `Quick
          test_retention_digests_and_encodings;
        Alcotest.test_case "retention: executed bodies served" `Quick test_executed_bodies_served;
        Alcotest.test_case "soak: retention flat" `Quick test_soak_retention_flat;
        Alcotest.test_case "starved confirmation" `Quick test_env_starve_conf_loses_liveness_not_safety;
        Alcotest.test_case "delaying environments" `Quick test_env_delay_degrades_only;
        Alcotest.test_case "mute environment" `Quick test_env_mute_is_a_crash;
        Alcotest.test_case "exec enclave crash" `Quick test_exec_enclave_crash_tolerated;
        Alcotest.test_case "single ecall thread" `Quick test_single_thread_mode_functional;
        Alcotest.test_case "corrupt exec within f" `Quick test_corrupt_exec_within_f_masked;
        Alcotest.test_case "corrupt exec beyond f" `Quick test_corrupt_exec_beyond_f_breaks_integrity;
        Alcotest.test_case "leaky exec" `Quick test_leaky_exec_exposes_plaintext;
        Alcotest.test_case "equivocating preparation" `Quick test_equivocating_prep_recovers_via_view_change;
        Alcotest.test_case "sealed ledger blocks" `Quick test_ledger_blocks_sealed_in_storage;
        Alcotest.test_case "newview: preparation checks prepared proofs" `Quick
          test_prep_rejects_forged_prepared_proof;
        Alcotest.test_case "newview: conf/exec check viewchange sigs" `Quick
          test_conf_exec_reject_forged_viewchange;
        Alcotest.test_case "newview: replay commits once" `Quick test_replayed_newview_one_commit;
        Alcotest.test_case "newview: viewchange tallies pruned" `Quick
          test_prep_prunes_viewchange_tallies;
        Alcotest.test_case "checkpoint: one snapshot" `Quick test_one_snapshot_per_checkpoint;
        Alcotest.test_case "checkpoint: image is flat" `Quick test_image_is_flat;
        Alcotest.test_case "checkpoint: oracle history survives restore" `Quick
          test_history_survives_restore;
        Alcotest.test_case "checkpoint: image golden" `Quick test_image_golden;
        Alcotest.test_case "checkpoint: ordering images golden" `Quick
          test_ordering_images_golden;
        Alcotest.test_case "checkpoint log: recovery verdicts" `Quick test_log_recovery_verdicts;
        QCheck_alcotest.to_alcotest prop_log_restores_live_state;
        Alcotest.test_case "checkpoint log: delta bytes independent of the store" `Quick
          test_delta_bytes_independent_of_store;
        Alcotest.test_case "checkpoint log: disk is flat" `Quick test_disk_is_flat ] ) ]
