(* Regression and unit coverage for the multi-lane pipeline, the
   Execution worker pool, and the hot-path ordering bugfixes that shipped
   with them:

   - the Preparation primary used to drop batches arriving against a full
     watermark window instead of parking them (leader stall at the
     window edge);
   - the broker's primary-side inflight table used to suppress client
     retransmits forever once a batch was lost, because entries were only
     cleared by a reply or a view change (inflight-suppression leak);
   - [Execution] used to order commit seqnos with polymorphic [compare]
     over tuples, which inspects payload bytes on seqno ties instead of
     being a pure seqno order ([Log.by_seqno]).

   Each scenario fails on the pre-fix code and passes now. *)

module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Registry = Splitbft_obs.Registry
module Replica = Splitbft_core.Replica
module Config = Splitbft_core.Config
module Broker = Splitbft_core.Broker
module Preparation = Splitbft_core.Preparation
module Log = Splitbft_consensus.Log
module Ids = Splitbft_types.Ids
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

type cluster = {
  engine : Engine.t;
  net : Network.t;
  obs : Registry.t;
  replicas : Replica.t list;
}

let make ?(seed = 5L) ?(lanes = 1) ?(workers = 1) ?(watermark_window = 1024)
    ?(checkpoint_interval = 64) ?(suspect_timeout_us = 200_000.0) () =
  let obs = Registry.create () in
  let engine = Engine.create ~obs ~seed () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init 4 (fun i ->
        Replica.create engine net
          { (Config.default ~n:4 ~id:i) with
            Config.lanes;
            exec_workers = workers;
            watermark_window;
            checkpoint_interval;
            suspect_timeout_us;
            viewchange_timeout_us = suspect_timeout_us *. 2.0 }
          ~app:(fun () -> Kvs.create ()))
  in
  { engine; net; obs; replicas }

(* Drive an explicit op list; [on_ready] runs after the handshake but
   before the first submission (fault-injection hook). *)
let drive ?(until = 10_000_000.0) ?(window = 1) ?(on_ready = fun () -> ()) c ops
    =
  let results = Array.make (List.length ops) "<none>" in
  let completed = ref 0 in
  let cl =
    Client.create c.engine c.net
      { (Client.default_config (Client.Splitbft { ready_quorum = 4 }) ~n:4 ~id:0)
        with
        Client.window;
        retry_timeout_us = 300_000.0 }
  in
  Client.start cl ~on_ready:(fun () ->
      on_ready ();
      List.iteri
        (fun i op ->
          Client.submit cl ~op:(Kvs.encode_op op)
            ~on_result:(fun ~latency_us:_ ~result ->
              incr completed;
              results.(i) <- result))
        ops);
  Engine.run ~until c.engine;
  (!completed, results)

let puts n = List.init n (fun i -> Kvs.Put (Printf.sprintf "k%d" i, "v"))

(* ----- satellite 1: leader stall at the watermark edge ----- *)

(* A client window wider than the watermark window forces the primary to
   accept batches it cannot issue yet.  Pre-fix these were silently
   dropped and — with suspicion effectively off — the excess ops never
   completed.  Post-fix they park and drain as checkpoints stabilise. *)
let test_watermark_stall_drains () =
  let c =
    make ~lanes:4 ~watermark_window:8 ~checkpoint_interval:4
      ~suspect_timeout_us:60_000_000.0 ()
  in
  let max_parked = ref 0 in
  let primary = List.nth c.replicas 0 in
  (* The parking spike lives between the batch burst and the first
     checkpoint stabilization — sample densely while it can happen. *)
  let rec sample () =
    let p = (Replica.prep_probe primary).Preparation.parked () in
    if p > !max_parked then max_parked := p;
    if Engine.now c.engine < 20_000.0 then
      ignore (Engine.schedule c.engine ~delay:50.0 ~label:"sample-parked" sample)
  in
  ignore (Engine.schedule c.engine ~delay:50.0 ~label:"sample-parked" sample);
  let completed, _ = drive ~window:16 c (puts 30) in
  checki "all ops complete past the window edge" 30 completed;
  checkb "the parking path was exercised" true (!max_parked > 0);
  checki "nothing left parked" 0
    ((Replica.prep_probe primary).Preparation.parked ());
  checkb "no view change was needed" true (Replica.view primary = 0)

(* ----- satellite 2: inflight-suppression leak ----- *)

(* The primary's Preparation enclave is starved just before the only
   request is batched, so the batch is lost after the broker marked the
   request inflight.  The fault clears shortly after, but pre-fix the
   inflight entry suppressed every retransmit forever (suspicion is
   effectively off, so no view change flushes the table) and the op never
   committed.  Post-fix the entry ages out after [inflight_ttl_us] and
   the next retransmit is re-driven. *)
let test_inflight_ttl_evicts_stale_suppression () =
  let c = make ~suspect_timeout_us:60_000_000.0 () in
  let primary = List.nth c.replicas 0 in
  let completed, results =
    drive ~until:10_000_000.0
      ~on_ready:(fun () ->
        Replica.set_env_fault primary (Broker.Env_starve Ids.Preparation);
        ignore
          (Engine.schedule c.engine ~delay:450_000.0 ~label:"heal" (fun () ->
               Replica.set_env_fault primary Broker.Env_honest)))
      c
      [ Kvs.Put ("k", "v") ]
  in
  checki "retransmit eventually commits" 1 completed;
  checks "reply is the real execution result" Kvs.ok results.(0);
  checkb "no view change was needed" true (Replica.view primary = 0)

(* ----- satellite 3: seqno ordering must not inspect payloads ----- *)

let test_by_seqno_is_a_pure_seqno_order () =
  let l = [ (5, "b"); (5, "a"); (3, "z") ] in
  checkb "ties keep arrival order" true
    (List.stable_sort Log.by_seqno l = [ (3, "z"); (5, "b"); (5, "a") ]);
  (* The pre-fix polymorphic [compare] is not seqno order: it breaks the
     tie on payload bytes... *)
  checkb "polymorphic compare reorders the tie" true
    (List.sort compare l = [ (3, "z"); (5, "a"); (5, "b") ]);
  (* ...and is not even defined for payloads without a structural order. *)
  let closures = [ (1, fun () -> 1); (1, fun () -> 2) ] in
  (match
     try `Sorted (List.stable_sort Log.by_seqno closures)
     with Invalid_argument _ -> `Raised
   with
  | `Sorted [ (1, f); (1, g) ] -> checki "stable on closures" 3 (f () + g ())
  | _ -> Alcotest.fail "by_seqno must not inspect payloads");
  (match
     try
       ignore (List.sort compare closures);
       `Sorted
     with Invalid_argument _ -> `Raised
   with
  | `Raised -> ()
  | `Sorted -> Alcotest.fail "expected polymorphic compare to raise on closures")

(* ----- lanes: issuance across a view change ----- *)

(* After the primary crashes mid-stream with four lanes in flight, the
   survivors move to a new view and its primary issues the rest. *)
let test_lane_cursors_realign_after_view_change () =
  let c = make ~lanes:4 ~checkpoint_interval:8 () in
  let completed, _ =
    drive ~window:4
      ~on_ready:(fun () ->
        (* Mid-stream, after a prefix has committed in view 0. *)
        ignore
          (Engine.schedule c.engine ~delay:1_000.0 ~label:"crash" (fun () ->
               Replica.crash_host (List.nth c.replicas 0))))
      c (puts 30)
  in
  checki "all ops complete across the view change" 30 completed;
  List.iteri
    (fun i r -> if i > 0 then checkb "view changed" true (Replica.view r >= 1))
    c.replicas

(* ----- worker pool: conflicts serialise, merge is deterministic ----- *)

let hot n =
  List.init n (fun i ->
      if i mod 4 = 3 then Kvs.Get "hot"
      else Kvs.Put ("hot", "v" ^ string_of_int i))

(* With the arrival order pinned (client window 1), the worker pool must
   not change a single reply byte, the executed log, or the final state
   relative to the single-worker pipeline: pool scheduling moves cost and
   delivery timing, never state transitions. *)
let test_pool_merge_is_deterministic () =
  let run workers =
    let c = make ~lanes:4 ~workers ~checkpoint_interval:8 () in
    let completed, results = drive ~window:1 c (hot 30) in
    checki "all ops complete" 30 completed;
    (c, results)
  in
  let serial, serial_results = run 1 in
  let pooled, pooled_results = run 4 in
  checkb "pool actually ran tasks" true
    (Registry.sum pooled.obs ~prefix:"tee.pool_tasks" > 0.0);
  Array.iteri
    (fun i r -> checks (Printf.sprintf "reply %d identical" i) r pooled_results.(i))
    serial_results;
  List.iter2
    (fun a b ->
      checks "final state identical" (Replica.app_digest a) (Replica.app_digest b);
      checkb "executed logs identical" true
        (Replica.executed_log a = Replica.executed_log b))
    serial.replicas pooled.replicas

(* A deep client window over a single hot key makes consecutive batches
   write-write conflict while they overlap in the pool: the hazard
   detection must fire and the replicas must still agree. *)
let test_pool_conflicts_serialise () =
  let c = make ~lanes:4 ~workers:4 ~checkpoint_interval:8 () in
  let completed, _ = drive ~window:8 c (hot 40) in
  checki "all ops complete" 40 completed;
  checkb "pool actually ran tasks" true
    (Registry.sum c.obs ~prefix:"tee.pool_tasks" > 0.0);
  checkb "write-write hazards were detected" true
    (Registry.sum c.obs ~prefix:"tee.pool_conflict_waits" > 0.0);
  (match List.map Replica.app_digest c.replicas with
  | d :: rest -> List.iter (fun d' -> checks "replicas agree" d d') rest
  | [] -> assert false)

let suites =
  [ ( "lanes",
      [
        Alcotest.test_case "watermark edge: parked batches drain" `Quick
          test_watermark_stall_drains;
        Alcotest.test_case "inflight TTL evicts stale suppression" `Quick
          test_inflight_ttl_evicts_stale_suppression;
        Alcotest.test_case "by_seqno is a pure seqno order" `Quick
          test_by_seqno_is_a_pure_seqno_order;
        Alcotest.test_case "lane cursors realign after view change" `Quick
          test_lane_cursors_realign_after_view_change;
        Alcotest.test_case "pool merge is deterministic" `Quick
          test_pool_merge_is_deterministic;
        Alcotest.test_case "pool conflicts serialise" `Quick
          test_pool_conflicts_serialise;
      ] ) ]
