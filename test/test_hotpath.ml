(* Hot-path layer tests: the bounded LRU underneath the broker's reply
   cache, and — the load-bearing property — that the shipping replica
   (reply cache, inflight suppression, PrePrepare body elision and
   cheap-checks-first verification) stays correct under fault schedules
   that include view changes, crash recovery and lossy links: no wrong
   client result, progress, and prefix agreement of first executions
   across every pair of replicas. *)

module Lru = Splitbft_util.Lru.Make (Splitbft_util.Htbl.String)
module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module S = Splitbft_core.Replica
module Sconfig = Splitbft_core.Config
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs

let checkb msg = Alcotest.(check bool) msg
let checki msg = Alcotest.(check int) msg

(* ----- LRU: bound, eviction order, promotion ----- *)

let test_lru_bound_and_eviction () =
  let c = Lru.create ~capacity:3 in
  for i = 1 to 5 do
    Lru.add c (string_of_int i) i
  done;
  checki "bounded" 3 (Lru.length c);
  checkb "oldest evicted" true (Lru.find c "1" = None && Lru.find c "2" = None);
  checkb "newest kept" true
    (Lru.find c "3" = Some 3 && Lru.find c "4" = Some 4 && Lru.find c "5" = Some 5)

let test_lru_promotion () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* Touch "a" so "b" becomes the eviction victim. *)
  checkb "hit" true (Lru.find c "a" = Some 1);
  Lru.add c "d" 4;
  checkb "promoted key survives" true (Lru.find c "a" = Some 1);
  checkb "lru victim evicted" true (Lru.find c "b" = None);
  (* Overwriting an existing key must not grow the map or evict. *)
  Lru.add c "c" 33;
  checki "overwrite keeps length" 3 (Lru.length c);
  checkb "overwrite visible" true (Lru.find c "c" = Some 33)

let test_lru_capacity_zero () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  checki "never stores" 0 (Lru.length c);
  checkb "always misses" true (Lru.find c "a" = None);
  checkb "negative rejected" true
    (match Lru.create ~capacity:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_lru_clear_keeps_stats () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  ignore (Lru.find c "a");
  ignore (Lru.find c "zzz");
  let h, m = (Lru.hits c, Lru.misses c) in
  Lru.clear c;
  checki "emptied" 0 (Lru.length c);
  checki "hits survive clear" h (Lru.hits c);
  checki "misses survive clear" m (Lru.misses c);
  checkb "entries gone" true (Lru.find c "a" = None)

(* ----- LRU vs a naive reference model -----

   The model is an association list in most-recently-used order; [add]
   re-fronts and truncates, [find] re-fronts.  Every lookup result must
   match, for arbitrary op sequences over a small key space (so
   collisions, overwrites and evictions all actually happen). *)

let model_add cap l k v =
  let l = List.remove_assoc k l in
  let l = (k, v) :: l in
  if List.length l > cap then List.filteri (fun i _ -> i < cap) l else l

let model_find l k =
  match List.assoc_opt k l with
  | None -> (l, None)
  | Some v -> ((k, v) :: List.remove_assoc k l, Some v)

let prop_lru_matches_model =
  QCheck.Test.make ~name:"lru agrees with naive model" ~count:200
    QCheck.(
      pair (1 -- 4) (small_list (pair bool (0 -- 5))))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      let model = ref [] in
      List.for_all
        (fun (is_add, k) ->
          let key = string_of_int k in
          if is_add then begin
            Lru.add c key k;
            model := model_add cap !model key k;
            Lru.length c = List.length !model
          end
          else begin
            let m, expect = model_find !model key in
            model := m;
            Lru.find c key = expect
          end)
        ops)

(* ----- seeded SplitBFT runs under faults -----

   Chaos-style direct deployment (no harness) so the fault schedule is an
   explicit knob. *)

(* A replica's executed digests in seq order, keeping only the first
   execution of each digest, keyed by rank: seq minus the re-executions
   dropped before it.  [Preparation.enter_view] lets a view change order a
   dead view's batch again (Execution deduplicates its requests), and
   timing decides whether that happens, so such a repeat may appear at
   one replica and not another, but not change which operations run or in
   what order. *)
let first_executions log =
  let ranks = Hashtbl.create 64 and seen = Hashtbl.create 64 and dropped = ref 0 in
  List.iter
    (fun (seq, d) ->
      if Hashtbl.mem seen d then incr dropped
      else begin
        Hashtbl.add seen d ();
        Hashtbl.replace ranks (seq - !dropped) d
      end)
    log;
  ranks

type outcome = {
  wrong : int;  (* client results that differed from the app's answer *)
  completed : int;  (* client results accepted *)
  ready : bool;  (* the client's session handshake completed *)
  logs : (int, string) Hashtbl.t list;  (* per replica: {!first_executions} *)
}

let requests = 24

let run_splitbft ~seed ~crash_primary ~restart ~drop_prob =
  let engine = Engine.create ~seed () in
  let net =
    Network.create engine
      { Network.default_config with Network.drop_probability = drop_prob }
  in
  let n = 4 in
  let replicas =
    List.init n (fun id ->
        S.create engine net
          { (Sconfig.default ~n ~id) with
            Sconfig.suspect_timeout_us = 150_000.0;
            viewchange_timeout_us = 300_000.0 }
          ~app:(fun () -> Kvs.create ()))
  in
  if crash_primary then begin
    ignore
      (Engine.schedule engine ~delay:120_000.0 ~label:"hotpath-crash" (fun () ->
           S.crash_host (List.nth replicas 0)));
    if restart then
      ignore
        (Engine.schedule engine ~delay:620_000.0 ~label:"hotpath-restart" (fun () ->
             S.restart_host (List.nth replicas 0)))
  end;
  let wrong = ref 0 and completed = ref 0 in
  let cl =
    Client.create engine net
      { (Client.default_config (Client.Splitbft { ready_quorum = 3 }) ~n ~id:0) with
        Client.retry_timeout_us = 200_000.0 }
  in
  let submit_wave lo hi =
    for i = lo to hi do
      Client.submit cl
        ~op:(Kvs.encode_op (Kvs.Put (Printf.sprintf "k%d" i, "v")))
        ~on_result:(fun ~latency_us:_ ~result ->
          incr completed;
          if not (String.equal result Kvs.ok) then incr wrong)
    done
  in
  Client.start cl ~on_ready:(fun () -> submit_wave 1 (requests / 2));
  (* A second wave lands after the crash point so a dead primary leaves
     requests unanswered — otherwise suspicion never fires and the crash
     schedule degenerates to the fault-free one. *)
  ignore
    (Engine.schedule engine ~delay:200_000.0 ~label:"hotpath-wave2" (fun () ->
         submit_wave ((requests / 2) + 1) requests));
  Engine.run ~until:1_600_000.0 engine;
  { wrong = !wrong;
    completed = !completed;
    ready = Client.is_ready cl;
    logs = List.map (fun r -> first_executions (S.executed_log r)) replicas }

(* Every rank two replicas both executed must carry the same digest. *)
let pairwise_agreement logs =
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
        logs)
    logs

(* ----- fault property -----

   For arbitrary seeds and fault schedules (fault-free, view change,
   crash-recovery, lossy links): zero wrong client results, progress, and
   pairwise prefix agreement of first executions across all replicas.
   Progress means the client got results back.  The client does not
   retransmit its session handshake, so on a lossy link a run can lose
   it and never submit; such a run has nothing to make progress on. *)

type plan = {
  seed : int64;
  crash_primary : bool;
  restart : bool;
  drop_prob : float;
}

let plan_gen =
  QCheck.Gen.(
    map
      (fun (seed, crash, restart, drop) ->
        { seed = Int64.of_int seed;
          crash_primary = crash = 0;
          restart = restart = 0;
          drop_prob = float_of_int drop /. 1000.0 })
      (tup4 (1 -- 10_000) (0 -- 2) (0 -- 1) (0 -- 20)))

let plan_print p =
  Printf.sprintf "seed=%Ld crash=%b restart=%b drop=%.3f" p.seed p.crash_primary
    p.restart p.drop_prob

let qcheck_count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 6)
  | None -> 6

let safe_and_live p =
  let o =
    run_splitbft ~seed:p.seed ~crash_primary:p.crash_primary ~restart:p.restart
      ~drop_prob:p.drop_prob
  in
  o.wrong = 0 && ((not o.ready) || o.completed > 0) && pairwise_agreement o.logs

let prop_safe_and_live =
  QCheck.Test.make ~name:"faulty runs stay safe and live" ~count:qcheck_count
    (QCheck.make ~print:plan_print plan_gen)
    safe_and_live

(* Plans under which a view change orders a dead view's batch digest a
   second time at some replicas. *)
let reordered_digest_plans =
  [ { seed = 8943L; crash_primary = true; restart = true; drop_prob = 0.006 };
    { seed = 1285L; crash_primary = true; restart = true; drop_prob = 0.011 };
    { seed = 1396L; crash_primary = true; restart = false; drop_prob = 0.014 } ]

let test_reordered_digest p () = checkb "safe and live" true (safe_and_live p)

let suites =
  [ ( "hotpath",
      [ Alcotest.test_case "lru bound and eviction" `Quick test_lru_bound_and_eviction;
        Alcotest.test_case "lru promotion" `Quick test_lru_promotion;
        Alcotest.test_case "lru capacity zero" `Quick test_lru_capacity_zero;
        Alcotest.test_case "lru clear keeps stats" `Quick test_lru_clear_keeps_stats;
        QCheck_alcotest.to_alcotest prop_lru_matches_model;
        QCheck_alcotest.to_alcotest ~long:true prop_safe_and_live ]
      @ List.map
          (fun p ->
            Alcotest.test_case ("re-ordered digest " ^ plan_print p) `Quick
              (test_reordered_digest p))
          reordered_digest_plans ) ]
