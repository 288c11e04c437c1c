module Engine = Splitbft_sim.Engine
module Timer = Splitbft_sim.Timer
module Network = Splitbft_sim.Network
module Resource = Splitbft_sim.Resource
module Sha256 = Splitbft_crypto.Sha256
module Registry = Splitbft_obs.Registry

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

(* ----- engine ----- *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  let at delay tag = ignore (Engine.schedule e ~delay ~label:tag (fun () -> log := tag :: !log)) in
  at 30.0 "c";
  at 10.0 "a";
  at 20.0 "b";
  Engine.run e;
  Alcotest.(check (list string)) "fired in time order" [ "a"; "b"; "c" ] (List.rev !log);
  checkf "clock at last event" 30.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule e ~delay:7.0 ~label:"tie" (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties fire in scheduling order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:5.0 ~label:"x" (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  checkb "cancelled never fires" false !fired

let test_engine_pending_accounting () =
  let e = Engine.create () in
  checki "starts empty" 0 (Engine.pending e);
  let a = Engine.schedule e ~delay:5.0 ~label:"a" (fun () -> ()) in
  let b = Engine.schedule e ~delay:6.0 ~label:"b" (fun () -> ()) in
  ignore (Engine.schedule e ~delay:7.0 ~label:"c" (fun () -> ()));
  checki "three scheduled" 3 (Engine.pending e);
  Engine.cancel a;
  checki "cancel decrements immediately" 2 (Engine.pending e);
  Engine.cancel a;
  checki "double cancel is idempotent" 2 (Engine.pending e);
  Engine.run e;
  checki "drains to zero" 0 (Engine.pending e);
  (* Cancelling after the event fired must not corrupt the counter. *)
  Engine.cancel b;
  checki "cancel after fire is a no-op" 0 (Engine.pending e)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:10.0 ~label:"in" (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:100.0 ~label:"out" (fun () -> incr fired));
  Engine.run ~until:50.0 e;
  checki "only events before horizon" 1 !fired;
  checkf "clock advanced to horizon" 50.0 (Engine.now e);
  Engine.run e;
  checki "resumes" 2 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 ~label:"outer" (fun () ->
         ignore
           (Engine.schedule e ~delay:2.0 ~label:"inner" (fun () ->
                times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested at t=3" [ 3.0 ] !times

let test_engine_negative_delay_rejected () =
  let e = Engine.create () in
  checkb "raises" true
    (try
       ignore (Engine.schedule e ~delay:(-1.0) ~label:"bad" (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 ~label:"a" (fun () -> incr fired; raise Engine.Stop));
  ignore (Engine.schedule e ~delay:2.0 ~label:"b" (fun () -> incr fired));
  Engine.run e;
  checki "stopped early" 1 !fired

let test_engine_max_events () =
  let e = Engine.create () in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) ~label:"n" (fun () -> ()))
  done;
  Engine.run ~max_events:4 e;
  checki "only 4 processed" 4 (Engine.events_processed e)

let test_engine_nan_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule bad: NaN delay")
    (fun () -> ignore (Engine.schedule e ~delay:Float.nan ~label:"bad" (fun () -> ())));
  checki "nothing scheduled" 0 (Engine.pending e)

let test_engine_empty () =
  let e = Engine.create () in
  checkb "step on empty" false (Engine.step e);
  Engine.run e;
  checkf "run on empty keeps the clock" 0.0 (Engine.now e);
  Engine.run ~until:25.0 e;
  checkf "run ~until on empty reaches the horizon" 25.0 (Engine.now e);
  checki "nothing fired" 0 (Engine.events_processed e);
  checkb "live_events empty" true (Engine.live_events e = [])

(* A fired event (and whatever its action captured) must be collectable
   while the engine lives on: the queue may not keep a copy in a vacated
   slot. *)
let test_engine_releases_fired_events () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  ignore (Engine.schedule e ~delay:1.0 ~label:"first" (fun () -> ()));
  (let block = Bytes.make 64 'x' in
   Weak.set w 0 (Some block);
   ignore
     (Engine.schedule e ~delay:2.0 ~label:"second" (fun () ->
          ignore (Sys.opaque_identity block))));
  Engine.run e;
  Gc.full_major ();
  checkb "fired event collected" false (Weak.check w 0);
  checki "engine still reachable" 2 (Engine.events_processed (Sys.opaque_identity e))

(* Random schedule / cancel / step / forced-fire sequences against a
   reference list: events fire in (time, seq) order, a forced fire moves
   the clock to the event's time unless that is in the past, and
   [pending] and [live_events] match the reference after every
   [check_every]-th operation and at the end.  [Cancel i] cancels any
   event ever scheduled (fired and cancelled ones included), [Cancel_live
   i] one still pending. *)
type engine_op = Sched of float | Cancel of int | Cancel_live of int | Step | Force of int

let engine_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun d -> Sched (float_of_int d)) (int_bound 5));  (* many ties *)
        (3, map (fun d -> Sched d) (float_bound_inclusive 50.0));
        (2, map (fun i -> Cancel i) nat);
        (3, return Step);
        (1, map (fun i -> Force i) nat) ])

let print_engine_op = function
  | Sched d -> Printf.sprintf "Sched %g" d
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Cancel_live i -> Printf.sprintf "Cancel_live %d" i
  | Step -> "Step"
  | Force i -> Printf.sprintf "Force %d" i

(* Returns whether the engine agreed with the reference, and how many
   events were scheduled and cancelled. *)
let engine_order_holds ?(check_every = 1) ops =
  let e = Engine.create () in
  let fired = ref [] in
  (* Reference: (time, seq, handle) of every live event. *)
  let live = ref [] and handles = Hashtbl.create 64 in
  let next_seq = ref 0 and cancelled = ref 0 in
  let earliest () =
    List.fold_left
      (fun best ((t, s, _) as x) ->
        match best with
        | Some (bt, bs, _) when bt < t || (bt = t && bs < s) -> best
        | _ -> Some x)
      None !live
  in
  let agrees () =
    Engine.pending e = List.length !live
    && List.map Engine.seq_of (Engine.live_events e)
       = List.sort Int.compare (List.map (fun (_, s, _) -> s) !live)
  in
  let cancel h =
    if Engine.is_live h then incr cancelled;
    Engine.cancel h;
    live := List.filter (fun (_, _, h') -> h' != h) !live
  in
  let ok = ref true in
  List.iteri
    (fun n op ->
      (match op with
      | Sched d ->
        let s = !next_seq in
        incr next_seq;
        let h = Engine.schedule e ~delay:d ~label:"p" (fun () -> fired := s :: !fired) in
        live := (Engine.now e +. d, s, h) :: !live;
        Hashtbl.replace handles s h
      | Cancel i -> if !next_seq > 0 then cancel (Hashtbl.find handles (i mod !next_seq))
      | Cancel_live i -> (
        match !live with
        | [] -> ()
        | l ->
          let _, _, h = List.nth l (i mod List.length l) in
          cancel h)
      | Step -> (
        match earliest () with
        | None -> if Engine.step e then ok := false
        | Some (t, s, _) ->
          if not (Engine.step e) then ok := false
          else begin
            (match !fired with x :: _ when x = s -> () | _ -> ok := false);
            if Engine.now e <> t then ok := false;
            live := List.filter (fun (_, s', _) -> s' <> s) !live
          end)
      | Force i -> (
        match Engine.live_events e with
        | [] -> ()
        | evs ->
          let h = List.nth evs (i mod List.length evs) in
          let t, s, _ = List.find (fun (_, _, h') -> h' == h) !live in
          let before = Engine.now e in
          Engine.fire_forced e h;
          (match !fired with x :: _ when x = s -> () | _ -> ok := false);
          if Engine.now e <> Float.max before t then ok := false;
          live := List.filter (fun (_, s', _) -> s' <> s) !live));
      if (n + 1) mod check_every = 0 && not (agrees ()) then ok := false)
    ops;
  if not (agrees ()) then ok := false;
  (* Drain: the rest fires in (time, seq) order. *)
  let expected =
    List.sort
      (fun (t1, s1, _) (t2, s2, _) ->
        let c = Float.compare t1 t2 in
        if c <> 0 then c else Int.compare s1 s2)
      !live
    |> List.map (fun (_, s, _) -> s)
  in
  fired := [];
  Engine.run e;
  ( !ok && List.rev !fired = expected && Engine.pending e = 0 && Engine.live_events e = [],
    !next_seq,
    !cancelled )

let prop_engine_order =
  QCheck.Test.make ~name:"engine fires in (time, seq) order" ~count:300
    QCheck.(make ~print:Print.(list print_engine_op) Gen.(list_size (int_bound 200) engine_op_gen))
    (fun ops ->
      let ok, _, _ = engine_order_holds ops in
      ok)

(* The same property over long runs in which most events are cancelled,
   as suspect and retry timers are: 2,200 schedules, most of them
   cancelled while pending, so the queue repeatedly passes the size at
   which it drops its dead entries. *)
let prop_engine_order_mass_cancel =
  QCheck.Test.make ~name:"engine order holds through mass cancellation" ~count:20
    QCheck.(
      make
        ~print:(fun ops -> Printf.sprintf "%d operations" (List.length ops))
        Gen.(
          let sched =
            oneof
              [ map (fun d -> Sched (float_of_int d)) (int_bound 5);
                map (fun d -> Sched d) (float_bound_inclusive 1000.0) ]
          in
          list_repeat 2200 sched >>= fun scheds ->
          list_repeat 1700 (map (fun i -> Cancel_live i) nat) >>= fun cancels ->
          list_repeat 40 (map (fun i -> Cancel i) nat) >>= fun stale ->
          list_repeat 300 (return Step) >>= fun steps ->
          list_repeat 30 (map (fun i -> Force i) nat) >>= fun forces ->
          shuffle_l (List.concat [ scheds; cancels; stale; steps; forces ])))
    (fun ops ->
      let ok, scheduled, cancelled = engine_order_holds ~check_every:50 ops in
      QCheck.assume (10 * cancelled >= 6 * scheduled);
      ok)

(* An event cancelled while pending must not stay reachable from the
   queue once the queue has dropped its dead entries. *)
let schedule_and_cancel_captured e w =
  let block = Bytes.make 64 'x' in
  Weak.set w 0 (Some block);
  Engine.cancel
    (Engine.schedule e ~delay:1e9 ~label:"captured" (fun () ->
         ignore (Sys.opaque_identity block)))
[@@inline never]

let test_engine_releases_cancelled_events () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  ignore (Engine.schedule e ~delay:5.0 ~label:"live" (fun () -> ()));
  schedule_and_cancel_captured e w;
  let others =
    List.init 1100 (fun i -> Engine.schedule e ~delay:(float_of_int (i + 10)) ~label:"o" ignore)
  in
  List.iter Engine.cancel others;
  Gc.full_major ();
  checkb "cancelled event collected" false (Weak.check w 0);
  checki "one live event" 1 (Engine.pending e);
  Engine.run e;
  checki "only the live event fired" 1 (Engine.events_processed e)

(* ----- timer ----- *)

let test_timer_restart () =
  let e = Engine.create () in
  let fired_at = ref nan in
  let t = Timer.create e ~label:"t" ~delay:10.0 ~callback:(fun () -> fired_at := Engine.now e) in
  Timer.start t;
  ignore (Engine.schedule e ~delay:5.0 ~label:"re" (fun () -> Timer.restart t));
  Engine.run e;
  checkf "restart pushed deadline" 15.0 !fired_at

let test_timer_start_idempotent () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e ~label:"t" ~delay:10.0 ~callback:(fun () -> incr count) in
  Timer.start t;
  ignore (Engine.schedule e ~delay:2.0 ~label:"again" (fun () -> Timer.start t));
  Engine.run e;
  checki "fires once" 1 !count

let test_timer_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e ~label:"t" ~delay:10.0 ~callback:(fun () -> incr count) in
  Timer.start t;
  ignore (Engine.schedule e ~delay:3.0 ~label:"stop" (fun () -> Timer.stop t));
  Engine.run e;
  checki "never fires" 0 !count;
  checkb "not running" false (Timer.is_running t)

(* ----- network ----- *)

let quiet_net = { Network.default_config with Network.jitter_mean_us = 0.0 }

(* The network counts into its engine's registry. *)
let net_count e name =
  int_of_float (Registry.counter_value (Registry.counter (Engine.obs e) name))

let test_network_delivery () =
  let e = Engine.create () in
  let net = Network.create e quiet_net in
  let got = ref [] in
  Network.register net 1 (fun ~src payload -> got := (src, payload) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got;
  checki "stats sent" 1 (net_count e "net.messages_sent");
  checki "stats delivered" 1 (net_count e "net.messages_delivered")

let test_network_unregistered_dropped () =
  let e = Engine.create () in
  let net = Network.create e quiet_net in
  Network.send net ~src:0 ~dst:9 "void";
  Engine.run e;
  checki "nothing delivered" 0 (net_count e "net.messages_delivered")

let test_network_partition_and_heal () =
  let e = Engine.create () in
  let net = Network.create e quiet_net in
  let got = ref 0 in
  Network.register net 1 (fun ~src:_ _ -> incr got);
  Network.partition net [ [ 0 ]; [ 1 ] ];
  Network.send net ~src:0 ~dst:1 "blocked";
  Engine.run e;
  checki "partitioned" 0 !got;
  Network.heal net;
  Network.send net ~src:0 ~dst:1 "flows";
  Engine.run e;
  checki "healed" 1 !got

let test_network_partition_same_side () =
  let e = Engine.create () in
  let net = Network.create e quiet_net in
  let got = ref 0 in
  Network.register net 1 (fun ~src:_ _ -> incr got);
  Network.partition net [ [ 0; 1 ]; [ 2 ] ];
  Network.send net ~src:0 ~dst:1 "same side";
  Engine.run e;
  checki "same side flows" 1 !got

let test_network_filter () =
  let e = Engine.create () in
  let net = Network.create e quiet_net in
  let got = ref [] in
  Network.register net 1 (fun ~src:_ payload -> got := payload :: !got);
  Network.set_filter net
    (Some (fun ~src:_ ~dst:_ payload -> if payload = "drop-me" then Network.Drop else Network.Deliver));
  Network.send net ~src:0 ~dst:1 "drop-me";
  Network.send net ~src:0 ~dst:1 "keep";
  Engine.run e;
  Alcotest.(check (list string)) "filtered" [ "keep" ] !got

let test_network_filter_delay () =
  let e = Engine.create () in
  let net = Network.create e quiet_net in
  let at = ref nan in
  Network.register net 1 (fun ~src:_ _ -> at := Engine.now e);
  Network.set_filter net (Some (fun ~src:_ ~dst:_ _ -> Network.Delay 1000.0));
  Network.send net ~src:0 ~dst:1 "slow";
  Engine.run e;
  checkb "delayed" true (!at > 1000.0)

let test_network_tap_sees_everything () =
  let e = Engine.create () in
  let net = Network.create e quiet_net in
  let tapped = ref 0 in
  Network.set_tap net (Some (fun ~src:_ ~dst:_ _ -> incr tapped));
  Network.set_filter net (Some (fun ~src:_ ~dst:_ _ -> Network.Drop));
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run e;
  checki "tap sees dropped messages" 1 !tapped

let test_network_drop_probability () =
  let e = Engine.create () in
  let net = Network.create e { quiet_net with Network.drop_probability = 1.0 } in
  let got = ref 0 in
  Network.register net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 20 do
    Network.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run e;
  checki "all dropped" 0 !got

let test_network_bandwidth_delay () =
  let e = Engine.create () in
  let cfg =
    { Network.base_delay_us = 10.0;
      jitter_mean_us = 0.0;
      drop_probability = 0.0;
      bandwidth_bytes_per_us = 1.0 }
  in
  let net = Network.create e cfg in
  let at = ref nan in
  Network.register net 1 (fun ~src:_ _ -> at := Engine.now e);
  Network.send net ~src:0 ~dst:1 (String.make 90 'x');
  Engine.run e;
  checkf "base + size/bandwidth" 100.0 !at

(* ----- resource ----- *)

let test_resource_fifo () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  let done_at = ref [] in
  Resource.submit r ~cost:10.0 (fun () -> done_at := ("a", Engine.now e) :: !done_at);
  Resource.submit r ~cost:5.0 (fun () -> done_at := ("b", Engine.now e) :: !done_at);
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "serialized FIFO"
    [ ("a", 10.0); ("b", 15.0) ]
    (List.rev !done_at);
  checkf "busy time" 15.0 (Resource.busy_time r)

let test_resource_idle_gap () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  let at = ref nan in
  ignore
    (Engine.schedule e ~delay:100.0 ~label:"later" (fun () ->
         Resource.submit r ~cost:5.0 (fun () -> at := Engine.now e)));
  Engine.run e;
  checkf "starts when submitted" 105.0 !at

let test_pool_parallelism () =
  let e = Engine.create () in
  let p = Resource.Pool.create e ~name:"w" ~workers:2 in
  let done_at = ref [] in
  for _ = 1 to 4 do
    Resource.Pool.submit p ~cost:10.0 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  Engine.run e;
  (* Two workers: jobs finish at 10,10,20,20. *)
  Alcotest.(check (list (float 1e-9))) "two at a time" [ 10.0; 10.0; 20.0; 20.0 ]
    (List.sort compare !done_at)

let test_resource_negative_cost () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  checkb "rejected" true
    (try
       Resource.submit r ~cost:(-1.0) (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* ----- determinism ----- *)

(* A digest of every delivery: its time, source and payload, in order. *)
let trace_of_run seed =
  let e = Engine.create ~seed () in
  let net = Network.create e Network.default_config in
  let trace = Sha256.init () in
  for node = 0 to 3 do
    Network.register net node (fun ~src payload ->
        Sha256.update trace
          (Printf.sprintf "%h %d %d:%s" (Engine.now e) src (String.length payload) payload))
  done;
  let rng = Engine.rng e in
  for i = 0 to 200 do
    let src = i mod 4 and dst = (i + 1 + Splitbft_util.Rng.int rng 3) mod 4 in
    ignore
      (Engine.schedule e
         ~delay:(Splitbft_util.Rng.float rng 1000.0)
         ~label:"send"
         (fun () -> Network.send net ~src ~dst (Printf.sprintf "m%d" i)))
  done;
  Engine.run e;
  Sha256.finalize trace

let test_determinism_same_seed () =
  Alcotest.(check string) "same seed, same trace" (trace_of_run 42L) (trace_of_run 42L)

let test_determinism_different_seed () =
  checkb "different seed, different trace" false
    (String.equal (trace_of_run 42L) (trace_of_run 43L))

let prop_determinism =
  QCheck.Test.make ~name:"simulation deterministic for any seed" ~count:20 QCheck.int64
    (fun seed -> String.equal (trace_of_run seed) (trace_of_run seed))

let suites =
  [ ( "sim",
      [ Alcotest.test_case "time order" `Quick test_engine_time_order;
        Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "pending accounting" `Quick test_engine_pending_accounting;
        Alcotest.test_case "until horizon" `Quick test_engine_until;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_rejected;
        Alcotest.test_case "stop exception" `Quick test_engine_stop;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
        Alcotest.test_case "NaN delay" `Quick test_engine_nan_delay_rejected;
        Alcotest.test_case "empty engine" `Quick test_engine_empty;
        Alcotest.test_case "fired events released" `Quick test_engine_releases_fired_events;
        QCheck_alcotest.to_alcotest prop_engine_order;
        QCheck_alcotest.to_alcotest prop_engine_order_mass_cancel;
        Alcotest.test_case "cancelled events released" `Quick test_engine_releases_cancelled_events;
        Alcotest.test_case "timer restart" `Quick test_timer_restart;
        Alcotest.test_case "timer start idempotent" `Quick test_timer_start_idempotent;
        Alcotest.test_case "timer stop" `Quick test_timer_stop;
        Alcotest.test_case "net delivery" `Quick test_network_delivery;
        Alcotest.test_case "net unregistered" `Quick test_network_unregistered_dropped;
        Alcotest.test_case "net partition/heal" `Quick test_network_partition_and_heal;
        Alcotest.test_case "net partition same side" `Quick test_network_partition_same_side;
        Alcotest.test_case "net filter drop" `Quick test_network_filter;
        Alcotest.test_case "net filter delay" `Quick test_network_filter_delay;
        Alcotest.test_case "net tap" `Quick test_network_tap_sees_everything;
        Alcotest.test_case "net drop prob" `Quick test_network_drop_probability;
        Alcotest.test_case "net bandwidth" `Quick test_network_bandwidth_delay;
        Alcotest.test_case "resource fifo" `Quick test_resource_fifo;
        Alcotest.test_case "resource idle gap" `Quick test_resource_idle_gap;
        Alcotest.test_case "pool parallelism" `Quick test_pool_parallelism;
        Alcotest.test_case "resource negative cost" `Quick test_resource_negative_cost;
        Alcotest.test_case "determinism same seed" `Quick test_determinism_same_seed;
        Alcotest.test_case "determinism diff seed" `Quick test_determinism_different_seed;
        QCheck_alcotest.to_alcotest prop_determinism ] ) ]
