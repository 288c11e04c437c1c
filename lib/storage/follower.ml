module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Resource = Splitbft_sim.Resource
module Registry = Splitbft_obs.Registry
module Message = Splitbft_types.Message
module Addr = Splitbft_types.Addr
module Votes = Splitbft_consensus.Votes
module State_machine = Splitbft_app.State_machine

type t = {
  engine : Engine.t;
  net : Network.t;
  fid : int;
  f : int;
  n : int;
  sealed : bool;
  lag_bound : int;
  resubscribe_every : float;
  read_service_us : float;
  res : Resource.t;  (* the follower's single serial service context *)
  app : State_machine.t;
  votes : (int, string * Entry.t) Votes.t;  (* seq -> (content digest, entry) *)
  pending : (int, Entry.t) Hashtbl.t;  (* vouched, waiting for the prefix *)
  applied_log : (int, string) Hashtbl.t;
  tips : (int, int) Hashtbl.t;  (* replica -> advertised tip *)
  mutable applied : int;
  mutable reads : int;
  mutable stale_refused : int;
  mutable entries_applied : int;
  mutable stopped : bool;
  g_applied : Registry.gauge;
  g_lag : Registry.gauge;
  c_reads : Registry.counter;
  c_stale : Registry.counter;
  c_applied : Registry.counter;
}

let stale_result = "STALE"
let bad_op_result = "REFUSED"

(* The (f+1)-th largest advertised tip: at least one of f+1 distinct
   replicas is honest, so this is a height the cluster genuinely
   committed — the reference point for staleness. *)
let vouched_tip t =
  let tips = Hashtbl.fold (fun _ v acc -> v :: acc) t.tips [] in
  Option.value ~default:0 (Splitbft_consensus.Catchup.vouched ~f:t.f Int.compare tips)

let lag t = max 0 (vouched_tip t - t.applied)

let update_gauges t =
  Registry.set t.g_applied (float_of_int t.applied);
  Registry.set t.g_lag (float_of_int (lag t))

let apply_entry t (e : Entry.t) =
  let blob = if t.sealed then Entry.open_ops ~seq:e.seq e.ops else Ok e.ops in
  (match blob with
  | Error _ -> ()  (* unreachable past an honest vouch; drop defensively *)
  | Ok blob -> (
    match Entry.decode_ops blob with
    | Error _ -> ()
    | Ok ops -> List.iter (fun op -> ignore (t.app.State_machine.apply op)) ops));
  t.applied <- e.seq;
  Hashtbl.replace t.applied_log e.seq e.digest;
  t.entries_applied <- t.entries_applied + 1;
  Registry.incr t.c_applied

let rec apply_ready t =
  match Hashtbl.find_opt t.pending (t.applied + 1) with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.pending e.seq;
    apply_entry t e;
    apply_ready t

let on_feed t (lf : Message.ledger_feed) =
  let r = lf.lf_replica in
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.tips r) in
  Hashtbl.replace t.tips r (max prev lf.lf_tip);
  List.iter
    (fun record ->
      match Entry.decode_record record with
      | Error _ -> ()
      | Ok (e, _chain) ->
        if e.seq > t.applied && not (Hashtbl.mem t.pending e.seq) then begin
          let cd = Entry.content_digest e in
          ignore (Votes.add t.votes ~key:e.seq ~sender:r (cd, e));
          let matching =
            List.filter (fun (d, _) -> String.equal d cd) (Votes.get t.votes e.seq)
          in
          (* Install only once f+1 distinct replicas fed byte-identical
             entry content — the records are unsigned, so agreement is
             what makes them trustworthy (same rule as state transfer). *)
          if List.length matching >= t.f + 1 then begin
            Hashtbl.replace t.pending e.seq e;
            Votes.remove t.votes e.seq
          end
        end)
    lf.lf_records;
  apply_ready t;
  update_gauges t

let reply t ~client ~ts ~result =
  let m =
    Message.Read_reply
      { rd_follower = t.fid;
        rd_client = client;
        rd_ts = ts;
        rd_seq = t.applied;
        rd_lag = lag t;
        rd_result = result }
  in
  Network.send t.net ~src:(Addr.follower t.fid) ~dst:(Addr.client client) (Message.encode m)

let serve_read t (rr : Message.read_request) =
  t.reads <- t.reads + 1;
  Registry.incr t.c_reads;
  let op =
    if t.sealed then
      match Entry.open_read_op ~client:rr.rr_client ~ts:rr.rr_ts rr.rr_op with
      | Ok op -> Some op
      | Error _ -> None
    else Some rr.rr_op
  in
  match op with
  | None -> reply t ~client:rr.rr_client ~ts:rr.rr_ts ~result:bad_op_result
  | Some op ->
    let rw = t.app.State_machine.classify op in
    if rw.State_machine.writes <> [] then
      (* Followers never mutate state: writes belong on the quorum path. *)
      reply t ~client:rr.rr_client ~ts:rr.rr_ts ~result:bad_op_result
    else if lag t > t.lag_bound then begin
      t.stale_refused <- t.stale_refused + 1;
      Registry.incr t.c_stale;
      reply t ~client:rr.rr_client ~ts:rr.rr_ts ~result:stale_result
    end
    else begin
      let result = t.app.State_machine.apply op in
      let result =
        if t.sealed then Entry.seal_read_result ~client:rr.rr_client ~ts:rr.rr_ts result
        else result
      in
      reply t ~client:rr.rr_client ~ts:rr.rr_ts ~result
    end

(* A follower is one serial service context: reads queue FIFO and each
   pays [read_service_us] of service (decode, staleness check, apply,
   result sealing).  This finite per-follower capacity is what makes
   read throughput scale with follower count instead of one follower
   absorbing any offered load for free. *)
let on_read t (rr : Message.read_request) =
  Resource.submit t.res ~cost:t.read_service_us (fun () ->
      if not t.stopped then serve_read t rr)

let subscribe_all t =
  for r = 0 to t.n - 1 do
    Network.send t.net ~src:(Addr.follower t.fid) ~dst:(Addr.replica r)
      (Message.encode
         (Message.Ledger_subscribe { lsu_follower = t.fid; lsu_from = t.applied + 1 }))
  done

let on_payload t ~src:_ payload =
  if not t.stopped then
    match Message.decode payload with
    | Ok (Message.Ledger_feed lf) -> on_feed t lf
    | Ok (Message.Read_request rr) -> on_read t rr
    | Ok _ | Error _ -> ()

let rec tick t =
  if not t.stopped then begin
    subscribe_all t;
    update_gauges t;
    ignore
      (Engine.schedule t.engine ~delay:t.resubscribe_every ~label:"follower-resubscribe"
         (fun () -> tick t))
  end

let create ?(lag_bound = 64) ?(resubscribe_every = 200_000.0) ?(read_service_us = 100.0)
    engine net ~fid ~f ~n ~sealed ~app =
  let reg = Engine.obs engine in
  let labels = [ ("follower", string_of_int fid) ] in
  let t =
    { engine;
      net;
      fid;
      f;
      n;
      sealed;
      lag_bound;
      resubscribe_every;
      read_service_us;
      res = Resource.create engine ~name:(Printf.sprintf "follower%d" fid);
      app;
      votes = Votes.create ~size:128 ();
      pending = Hashtbl.create 128;
      applied_log = Hashtbl.create 1024;
      tips = Hashtbl.create 8;
      applied = 0;
      reads = 0;
      stale_refused = 0;
      entries_applied = 0;
      stopped = false;
      g_applied = Registry.gauge reg ~labels "follower.applied_seq";
      g_lag = Registry.gauge reg ~labels "follower.lag";
      c_reads = Registry.counter reg ~labels "follower.reads";
      c_stale = Registry.counter reg ~labels "follower.reads_stale_refused";
      c_applied = Registry.counter reg ~labels "follower.entries_applied" }
  in
  Network.register net (Addr.follower fid) (on_payload t);
  tick t;
  t

let stop t =
  t.stopped <- true;
  Resource.quiesce t.res;
  Network.unregister t.net (Addr.follower t.fid)

let fid t = t.fid
let applied t = t.applied
let reads_served t = t.reads
let stale_refused t = t.stale_refused
let entries_applied t = t.entries_applied

let applied_log t =
  Hashtbl.fold (fun s d acc -> (s, d) :: acc) t.applied_log []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let app_digest t = State_machine.digest t.app
