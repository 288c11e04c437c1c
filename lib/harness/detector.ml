module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Health = Splitbft_obs.Health
module Flight = Splitbft_obs.Flight
module Message = Splitbft_types.Message
module Addr = Splitbft_types.Addr
module Proto = Splitbft_proto.Protocol_intf
module Follower = Splitbft_storage.Follower

type alert = { rule : string; replica : int; at : float; detail : string }

type config = {
  sample_interval_us : float;
  health_window : int;
  stale_margin_us : float;
  retx_threshold : int;
  stall_samples : int;
  lag_window : int option;
  max_alerts : int;
}

let default_config =
  { sample_interval_us = 250_000.0;
    health_window = 16;
    stale_margin_us = 200_000.0;
    retx_threshold = 10;
    stall_samples = 3;
    lag_window = None;
    max_alerts = 256 }

let rules =
  [ "equivocation";
    "digest-mismatch";
    "premature-commit";
    "duplicate-flood";
    "stale-proof";
    "checkpoint-mismatch";
    "confidentiality-leak";
    "vote-divergence";
    "prefix-lag";
    "disagreement";
    "retx-storm";
    "quorum-stall";
    "follower-straggler" ]

type t = {
  cluster : Cluster.t;
  cfg : config;
  engine : Engine.t;
  n : int;
  f : int;
  wire : bool;  (* payloads use the shared Message codec *)
  leak : bool;  (* the protocol claims confidentiality *)
  lossless : bool;  (* network drops disabled: stale-proof is sound *)
  health : Health.t;
  mutable alerts_rev : alert list;
  mutable alert_count : int;
  seen : (string, unit) Hashtbl.t;  (* "rule@replica" dedup *)
  (* --- wire-rule state --- *)
  proposals : (int * int * int, string) Hashtbl.t;
      (* (sender, view, seq) -> first proposal digest *)
  prepares_to : (int * int * int, int list ref) Hashtbl.t;
      (* (view, seq, dst replica) -> senders of prepares delivered there *)
  commits_seen : (int * int * int, unit) Hashtbl.t;
  flood : (string, unit) Hashtbl.t;  (* src>dst:payload already seen once *)
  ckpt_votes : (int, (string * int list ref) list ref) Hashtbl.t;
      (* seq -> per-digest checkpoint senders *)
  mutable certs : (int * string * float) list;
      (* wire-complete checkpoint certificates: (seq, digest, at) *)
  excused : (int, unit) Hashtbl.t;  (* crashed/restarted replicas *)
  (* --- health-rule state --- *)
  mutable last_exec_total : int;
  mutable last_max_view : int;
  mutable suspect_anchor : float;  (* suspicion total at last progress *)
  mutable stall_count : int;
}

let quorum t = (2 * t.f) + 1

let describe a =
  Printf.sprintf "%s@%s t=%.1fms%s" a.rule
    (if a.replica >= 0 then string_of_int a.replica else "*")
    (a.at /. 1_000.0)
    (if a.detail = "" then "" else " " ^ a.detail)

let raise_alert t ~rule ~replica detail =
  let key = rule ^ "@" ^ string_of_int replica in
  if (not (Hashtbl.mem t.seen key)) && t.alert_count < t.cfg.max_alerts then begin
    Hashtbl.add t.seen key ();
    let a = { rule; replica; at = Engine.now t.engine; detail } in
    t.alerts_rev <- a :: t.alerts_rev;
    t.alert_count <- t.alert_count + 1;
    Engine.flight_record t.engine
      ~host:(if replica >= 0 then Addr.replica replica else -1)
      ~kind:"alert"
      ~detail:(if detail = "" then rule else rule ^ " " ^ detail)
  end

let excused t r = Hashtbl.mem t.excused r

(* ---------- wire rules ---------- *)

let note_proposal t ~sender ~view ~seq ~digest =
  match Hashtbl.find_opt t.proposals (sender, view, seq) with
  | None -> Hashtbl.add t.proposals (sender, view, seq) digest
  | Some d when String.equal d digest -> ()
  | Some _ ->
    raise_alert t ~rule:"equivocation" ~replica:sender
      (Printf.sprintf "conflicting proposals at view=%d seq=%d" view seq)

(* Byte-identical protocol sends: an honest pipeline emits each
   PrePrepare/Prepare/Commit at most once per destination; retransmission
   paths (replies, view changes, state transfer) use other tags. *)
let note_flood t ~src ~dst payload =
  if not (Addr.is_client src) then begin
    let key = Printf.sprintf "%d>%d:%s" src dst payload in
    if Hashtbl.mem t.flood key then
      raise_alert t ~rule:"duplicate-flood" ~replica:(Addr.replica_of_addr src)
        "byte-identical protocol message re-sent"
    else Hashtbl.add t.flood key ()
  end

let on_prepare t ~src ~dst (p : Message.prepare) =
  if not (Addr.is_client src || Addr.is_client dst) then begin
    let key = (p.view, p.seq, Addr.replica_of_addr dst) in
    let senders =
      match Hashtbl.find_opt t.prepares_to key with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add t.prepares_to key l;
        l
    in
    let s = Addr.replica_of_addr src in
    if not (List.mem s !senders) then senders := s :: !senders
  end

(* An honest Commit(v, s) needs a prepare certificate: 2f Prepares from
   replicas other than the proposer, of which at most one is the
   committer's own (supplied host-locally, never on the wire).  Every
   other certificate member was *delivered* to the committer before it
   could count it, and the taps see deliveries and sends in one global
   order — so fewer than max 1 (2f-1) distinct prepares delivered before
   the commit is sent is impossible for an honest replica, at any f, with
   zero false positives.  Counting deliveries rather than sends keeps the
   rule sharp: a Prepare already sent but still in flight does not vouch
   for a commit. *)
let on_commit t ~src (c : Message.commit) =
  if not (Addr.is_client src) then begin
    let r = Addr.replica_of_addr src in
    let key = (c.view, c.seq, r) in
    if not (Hashtbl.mem t.commits_seen key) then begin
      Hashtbl.add t.commits_seen key ();
      let count =
        match Hashtbl.find_opt t.prepares_to key with
        | Some l -> List.length !l
        | None -> 0
      in
      let needed = max 1 ((2 * t.f) - 1) in
      if count < needed then
        raise_alert t ~rule:"premature-commit" ~replica:r
          (Printf.sprintf "commit at view=%d seq=%d after %d/%d wire prepares"
             c.view c.seq count needed)
    end
  end

let certified_floor t ~now =
  List.fold_left
    (fun floor (seq, _, at) ->
      if at +. t.cfg.stale_margin_us <= now && seq > floor then seq else floor)
    0 t.certs

let on_checkpoint t ~src (ck : Message.checkpoint) =
  if not (Addr.is_client src) then begin
    let sender = Addr.replica_of_addr src in
    let votes =
      match Hashtbl.find_opt t.ckpt_votes ck.seq with
      | Some v -> v
      | None ->
        let v = ref [] in
        Hashtbl.add t.ckpt_votes ck.seq v;
        v
    in
    (match List.assoc_opt ck.state_digest !votes with
    | Some senders -> if not (List.mem sender !senders) then senders := sender :: !senders
    | None -> votes := (ck.state_digest, ref [ sender ]) :: !votes);
    let cert_digest =
      match List.find_opt (fun (s, _, _) -> s = ck.seq) t.certs with
      | Some (_, d, _) -> Some d
      | None -> (
        match
          List.find_opt (fun (_, senders) -> List.length !senders >= quorum t) !votes
        with
        | Some (d, _) ->
          t.certs <- (ck.seq, d, Engine.now t.engine) :: t.certs;
          Some d
        | None -> None)
    in
    match cert_digest with
    | None -> ()
    | Some d ->
      List.iter
        (fun (d', senders) ->
          if not (String.equal d d') then
            List.iter
              (fun s ->
                raise_alert t ~rule:"checkpoint-mismatch" ~replica:s
                  (Printf.sprintf
                     "checkpoint at seq=%d conflicts with the certified digest"
                     ck.seq))
              !senders)
        !votes
  end

let on_viewchange t ~src (vc : Message.viewchange) =
  if t.lossless && not (Addr.is_client src) then begin
    let r = Addr.replica_of_addr src in
    if not (excused t r) then begin
      let floor = certified_floor t ~now:(Engine.now t.engine) in
      if floor > 0 && vc.vc_last_stable < floor then
        raise_alert t ~rule:"stale-proof" ~replica:r
          (Printf.sprintf "viewchange carries last_stable=%d below certified %d"
             vc.vc_last_stable floor)
    end
  end

let on_payload t ~src ~dst payload =
  if t.leak && (not (Addr.is_client src)) && Safety.contains_canary payload then
    raise_alert t ~rule:"confidentiality-leak" ~replica:(Addr.replica_of_addr src)
      "operation plaintext on the wire";
  if t.wire then
    match Message.decode payload with
    | Error _ -> ()
    | Ok msg -> (
      match msg with
      | Message.Preprepare pp ->
        note_proposal t ~sender:pp.sender ~view:pp.view ~seq:pp.seq
          ~digest:(Message.digest_of_batch pp.batch);
        note_flood t ~src ~dst payload
      | Message.Preprepare_digest pd ->
        note_proposal t ~sender:pd.pd_sender ~view:pd.pd_view ~seq:pd.pd_seq
          ~digest:pd.pd_digest;
        (* Honest primaries always broadcast the full form — the broker
           re-attaches the body it copied in one ecall ago — so a bare
           digest form can never be matched to an authorized batch. *)
        raise_alert t ~rule:"digest-mismatch" ~replica:pd.pd_sender
          (Printf.sprintf "unresolvable digest-form proposal at view=%d seq=%d"
             pd.pd_view pd.pd_seq);
        note_flood t ~src ~dst payload
      | Message.Prepare _ -> note_flood t ~src ~dst payload
      | Message.Commit c ->
        on_commit t ~src c;
        note_flood t ~src ~dst payload
      | Message.Checkpoint ck -> on_checkpoint t ~src ck
      | Message.Viewchange vc -> on_viewchange t ~src vc
      | Message.Request _ | Message.Reply _ | Message.Newview _
      | Message.Session_init _ | Message.Session_quote _ | Message.Session_key _
      | Message.Session_ack _ | Message.Batch_fetch _ | Message.Batch_data _
      | Message.State_request _ | Message.State_reply _
      | Message.Ledger_subscribe _ | Message.Ledger_feed _
      | Message.Read_request _ | Message.Read_reply _ -> ())

(* ---------- flight evidence ---------- *)

let on_flight t (ev : Flight.event) =
  match ev.kind with
  | "crash" | "restart" | "host-crash" | "host-restart" ->
    if ev.host >= 0 && ev.host < t.n then Hashtbl.replace t.excused ev.host ()
  | "evidence" ->
    let prefix = "vote-divergence" in
    let plen = String.length prefix in
    if
      String.length ev.detail >= plen
      && String.equal (String.sub ev.detail 0 plen) prefix
      && ev.host >= 0 && ev.host < t.n
    then raise_alert t ~rule:"vote-divergence" ~replica:ev.host ev.detail
  | _ -> ()

(* ---------- health rules (periodic sample) ---------- *)

let replica_labels r = [ ("replica", string_of_int r) ]

let retx_delta t r =
  let get name =
    match Health.delta t.health ~labels:(replica_labels r) name with
    | Some v -> v
    | None -> 0.0
  in
  get "broker.retx_suppressed" +. get "broker.retx_replayed"

let suspect_total t =
  let total = ref 0.0 in
  for r = 0 to t.n - 1 do
    match Health.latest t.health ~labels:(replica_labels r) "broker.suspect_firings" with
    | Some v -> total := !total +. v
    | None -> ()
  done;
  !total

let sample t =
  Health.sample t.health ~at:(Engine.now t.engine);
  let nodes = List.mapi (fun i n -> (i, n)) (Cluster.nodes t.cluster) in
  let live = List.filter (fun (i, _) -> not (excused t i)) nodes in
  (* Untrusted-storage leak scan (confidential protocols only). *)
  if t.leak then
    List.iter
      (fun (i, node) ->
        if Safety.blob_leaks (Cluster.persisted_of node) > 0 then
          raise_alert t ~rule:"confidentiality-leak" ~replica:i
            "operation plaintext in untrusted storage")
      nodes;
  (* Executed-prefix lag and agreement across live replicas. *)
  let counts = List.map (fun (i, n) -> (i, Cluster.executed_count_of n)) live in
  let max_count = List.fold_left (fun m (_, c) -> max m c) 0 counts in
  let lag_window =
    match t.cfg.lag_window with
    | Some w -> w
    | None -> 2 * (Cluster.params t.cluster).Cluster.checkpoint_interval
  in
  List.iter
    (fun (i, c) ->
      if max_count - c > lag_window then
        raise_alert t ~rule:"prefix-lag" ~replica:i
          (Printf.sprintf "executed %d of %d (window %d)" c max_count lag_window))
    counts;
  (* Follower straggler: a read-only follower stuck behind the vouched
     cluster tip past the staleness bound.  Read through the same
     Obs.Health plane the followers report their gauges into. *)
  let follower_bound = (Cluster.params t.cluster).Cluster.follower_lag_bound in
  List.iter
    (fun fo ->
      let fid = Follower.fid fo in
      match
        Health.latest t.health
          ~labels:[ ("follower", string_of_int fid) ]
          "follower.lag"
      with
      | Some lag when int_of_float lag > follower_bound ->
        raise_alert t ~rule:"follower-straggler" ~replica:fid
          (Printf.sprintf "lag %d behind the vouched tip (bound %d)"
             (int_of_float lag) follower_bound)
      | _ -> ())
    (Cluster.followers t.cluster);
  (match
     Safety.agreement_of_logs
       (List.map (fun (i, n) -> (i, Cluster.executed_log_of n)) live)
   with
  | Safety.Agreement | Safety.Prefix_lag _ -> ()
  | Safety.Conflict { seq; a; b } ->
    raise_alert t ~rule:"disagreement" ~replica:(-1)
      (Printf.sprintf "replicas %d and %d executed conflicting batches at seq=%Ld" a b
         seq));
  (* Retransmit storm: one replica absorbing retransmissions well beyond
     the transient a crash/view-change causes. *)
  List.iter
    (fun (i, _) ->
      if int_of_float (retx_delta t i) >= t.cfg.retx_threshold then
        raise_alert t ~rule:"retx-storm" ~replica:i
          (Printf.sprintf "%d retransmissions within the health window"
             (int_of_float (retx_delta t i))))
    nodes;
  (* Quorum stall: suspicion firing without view or execution progress. *)
  let exec_total =
    List.fold_left (fun acc (_, n) -> acc + Cluster.executed_count_of n) 0 nodes
  in
  let max_view = List.fold_left (fun m (_, n) -> max m (Cluster.view_of n)) 0 nodes in
  let suspects = suspect_total t in
  if exec_total > t.last_exec_total || max_view > t.last_max_view then begin
    t.stall_count <- 0;
    t.suspect_anchor <- suspects
  end
  else if suspects > t.suspect_anchor then begin
    t.stall_count <- t.stall_count + 1;
    if t.stall_count >= t.cfg.stall_samples then
      raise_alert t ~rule:"quorum-stall" ~replica:(-1)
        (Printf.sprintf
           "suspicion active for %d samples with no view or execution progress"
           t.stall_count)
  end;
  t.last_exec_total <- exec_total;
  t.last_max_view <- max_view;
  (* Keep the duplicate table bounded on very long runs; resetting only
     widens the storm window, it cannot create false positives. *)
  if Hashtbl.length t.flood > 500_000 then Hashtbl.reset t.flood

let rec schedule_sample t =
  ignore
    (Engine.schedule t.engine ~delay:t.cfg.sample_interval_us ~label:"detector:sample"
       (fun () ->
         sample t;
         schedule_sample t))

let attach ?(config = default_config) cluster =
  let engine = Cluster.engine cluster in
  let name = Cluster.protocol_name cluster in
  let params = Cluster.params cluster in
  let t =
    { cluster;
      cfg = config;
      engine;
      n = params.Cluster.n;
      f = Cluster.f cluster;
      wire = String.equal name "splitbft" || String.equal name "pbft";
      leak = Proto.confidential params.Cluster.protocol;
      lossless = params.Cluster.net.Network.drop_probability <= 0.0;
      health = Health.create ~window:config.health_window (Cluster.obs cluster);
      alerts_rev = [];
      alert_count = 0;
      seen = Hashtbl.create 32;
      proposals = Hashtbl.create 1024;
      prepares_to = Hashtbl.create 1024;
      commits_seen = Hashtbl.create 1024;
      flood = Hashtbl.create 4096;
      ckpt_votes = Hashtbl.create 64;
      certs = [];
      excused = Hashtbl.create 8;
      last_exec_total = 0;
      last_max_view = 0;
      suspect_anchor = 0.0;
      stall_count = 0 }
  in
  Network.add_tap (Cluster.network cluster) (fun ~src ~dst payload ->
      on_payload t ~src ~dst payload);
  if t.wire then
    Network.add_delivery_tap (Cluster.network cluster) (fun ~src ~dst payload ->
        match Message.decode payload with
        | Ok (Message.Prepare p) -> on_prepare t ~src ~dst p
        | Ok _ | Error _ -> ());
  (match Cluster.flight cluster with
  | Some fl -> Flight.on_event fl (fun ev -> on_flight t ev)
  | None -> ());
  Health.sample t.health ~at:(Engine.now engine);
  schedule_sample t;
  t

let alerts t = List.rev t.alerts_rev
let alert_count t = t.alert_count

let fired t =
  List.sort_uniq String.compare (List.map (fun a -> a.rule) t.alerts_rev)

let fired_at t ~replica =
  List.sort_uniq String.compare
    (List.filter_map
       (fun a -> if a.replica = replica then Some a.rule else None)
       t.alerts_rev)

let health t = t.health
let wire_rules_active t = t.wire
