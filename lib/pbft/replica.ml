module Timer = Splitbft_sim.Timer
module Cost_model = Splitbft_tee.Cost_model
module Measurement = Splitbft_tee.Measurement
module Sha256 = Splitbft_crypto.Sha256
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Keys = Splitbft_types.Keys
module Signature = Splitbft_crypto.Signature
module State_machine = Splitbft_app.State_machine
module Log = Splitbft_consensus.Log
module Quorum = Splitbft_consensus.Quorum
module Votes = Splitbft_consensus.Votes
module Ckpt = Splitbft_consensus.Ckpt
module Proofs = Splitbft_consensus.Proofs
module Newview = Splitbft_consensus.Newview
module Catchup = Splitbft_consensus.Catchup
module View_change = Splitbft_consensus.View_change
module Ledger_entry = Splitbft_storage.Entry
module Feed = Splitbft_storage.Feed
module Host = Splitbft_baseline.Host

let protocol_name = "pbft"

type config = {
  n : int;
  id : Ids.replica_id;
  cost : Cost_model.t;
  workers : int;
  batch_size : int;
  batch_timeout_us : float;
  checkpoint_interval : int;
  watermark_window : int;
  suspect_timeout_us : float;
  viewchange_timeout_us : float;
  recovery_retry_us : float;
}

let default_config ~n ~id =
  { n;
    id;
    cost = Cost_model.default;
    workers = 4;
    batch_size = 1;
    batch_timeout_us = 10_000.0;
    checkpoint_interval = 64;
    watermark_window = 256;
    suspect_timeout_us = 500_000.0;
    viewchange_timeout_us = 1_000_000.0;
    recovery_retry_us = 150_000.0 }

type byzantine_mode =
  | Honest
  | Equivocate of { accomplices : Ids.replica_id list }
  | Collude
  | Mute_commits
  | Corrupt_execution

type slot = {
  mutable proposal : Message.preprepare_digest option;
      (* accepted proposal in signed digest form *)
  mutable batch : Message.request list option;  (* full requests, for execution *)
  prepares : Message.prepare Quorum.t;
  commits : Message.commit Quorum.t;
  mutable own_prepare_sent : bool;
  mutable own_commit_sent : bool;
  mutable committed : bool;
  mutable executed : bool;
}

let fresh_slot () =
  { proposal = None;
    batch = None;
    prepares = Quorum.create ();
    commits = Quorum.create ();
    own_prepare_sent = false;
    own_commit_sent = false;
    committed = false;
    executed = false }

type t = {
  cfg : config;
  f : int;
  quorum : int;
  host : Host.t;
  keypair : Signature.keypair;
  lookup : Validation.key_lookup;
  app : State_machine.t;
  mutable view : Ids.view;
  mutable next_seq : Ids.seqno;
  mutable last_executed : Ids.seqno;
  slots : slot Log.t;  (* owns the low watermark *)
  prepared_certs : (Ids.seqno, Message.prepared_proof) Hashtbl.t;
      (* Prepare certificates retained until their seq is checkpoint-stable.
         The live slots are reset on every view entry, but ViewChanges must
         still carry the evidence for unstable decided seqs across cascaded
         view changes — otherwise a later NewView is free to re-propose
         different content at a seq some replica already executed. *)
  batches_by_digest : (string, Ids.seqno * Message.request list) Hashtbl.t;
      (* request bodies by batch digest, with the seq they were proposed at *)
  fetching : (string, Ids.seqno) Hashtbl.t;  (* batch digests requested from peers *)
  executed_digests : (Ids.seqno, string) Hashtbl.t;
      (* executed in this incarnation: what state transfer serves.  Both
         tables forget a seq one checkpoint interval below the stable
         checkpoint, as Execution's bodies do. *)
  mutable history : (Ids.seqno * string) list;
      (* the oracle's record of executed batches, newest first: no protocol
         path reads it, and a restore cuts it at the restored seq *)
  ckpt : Ckpt.t;
  mutable in_view_change : bool;
  mutable vc_target : Ids.view;
  vc : View_change.t;
  vc_timer : Timer.t;
  mutable byz : byzantine_mode;
  snapshots : (Ids.seqno, string) Hashtbl.t;  (* app snapshot at checkpoint seqs *)
  sync : Ids.seqno Catchup.t;
  (* read-only follower feed (plaintext: the baseline is not confidential) *)
  feed : Feed.t;
  mutable feed_chain : string;
}

(* ----- key management ----- *)

let replica_public i =
  let kp =
    Signature.derive ~seed:(Keys.replica_signing_seed ~protocol:protocol_name i)
  in
  kp.Signature.public

let make_lookup n =
  let publics = Array.init n replica_public in
  fun i -> if i >= 0 && i < n then Some publics.(i) else None

(* ----- cost helpers ----- *)

let verify_cost t (msg : Message.t) =
  let c = t.cfg.cost in
  match msg with
  | Message.Request _ -> c.client_auth_us
  | Message.Preprepare pp ->
    c.verify_us +. (c.client_auth_us *. float_of_int (List.length pp.batch))
  | Message.Preprepare_digest _ | Message.Prepare _ | Message.Commit _
  | Message.Checkpoint _ ->
    c.verify_us
  | Message.Viewchange vc -> c.verify_us *. float_of_int (Proofs.viewchange_sig_count vc)
  | Message.Newview nv -> c.verify_us *. float_of_int (Proofs.newview_sig_count nv)
  | Message.Batch_fetch _ | Message.Batch_data _ | Message.State_request _ -> 1.0
  | Message.State_reply sr -> c.verify_us *. float_of_int (List.length sr.st_proof)
  | Message.Ledger_subscribe _ -> 1.0
  | Message.Reply _ | Message.Session_init _ | Message.Session_quote _
  | Message.Session_key _ | Message.Session_ack _ | Message.Ledger_feed _
  | Message.Read_request _ | Message.Read_reply _ ->
    0.0

let core_cost t (msg : Message.t) =
  let c = t.cfg.cost in
  match msg with
  | Message.Preprepare pp ->
    c.pbft_core_us +. (c.pbft_core_per_req_us *. float_of_int (List.length pp.batch))
  | Message.Request _ -> c.pbft_request_us
  | _ -> c.pbft_core_us

(* ----- verification (crypto checks, run on the pool) ----- *)

let verify_viewchange t =
  View_change.verify_deep ~f:t.f ~vc_lookup:t.lookup ~ckpt_lookup:t.lookup ~proof_lookup:t.lookup

let verify_ok t (msg : Message.t) =
  match msg with
  | Message.Request r -> Host.request_auth_ok t.host r
  | Message.Preprepare pp ->
    Validation.verify_preprepare t.lookup pp && List.for_all (Host.request_auth_ok t.host) pp.batch
  | Message.Prepare p -> Validation.verify_prepare t.lookup p
  | Message.Commit c -> Validation.verify_commit t.lookup c
  | Message.Checkpoint ck -> Validation.verify_checkpoint t.lookup ck
  | Message.Preprepare_digest pd -> Validation.verify_preprepare_digest t.lookup pd
  | Message.Viewchange vc -> verify_viewchange t vc
  | Message.Newview nv ->
    View_change.verify_newview ~nv_lookup:t.lookup ~vc_ok:(verify_viewchange t) nv
  | Message.Batch_fetch _ | Message.Batch_data _ ->
    (* content-addressed: the handler checks the digest *)
    true
  | Message.State_request _ | Message.State_reply _ ->
    (* snapshot certified by its checkpoint proof, entries by f+1 matching
       repliers — both checked in the handler *)
    true
  | Message.Ledger_subscribe _ ->
    (* served from already-committed host state; the feed is content-addressed *)
    true
  | Message.Reply _ | Message.Session_init _ | Message.Session_quote _
  | Message.Session_key _ | Message.Session_ack _ | Message.Ledger_feed _
  | Message.Read_request _ | Message.Read_reply _ ->
    false

(* ----- sending ----- *)

let send t dst msg = Host.send t.host ~cost:0.0 (Addr.replica dst) (Message.encode msg)
let broadcast t ~sign_cost msg = Host.broadcast t.host ~cost:sign_cost (Message.encode msg)

(* ----- slots and watermarks ----- *)

let slot t seq = Log.find_or_add t.slots seq ~default:fresh_slot
let in_window t seq = Log.in_window t.slots seq
let primary t = Ids.primary_of_view ~n:t.cfg.n t.view
let is_primary t = primary t = t.cfg.id

(* ----- signed message constructors ----- *)

let make_preprepare t ~seq batch : Message.preprepare =
  let pp =
    { Message.view = t.view; seq; batch; sender = t.cfg.id; pp_sig = "" }
  in
  { pp with pp_sig = Signature.sign t.keypair.Signature.secret (Message.preprepare_signing_bytes pp) }

let make_prepare t ~view ~seq ~digest : Message.prepare =
  let p = { Message.view; seq; digest; sender = t.cfg.id; p_sig = "" } in
  { p with p_sig = Signature.sign t.keypair.Signature.secret (Message.prepare_signing_bytes p) }

let make_commit t ~view ~seq ~digest : Message.commit =
  let c = { Message.view; seq; digest; sender = t.cfg.id; c_sig = "" } in
  { c with c_sig = Signature.sign t.keypair.Signature.secret (Message.commit_signing_bytes c) }

let make_checkpoint t ~seq ~state_digest : Message.checkpoint =
  let ck = { Message.seq; state_digest; sender = t.cfg.id; ck_sig = "" } in
  { ck with
    ck_sig = Signature.sign t.keypair.Signature.secret (Message.checkpoint_signing_bytes ck) }

(* A coordinated byzantine pair splits the honest replicas over two
   proposals per sequence number: the real batch goes to odd-numbered
   replicas, the empty batch to even-numbered ones, and the attackers send
   their (conflicting) Prepares and Commits only to the matching side so
   per-sender deduplication at honest receivers cannot merge the votes. *)
let attack_side (pp : Message.preprepare) = pp.batch <> []

let send_targeted_votes t (pp : Message.preprepare) =
  let digest = Message.digest_of_batch pp.batch in
  let p = make_prepare t ~view:pp.view ~seq:pp.seq ~digest in
  let c = make_commit t ~view:pp.view ~seq:pp.seq ~digest in
  let odd_side = attack_side pp in
  let payloads = [ Message.encode (Message.Prepare p); Message.encode (Message.Commit c) ] in
  Host.spray t.host ~cost:(2.0 *. t.cfg.cost.sign_us) (fun j ->
      if (j mod 2 = 1) = odd_side then payloads else [])

(* ----- batching (primary) ----- *)

let propose t batch =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let pp = make_preprepare t ~seq batch in
  let s = slot t seq in
  s.proposal <- Some (Message.summarize pp);
  s.batch <- Some batch;
  Hashtbl.replace t.batches_by_digest (Message.digest_of_batch batch) (seq, batch);
  match t.byz with
  | Equivocate { accomplices } ->
    (* Conflicting proposals: half the backups see a different (valid!)
       batch — the empty no-op batch, whose vacuous client authenticators
       honest replicas accept — accomplices see both, and the equivocator
       votes for both. *)
    let pp_b = make_preprepare t ~seq [] in
    let a = Message.encode (Message.Preprepare pp) in
    let b = Message.encode (Message.Preprepare pp_b) in
    Host.spray t.host ~cost:(2.0 *. t.cfg.cost.sign_us) (fun j ->
        if List.mem j accomplices then [ a; b ] else [ (if j mod 2 = 1 then a else b) ]);
    List.iter (send_targeted_votes t) [ pp; pp_b ]
  | Honest | Collude | Mute_commits | Corrupt_execution ->
    broadcast t ~sign_cost:t.cfg.cost.sign_us (Message.Preprepare pp)

(* ----- execution ----- *)

let finish_recovery t =
  if Host.is_recovering t.host && Catchup.caught_up t.sync t.last_executed then begin
    Catchup.reset t.sync;
    Host.end_recovery t.host
  end

let send_checkpoint_if_due t seq =
  if seq mod t.cfg.checkpoint_interval = 0 then begin
    let snapshot = t.app.State_machine.snapshot () in
    let state_digest = Sha256.digest snapshot in
    (* Cache the snapshot so a State_reply can serve bytes matching the
       certified digest. *)
    Hashtbl.replace t.snapshots seq snapshot;
    let ck = make_checkpoint t ~seq ~state_digest in
    broadcast t ~sign_cost:t.cfg.cost.sign_us (Message.Checkpoint ck);
    Ckpt.store t.ckpt ck;
    (* The baseline gets the SplitBFT compartments' rollback defense, for
       comparison rows. *)
    Host.seal_checkpoint t.host
      (fun w t ->
        W.varint w t.view;
        W.varint w t.last_executed;
        W.bytes w snapshot)
      t
  end

let drop_prepared_certs t ~upto =
  Hashtbl.filter_map_inplace (fun s p -> if s <= upto then None else Some p) t.prepared_certs

let resolve_batch t (s : slot) =
  match s.batch with
  | Some _ -> ()
  | None -> (
    match s.proposal with
    | Some pd when String.equal pd.pd_digest Message.empty_batch_digest ->
      s.batch <- Some []
    | Some pd -> (
      match Hashtbl.find_opt t.batches_by_digest pd.pd_digest with
      | Some (_, batch) -> s.batch <- Some batch
      | None ->
        (* Committed a digest without the request bodies (possible after a
           view change): fetch them, content-addressed, from peers. *)
        if not (Hashtbl.mem t.fetching pd.pd_digest) then begin
          Hashtbl.replace t.fetching pd.pd_digest pd.pd_seq;
          broadcast t ~sign_cost:0.0
            (Message.Batch_fetch { bf_digest = pd.pd_digest; bf_requester = t.cfg.id })
        end)
    | None -> ())

let rec try_execute t =
  let seq = t.last_executed + 1 in
  match Log.find t.slots seq with
  | Some s when s.committed && not s.executed -> (
    resolve_batch t s;
    match s.proposal, s.batch with
    | None, _ | _, None -> ()
    | Some pd, Some batch ->
      s.executed <- true;
      t.last_executed <- seq;
      Hashtbl.replace t.executed_digests seq pd.pd_digest;
      t.history <- (seq, pd.pd_digest) :: t.history;
      let applied_ops = ref [] in
      let replies =
        Host.execute t.host ~view:t.view batch ~result:(fun req ->
            match t.byz with
            | Corrupt_execution -> "CORRUPT"
            | Honest | Equivocate _ | Collude | Mute_commits ->
              applied_ops := req.payload :: !applied_ops;
              t.app.apply req.payload)
      in
      let e =
        { Ledger_entry.seq;
          digest = pd.pd_digest;
          ops = Ledger_entry.encode_ops (List.rev !applied_ops) }
      in
      t.feed_chain <- Ledger_entry.next_chain ~prev:t.feed_chain e;
      Feed.publish t.feed (Ledger_entry.encode_record ~chain:t.feed_chain e);
      List.iter
        (fun (State_machine.Persist { tag; data }) -> Host.persist t.host tag data)
        (t.app.drain_effects ());
      (* Execution occupies the serial core; replies go out through the
         pool afterwards (authentication is parallelized). *)
      let c = t.cfg.cost and ops = float_of_int (List.length batch) in
      Host.send_replies t.host replies
        ~cost:
          (c.exec_op_us *. ops
          +. match t.app.app_name with "ledger" -> c.ledger_block_us *. ops /. 5.0 | _ -> 0.0);
      send_checkpoint_if_due t seq;
      check_checkpoint_stability t seq;
      try_execute t)
  | Some _ | None -> ()

(* ----- checkpoints / garbage collection ----- *)

and check_checkpoint_stability t seq =
  Ckpt.try_advance t.ckpt seq ~on_stable:(fun stable ->
      (* Keep the proving quorum, advance the low watermark, drop old state. *)
      Log.advance_low_mark t.slots stable;
      Log.prune t.slots ~upto:stable;
      drop_prepared_certs t ~upto:stable;
      Hashtbl.filter_map_inplace (fun s snap -> if s < stable then None else Some snap) t.snapshots;
      (* Bodies and digests outlive their slot by one checkpoint interval,
         so a laggard's Batch_fetch and a digest-only NewView re-proposal
         are still served; a replica a whole interval behind catches up
         from the stable snapshot. *)
      let cut = stable - t.cfg.checkpoint_interval in
      Hashtbl.filter_map_inplace
        (fun _ ((s, _) as body) -> if s <= cut then None else Some body)
        t.batches_by_digest;
      Hashtbl.filter_map_inplace (fun s d -> if s <= cut then None else Some d) t.executed_digests;
      flush_batch_if_ready t)

(* ----- batching (primary) ----- *)

and flush_batch_if_ready t =
  Host.propose_batches t.host
    ~ready:(fun () -> is_primary t && (not t.in_view_change) && in_window t t.next_seq)
    ~propose:(propose t)

(* ----- prepare / commit progress ----- *)

let rec try_send_commit t seq =
  let s = slot t seq in
  match s.proposal with
  | None -> ()
  | Some pd ->
    let prepares = Quorum.votes s.prepares in
    if (not s.own_commit_sent) && Validation.prepare_cert_complete ~f:t.f pd prepares then begin
      s.own_commit_sent <- true;
      (* Retain the completed certificate (per seq, highest view wins) so
         view changes can still prove it after the slots are reset. *)
      (match Hashtbl.find_opt t.prepared_certs seq with
      | Some old when old.Message.proof_preprepare.Message.pd_view >= pd.Message.pd_view -> ()
      | Some _ | None ->
        Hashtbl.replace t.prepared_certs seq
          { Message.proof_preprepare = pd; proof_prepares = prepares });
      match t.byz with
      | Mute_commits -> ()
      | Honest | Equivocate _ | Collude | Corrupt_execution ->
        let digest = pd.pd_digest in
        let c = make_commit t ~view:t.view ~seq ~digest in
        ignore (Quorum.add s.commits ~sender:t.cfg.id c);
        broadcast t ~sign_cost:t.cfg.cost.sign_us (Message.Commit c);
        try_mark_committed t seq
    end

and try_mark_committed t seq =
  let s = slot t seq in
  match s.proposal with
  | None -> ()
  | Some pd ->
    let digest = pd.pd_digest in
    if
      (not s.committed)
      && Validation.commit_quorum_complete ~quorum:t.quorum ~view:t.view ~seq ~digest
           (Quorum.votes s.commits)
    then begin
      s.committed <- true;
      try_execute t;
      finish_recovery t
    end

(* ----- normal-operation handlers ----- *)

let on_preprepare t (pp : Message.preprepare) =
  if t.byz = Collude then
    (* The accomplice votes for everything it sees, each version only to
       the side of the split that received it. *)
    send_targeted_votes t pp
  else if
    pp.view = t.view
    && (not t.in_view_change)
    && pp.sender = primary t
    && pp.sender <> t.cfg.id
    && in_window t pp.seq
  then begin
    let s = slot t pp.seq in
    let digest = Message.digest_of_batch pp.batch in
    match s.proposal with
    | Some existing when not (String.equal existing.pd_digest digest) ->
      (* Conflicting PrePrepare from the primary: evidence of a fault. *)
      ()
    | Some _ -> ()
    | None ->
      s.proposal <- Some (Message.summarize pp);
      s.batch <- Some pp.batch;
      Hashtbl.replace t.batches_by_digest digest (pp.seq, pp.batch);
      List.iter (fun r -> if not (Host.executed t.host r) then Host.await t.host r) pp.batch;
      Host.refresh_suspect_timer t.host;
      if not s.own_prepare_sent then begin
        s.own_prepare_sent <- true;
        let p = make_prepare t ~view:t.view ~seq:pp.seq ~digest in
        ignore (Quorum.add s.prepares ~sender:t.cfg.id p);
        broadcast t ~sign_cost:t.cfg.cost.sign_us (Message.Prepare p)
      end;
      try_send_commit t pp.seq
  end

let on_prepare t (p : Message.prepare) =
  if p.view = t.view && (not t.in_view_change) && in_window t p.seq && p.sender <> t.cfg.id
  then begin
    let s = slot t p.seq in
    if Quorum.add s.prepares ~sender:p.sender p then try_send_commit t p.seq
  end

let on_commit t (c : Message.commit) =
  if c.view = t.view && (not t.in_view_change) && in_window t c.seq && c.sender <> t.cfg.id
  then begin
    let s = slot t c.seq in
    if Quorum.add s.commits ~sender:c.sender c then try_mark_committed t c.seq
  end

let on_checkpoint t (ck : Message.checkpoint) =
  if ck.seq > Log.low_mark t.slots && ck.sender <> t.cfg.id then begin
    Ckpt.store t.ckpt ck;
    check_checkpoint_stability t ck.seq
  end

(* ----- view change ----- *)

let prepared_proofs t =
  let low = Log.low_mark t.slots in
  Hashtbl.fold (fun seq proof acc -> if seq > low then proof :: acc else acc) t.prepared_certs []

let enter_view t ~view ~min_s ~max_s (pps : Message.preprepare_digest list) ~as_primary =
  t.view <- view;
  View_change.enter t.vc view;
  t.in_view_change <- false;
  Timer.stop t.vc_timer;
  Log.advance_low_mark t.slots min_s;
  (* Keep the checkpoint tracker's stable point in lock-step with the low
     watermark even though the NewView carried no quorum for it. *)
  Ckpt.force_stable t.ckpt (Log.low_mark t.slots);
  (* Resetting the slots is safe only because prepared certificates live in
     [prepared_certs]; prune the ones the NewView's stable point covers. *)
  Log.reset t.slots;
  drop_prepared_certs t ~upto:(Log.low_mark t.slots);
  t.next_seq <- max_s + 1;
  (* Requests assigned in the dead view may have been lost with it; allow
     client retransmissions to be ordered again (execution deduplicates by
     timestamp, so re-ordering cannot double-execute).  Requests still
     queued or re-issued by the NewView stay deduplicated. *)
  Host.reset_assignments t.host;
  List.iter
    (fun (pd : Message.preprepare_digest) ->
      let s = slot t pd.pd_seq in
      s.proposal <- Some pd;
      resolve_batch t s;
      Option.iter (List.iter (Host.note_assigned t.host)) s.batch;
      if pd.pd_seq <= t.last_executed then begin
        s.executed <- true;
        s.committed <- true
      end
      else if not as_primary then begin
        s.own_prepare_sent <- true;
        let p = make_prepare t ~view:t.view ~seq:pd.pd_seq ~digest:pd.pd_digest in
        ignore (Quorum.add s.prepares ~sender:t.cfg.id p);
        broadcast t ~sign_cost:t.cfg.cost.sign_us (Message.Prepare p)
      end)
    pps;
  Host.refresh_suspect_timer t.host;
  flush_batch_if_ready t

let rec start_view_change t ~target =
  if target > t.view || (t.in_view_change && target > t.vc_target) then begin
    t.in_view_change <- true;
    t.vc_target <- target;
    t.view <- target;
    Host.pause t.host;
    Timer.restart t.vc_timer;
    let vc =
      View_change.make ~new_view:target ~last_stable:(Log.low_mark t.slots)
        ~proof:(Ckpt.proof t.ckpt) ~prepared:(prepared_proofs t) ~sender:t.cfg.id
        ~sign:(Signature.sign t.keypair.Signature.secret)
    in
    ignore (View_change.tally t.vc vc);
    broadcast t ~sign_cost:t.cfg.cost.sign_us (Message.Viewchange vc);
    maybe_send_newview t ~target
  end

and maybe_send_newview t ~target =
  if Ids.primary_of_view ~n:t.cfg.n target = t.cfg.id then begin
    let vcs = View_change.viewchanges t.vc target in
    if List.length vcs >= t.quorum && t.view = target && t.in_view_change then begin
      let sign = Signature.sign t.keypair.Signature.secret in
      let min_s, max_s, nv = Newview.build ~view:target ~sender:t.cfg.id ~sign vcs in
      broadcast t
        ~sign_cost:(t.cfg.cost.sign_us *. float_of_int (1 + List.length nv.nv_preprepares))
        (Message.Newview nv);
      enter_view t ~view:target ~min_s ~max_s nv.nv_preprepares ~as_primary:true
    end
  end

let on_viewchange t (vc : Message.viewchange) =
  if
    (vc.vc_new_view > t.view || (t.in_view_change && vc.vc_new_view = t.vc_target))
    && View_change.tally t.vc vc
  then begin
    let count = List.length (View_change.viewchanges t.vc vc.vc_new_view) in
    (* Join a view change supported by f+1 peers (liveness rule). *)
    if
      vc.vc_new_view > t.view && count >= t.f + 1
      && not (t.in_view_change && t.vc_target >= vc.vc_new_view)
    then start_view_change t ~target:vc.vc_new_view;
    maybe_send_newview t ~target:vc.vc_new_view
  end

(* The replica's own NewView is never re-entered: after a restart it
   would hand out the view's seqnos a second time. *)
let on_newview t (nv : Message.newview) =
  if View_change.acceptable t.vc ~n:t.cfg.n ~current:t.view nv && nv.nv_sender <> t.cfg.id then
    match Newview.plan nv with
    | Some (min_s, max_s) ->
      enter_view t ~view:nv.nv_view ~min_s ~max_s nv.nv_preprepares ~as_primary:false
    | None -> ()

(* ----- dispatch ----- *)

let on_batch_fetch t (bf : Message.batch_fetch) =
  match Hashtbl.find_opt t.batches_by_digest bf.bf_digest with
  | Some (_, batch) when bf.bf_requester <> t.cfg.id ->
    send t bf.bf_requester (Message.Batch_data { bd_batch = batch })
  | Some _ | None -> ()

let on_batch_data t (bd : Message.batch_data) =
  let digest = Message.digest_of_batch bd.bd_batch in
  match Hashtbl.find_opt t.fetching digest with
  | Some seq ->
    Hashtbl.remove t.fetching digest;
    Hashtbl.replace t.batches_by_digest digest (seq, bd.bd_batch);
    try_execute t
  | None -> ()

(* ----- state transfer ----- *)

let on_state_request t (sr : Message.state_request) =
  if sr.sr_requester <> t.cfg.id && not (Host.is_recovering t.host) then
    send t sr.sr_requester
      (Message.State_reply
         (Catchup.serve sr ~replier:t.cfg.id ~view:t.view ~ckpt:t.ckpt
            ~snapshot:(fun stable -> Option.value ~default:"" (Hashtbl.find_opt t.snapshots stable))
            ~upto:t.last_executed
            ~decided:(Hashtbl.find_opt t.executed_digests)
            ~body:(fun d -> Option.map snd (Hashtbl.find_opt t.batches_by_digest d))))

let on_state_reply t (sr : Message.state_reply) =
  if Host.is_recovering t.host && sr.st_requester = t.cfg.id && sr.st_replier <> t.cfg.id then begin
    (* Certified snapshot: install only if it moves us forward and matches
       its checkpoint-quorum certificate. *)
    (match
       Catchup.certified_snapshot ~quorum:t.quorum ~verify:(Validation.verify_checkpoint t.lookup)
         ~above:t.last_executed ~open_:Option.some sr
     with
    | None -> ()
    | Some snapshot -> (
      match t.app.State_machine.restore snapshot with
      | Error _ -> ()
      | Ok () ->
        ignore (t.app.State_machine.drain_effects ());
        t.last_executed <- sr.st_stable;
        Hashtbl.replace t.snapshots sr.st_stable snapshot;
        Ckpt.force_stable t.ckpt sr.st_stable;
        Log.advance_low_mark t.slots sr.st_stable;
        Log.prune t.slots ~upto:sr.st_stable));
    (* Log suffix: install a slot once f+1 repliers vouch for its digest. *)
    Catchup.absorb t.sync sr
      ~admit:(fun seq -> seq > t.last_executed)
      ~install:(fun (e : Message.state_entry) ->
        let s = slot t e.se_seq in
        s.proposal <-
          Some
            { Message.pd_view = sr.st_view;
              pd_seq = e.se_seq;
              pd_digest = e.se_digest;
              pd_sender = Ids.primary_of_view ~n:t.cfg.n sr.st_view;
              pd_sig = "" };
        s.batch <- Some e.se_batch;
        Hashtbl.replace t.batches_by_digest e.se_digest (e.se_seq, e.se_batch);
        s.committed <- true);
    (* Adopt the vouched view so current-view traffic is not discarded
       after the catch-up. *)
    (match Catchup.vouched_view t.sync with
    | Some v when v > t.view && not t.in_view_change ->
      t.view <- v;
      t.next_seq <- max t.next_seq (t.last_executed + 1)
    | _ -> ());
    try_execute t;
    finish_recovery t
  end

(* Host-level, off the consensus path: the feed serves already-committed
   entries, so a subscription touches no protocol state. *)
let on_ledger_subscribe t (ls : Message.ledger_subscribe) =
  Feed.subscribe t.feed ~follower:ls.lsu_follower ~from:ls.lsu_from

let handle t (msg : Message.t) =
  match msg with
  | Message.Request r -> Host.on_request t.host ~proposer:(is_primary t && not t.in_view_change) r
  | Message.Preprepare pp -> on_preprepare t pp
  | Message.Preprepare_digest _ -> ()
  | Message.Prepare p -> on_prepare t p
  | Message.Commit c -> on_commit t c
  | Message.Checkpoint ck -> on_checkpoint t ck
  | Message.Viewchange vc -> on_viewchange t vc
  | Message.Newview nv -> on_newview t nv
  | Message.Batch_fetch bf -> on_batch_fetch t bf
  | Message.Batch_data bd -> on_batch_data t bd
  | Message.State_request sr -> on_state_request t sr
  | Message.State_reply sr -> on_state_reply t sr
  | Message.Ledger_subscribe ls -> on_ledger_subscribe t ls
  | Message.Reply _ | Message.Session_init _ | Message.Session_quote _
  | Message.Session_key _ | Message.Session_ack _ | Message.Ledger_feed _
  | Message.Read_request _ | Message.Read_reply _ ->
    ()

let on_payload t payload =
  match Message.decode_traced payload with
  | Error _ -> ()
  | Ok (msg, ctx) ->
    Host.admit t.host payload ~ctx ~name:(Message.type_name msg) ~crypto:(verify_cost t msg)
      ~core:(core_cost t msg) ~verify:(fun () -> verify_ok t msg) (fun () -> handle t msg)

(* ----- construction ----- *)

let measurement =
  Measurement.of_source ~name:"pbft-replica" ~version:"1"
    ~code:"baseline pbft replica checkpoint state"

let create engine net cfg ~app =
  if cfg.n < 4 then invalid_arg "Pbft.Replica.create: need n >= 4";
  let keypair =
    Signature.derive ~seed:(Keys.replica_signing_seed ~protocol:protocol_name cfg.id)
  in
  let rec t =
    lazy
      { cfg;
        f = Ids.f_of_n cfg.n;
        quorum = Ids.quorum ~n:cfg.n;
        host =
          Host.create engine net ~protocol:protocol_name ~n:cfg.n ~id:cfg.id ~cost:cfg.cost
            ~workers:cfg.workers ~batch_size:cfg.batch_size
            ~batch_timeout_us:cfg.batch_timeout_us ~suspect_timeout_us:cfg.suspect_timeout_us
            ~recovery_retry_us:cfg.recovery_retry_us ~measurement ~app
            ~receive:(fun payload -> on_payload (Lazy.force t) payload)
            ~flush:(fun () -> flush_batch_if_ready (Lazy.force t))
            ~suspect:(fun () ->
              let t = Lazy.force t in
              start_view_change t ~target:(t.view + 1))
            ~state_request:(fun () ->
              (* from the first slot not yet executed *)
              let t = Lazy.force t in
              Message.encode
                (Message.State_request { sr_requester = cfg.id; sr_from = t.last_executed + 1 }));
        keypair;
        lookup = make_lookup cfg.n;
        app;
        view = 0;
        next_seq = 1;
        last_executed = 0;
        slots = Log.create ~window:cfg.watermark_window ();
        prepared_certs = Hashtbl.create 64;
        batches_by_digest = Hashtbl.create 256;
        fetching = Hashtbl.create 8;
        executed_digests = Hashtbl.create 1024;
        history = [];
        ckpt = Ckpt.create ~quorum:(Ids.quorum ~n:cfg.n);
        in_view_change = false;
        vc_target = 0;
        vc = View_change.create ();
        vc_timer =
          Timer.create engine
            ~label:(Printf.sprintf "pbft%d-vc" cfg.id)
            ~delay:cfg.viewchange_timeout_us
            ~callback:
              (fun () ->
              let t = Lazy.force t in
              Host.forced t.host ~name:"viewchange-timeout" (fun () ->
                  start_view_change t ~target:(t.vc_target + 1)));
        byz = Honest;
        snapshots = Hashtbl.create 4;
        sync = Catchup.create ~f:(Ids.f_of_n cfg.n) ~compare:Int.compare;
        feed = Feed.create ~net ~src:(Addr.replica cfg.id) ~replica:cfg.id;
        feed_chain = "" }
  in
  Lazy.force t

(* ----- introspection ----- *)

let id t = t.cfg.id
let view t = t.view
let last_executed t = t.last_executed
let low_watermark t = Log.low_mark t.slots
let viewchange_tallies t = View_change.tallied_views t.vc
let executed_count t = Host.executed_count t.host
let executed_log t = List.rev t.history
let app_digest t = Host.app_digest t.host
let persisted t = Host.persisted t.host

let crash t =
  Host.crash t.host;
  Timer.stop t.vc_timer

let restart t =
  let prior = t.history in
  Host.restart t.host
    ~wipe:(fun () ->
      (* Volatile state did not survive the crash. *)
      t.view <- 0;
      t.next_seq <- 1;
      t.last_executed <- 0;
      Log.reset t.slots;
      (* Certificate amnesia after a crash is within the f allowance. *)
      Hashtbl.reset t.prepared_certs;
      Hashtbl.reset t.batches_by_digest;
      Hashtbl.reset t.fetching;
      Hashtbl.reset t.executed_digests;
      t.history <- [];
      Hashtbl.reset t.snapshots;
      t.in_view_change <- false;
      t.vc_target <- 0;
      View_change.reset t.vc;
      Catchup.reset t.sync;
      (* Feed cache and subscriptions were host memory: gone with the
         crash.  Followers re-subscribe on their timer; re-executed entries
         re-populate the cache (content-identical, since execution is
         deterministic). *)
      Feed.reset t.feed ~records:[];
      t.feed_chain <- "")
    ~read:(fun r ->
      let view = R.varint r in
      let last_executed = R.varint r in
      ((view, last_executed), R.bytes r))
    ~restore:(fun (view, last_executed) snapshot ->
      t.view <- view;
      t.next_seq <- last_executed + 1;
      t.last_executed <- last_executed;
      t.history <- List.filter (fun (seq, _) -> seq <= last_executed) prior;
      Hashtbl.replace t.snapshots last_executed snapshot;
      Ckpt.force_stable t.ckpt last_executed;
      Log.advance_low_mark t.slots last_executed)

let is_crashed t = Host.is_crashed t.host
let is_recovering t = Host.is_recovering t.host
let recovered t = Host.recovered t.host
let recovery_alerts t = Host.recovery_alerts t.host
let tamper_counter t name = Host.tamper_counter t.host name
let set_byzantine t mode = t.byz <- mode
let byzantine_mode t = t.byz
let retained t = (Hashtbl.length t.executed_digests, Hashtbl.length t.batches_by_digest)
