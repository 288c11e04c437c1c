module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Resource = Splitbft_sim.Resource
module Timer = Splitbft_sim.Timer
module Cost_model = Splitbft_tee.Cost_model
module Platform = Splitbft_tee.Platform
module Measurement = Splitbft_tee.Measurement
module Sealing = Splitbft_tee.Sealing
module Sha256 = Splitbft_crypto.Sha256
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Keys = Splitbft_types.Keys
module Signature = Splitbft_crypto.Signature
module Hmac = Splitbft_crypto.Hmac
module Aead = Splitbft_crypto.Aead
module State_machine = Splitbft_app.State_machine
module Log = Splitbft_consensus.Log
module Quorum = Splitbft_consensus.Quorum
module Votes = Splitbft_consensus.Votes
module Ckpt = Splitbft_consensus.Ckpt
module Client_table = Splitbft_consensus.Client_table
module Proofs = Splitbft_consensus.Proofs
module Newview = Splitbft_consensus.Newview
module Sealed_image = Splitbft_consensus.Sealed_image
module Catchup = Splitbft_consensus.Catchup
module View_change = Splitbft_consensus.View_change
module Tracer = Splitbft_obs.Tracer
module Trace_ctx = Splitbft_obs.Trace_ctx
module Ledger_entry = Splitbft_storage.Entry
module Feed = Splitbft_storage.Feed

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
  engine : Engine.t;
  net : Network.t;
  pool : Resource.Pool.pool;
  core : Resource.t;
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
  batches_by_digest : (string, Message.request list) Hashtbl.t;
  fetching : (string, unit) Hashtbl.t;  (* batch digests requested from peers *)
  executed_digests : (Ids.seqno, string) Hashtbl.t;
      (* executed in this incarnation: what state transfer serves *)
  mutable history : (Ids.seqno * string) list;
      (* the oracle's record of executed batches, newest first: no protocol
         path reads it, and a restore cuts it at the restored seq *)
  ckpt : Ckpt.t;
  mutable clients : Client_table.t;
  mutable pending : Message.request list;  (* batch queue, newest first *)
  mutable pending_count : int;
  batch_timer : Timer.t;
  awaiting : (Ids.client_id * int64, unit) Hashtbl.t;
  suspect_timer : Timer.t;
  mutable in_view_change : bool;
  mutable vc_target : Ids.view;
  vc : View_change.t;
  vc_timer : Timer.t;
  mutable persist_log : (string * string) list;  (* newest first *)
  mutable crashed : bool;
  mutable epoch : int;
      (* incarnation counter: work queued before a crash must not run after
         a restart, so deferred closures check the epoch they captured *)
  mutable byz : byzantine_mode;
  mutable executed_total : int;
  (* crash-recovery (sealed checkpoints + state transfer) *)
  platform : Platform.t;
  seal_key : Aead.key;
  initial_snapshot : string;
  snapshots : (Ids.seqno, string) Hashtbl.t;  (* app snapshot at checkpoint seqs *)
  sync : Ids.seqno Catchup.t;
  mutable recovering : bool;
  mutable recovered_count : int;
  mutable alerts : string list;  (* newest first *)
  recovery_timer : Timer.t;
  (* read-only follower feed (plaintext: the baseline is not confidential) *)
  mutable feed : Feed.t option;
  mutable feed_chain : string;
  mutable cur_ctx : Trace_ctx.t option;
      (* trace context of the message being handled; [send_to]/[broadcast]
         default to it, so everything a handler emits joins its trace *)
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

let payload_cost t payload =
  t.cfg.cost.serialize_per_byte_us *. float_of_int (String.length payload)

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

let request_auth_ok (r : Message.request) ~replica =
  Keys.check_authenticator ~protocol:protocol_name ~client:r.client ~replica
    ~msg:(Message.request_auth_bytes r) ~auth:r.auth

let verify_viewchange t =
  View_change.verify_deep ~f:t.f ~vc_lookup:t.lookup ~ckpt_lookup:t.lookup ~proof_lookup:t.lookup

let verify_ok t (msg : Message.t) =
  match msg with
  | Message.Request r -> request_auth_ok r ~replica:t.cfg.id
  | Message.Preprepare pp ->
    Validation.verify_preprepare t.lookup pp
    && List.for_all (fun r -> request_auth_ok r ~replica:t.cfg.id) pp.batch
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

(* ----- tracing ----- *)

(* Synthetic always-sampled root for replica-initiated causality (primary
   suspicion, recovery), installed as the current context around the
   initiating call so the cascade it triggers is traceable. *)
let forced_ctx t ~name =
  match Engine.tracer t.engine with
  | None -> None
  | Some tr ->
    let trace = Tracer.fresh_forced_trace tr in
    let at = Engine.now t.engine in
    let id =
      Tracer.open_span tr ~trace ~name ~cat:"replica.forced" ~pid:t.cfg.id
        ~tid:"core" ~at ()
    in
    Tracer.finish tr id ~at;
    Some { Trace_ctx.trace; span = id; forced = true }

(* ----- sending ----- *)

let send_to t ?ctx ~sign_cost dst payload =
  let ctx = match ctx with Some _ as c -> c | None -> t.cur_ctx in
  let payload = Trace_ctx.append ctx payload in
  Resource.Pool.submit t.pool
    ~cost:(sign_cost +. payload_cost t payload)
    (fun () -> Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst payload)

let broadcast t ?ctx ~sign_cost msg =
  let ctx = match ctx with Some _ as c -> c | None -> t.cur_ctx in
  let payload = Message.encode_traced ?ctx msg in
  Resource.Pool.submit t.pool
    ~cost:(sign_cost +. payload_cost t payload)
    (fun () ->
      for j = 0 to t.cfg.n - 1 do
        if j <> t.cfg.id then
          Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j) payload
      done)

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

let make_reply t ~(req : Message.request) ~result : Message.reply =
  let rp =
    { Message.view = t.view;
      timestamp = req.timestamp;
      client = req.client;
      sender = t.cfg.id;
      result;
      r_auth = "" }
  in
  let key =
    Keys.client_replica_key ~protocol:protocol_name ~client:req.client ~replica:t.cfg.id
  in
  { rp with r_auth = Hmac.mac ~key (Message.reply_auth_bytes rp) }

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
  let payload_p = Message.encode (Message.Prepare p) in
  let payload_c = Message.encode (Message.Commit c) in
  Resource.Pool.submit t.pool ~cost:(2.0 *. t.cfg.cost.sign_us) (fun () ->
      for j = 0 to t.cfg.n - 1 do
        if j <> t.cfg.id && (j mod 2 = 1) = odd_side then begin
          Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j) payload_p;
          Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j) payload_c
        end
      done)

(* ----- execution ----- *)

(* The request timer tracks the oldest pending request: it is (re)armed on
   progress, so a loaded-but-progressing replica never suspects its
   primary. *)
let refresh_suspect_timer t =
  if Hashtbl.length t.awaiting = 0 then Timer.stop t.suspect_timer
  else Timer.restart t.suspect_timer

let finish_recovery t =
  if t.recovering && Catchup.caught_up t.sync t.last_executed then begin
    t.recovering <- false;
    t.recovered_count <- t.recovered_count + 1;
    Catchup.reset t.sync;
    Timer.stop t.recovery_timer
  end

(* Enters state transfer, or re-asks in it, from the first slot not yet
   executed. *)
let request_state t =
  t.cur_ctx <- forced_ctx t ~name:"recovery";
  broadcast t ~sign_cost:0.0
    (Message.State_request { sr_requester = t.cfg.id; sr_from = t.last_executed + 1 });
  t.cur_ctx <- None;
  Timer.restart t.recovery_timer

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
       comparison rows; its blob is on disk before the seal returns. *)
    let sealed =
      Sealed_image.seal
        ~counter:(Platform.counter_increment t.platform "ckpt")
        ~seal:(Sealing.seal ~key:t.seal_key ~rng:(Platform.rng t.platform))
        (fun w t ->
          W.varint w t.view;
          W.varint w t.last_executed;
          W.bytes w snapshot)
        t
    in
    t.persist_log <- ("ckpt:pbft", sealed) :: t.persist_log
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
      | Some batch -> s.batch <- Some batch
      | None ->
        (* Committed a digest without the request bodies (possible after a
           view change): fetch them, content-addressed, from peers. *)
        if not (Hashtbl.mem t.fetching pd.pd_digest) then begin
          Hashtbl.replace t.fetching pd.pd_digest ();
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
      let c = t.cfg.cost in
      let replies = ref [] in
      let applied_ops = ref [] in
      List.iter
        (fun (req : Message.request) ->
          Hashtbl.remove t.awaiting (req.client, req.timestamp);
          if not (Client_table.executed t.clients req.client req.timestamp) then begin
            let result =
              match t.byz with
              | Corrupt_execution -> "CORRUPT"
              | Honest | Equivocate _ | Collude | Mute_commits ->
                applied_ops := req.payload :: !applied_ops;
                t.app.apply req.payload
            in
            let reply = make_reply t ~req ~result in
            Client_table.record t.clients req.client req.timestamp (Some reply);
            replies := reply :: !replies;
            t.executed_total <- t.executed_total + 1
          end)
        batch;
      (match t.feed with
      | None -> ()
      | Some fd ->
        let e =
          { Ledger_entry.seq;
            digest = pd.pd_digest;
            ops = Ledger_entry.encode_ops (List.rev !applied_ops) }
        in
        t.feed_chain <- Ledger_entry.next_chain ~prev:t.feed_chain e;
        Feed.publish fd (Ledger_entry.encode_record ~chain:t.feed_chain e));
      List.iter
        (fun (State_machine.Persist { tag; data }) ->
          t.persist_log <- (tag, data) :: t.persist_log)
        (t.app.drain_effects ());
      refresh_suspect_timer t;
      (* Execution occupies the serial core; replies go out through the
         pool afterwards (authentication is parallelized). *)
      let exec_cost =
        c.exec_op_us *. float_of_int (List.length batch)
        +.
        match t.app.app_name with
        | "ledger" -> c.ledger_block_us *. float_of_int (List.length batch) /. 5.0
        | _ -> 0.0
      in
      let outgoing = List.rev !replies in
      (* The closure runs after the handler returns; pin its trace context
         now so replies still join the committing message's trace. *)
      let ctx = t.cur_ctx in
      Resource.submit t.core ~cost:exec_cost (fun () ->
          List.iter
            (fun (reply : Message.reply) ->
              send_to t ?ctx ~sign_cost:c.reply_auth_us
                (Addr.client reply.client)
                (Message.encode (Message.Reply reply)))
            outgoing);
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
      Hashtbl.iter
        (fun s _ -> if s < stable then Hashtbl.remove t.snapshots s)
        (Hashtbl.copy t.snapshots);
      flush_batch_if_ready t)

(* ----- batching (primary) ----- *)

and flush_batch_if_ready t =
  if is_primary t && (not t.in_view_change) && t.pending_count > 0 then begin
    let seq = t.next_seq in
    if in_window t seq then begin
      let take = min t.cfg.batch_size t.pending_count in
      let all = List.rev t.pending in
      let rec split i acc rest =
        if i = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> (List.rev acc, [])
          | x :: tl -> split (i - 1) (x :: acc) tl
      in
      let batch, remaining = split take [] all in
      t.pending <- List.rev remaining;
      t.pending_count <- t.pending_count - take;
      t.next_seq <- seq + 1;
      let pp = make_preprepare t ~seq batch in
      let s = slot t seq in
      s.proposal <- Some (Message.summarize pp);
      s.batch <- Some batch;
      Hashtbl.replace t.batches_by_digest (Message.digest_of_batch batch) batch;
      (match t.byz with
      | Equivocate { accomplices } ->
        (* Conflicting proposals: half the backups see a different (valid!)
           batch — the empty no-op batch, whose vacuous client authenticators
           honest replicas accept — accomplices see both, and the
           equivocator votes for both. *)
        let pp_b = make_preprepare t ~seq [] in
        let payload_a = Message.encode (Message.Preprepare pp) in
        let payload_b = Message.encode (Message.Preprepare pp_b) in
        Resource.Pool.submit t.pool
          ~cost:(2.0 *. t.cfg.cost.sign_us)
          (fun () ->
            for j = 0 to t.cfg.n - 1 do
              if j <> t.cfg.id then begin
                if List.mem j accomplices then begin
                  Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j)
                    payload_a;
                  Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j)
                    payload_b
                end
                else
                  Network.send t.net ~src:(Addr.replica t.cfg.id) ~dst:(Addr.replica j)
                    (if j mod 2 = 1 then payload_a else payload_b)
              end
            done);
        List.iter (send_targeted_votes t) [ pp; pp_b ]
      | Honest | Collude | Mute_commits | Corrupt_execution ->
        broadcast t ~sign_cost:t.cfg.cost.sign_us (Message.Preprepare pp));
      if t.pending_count >= t.cfg.batch_size then flush_batch_if_ready t
      else if t.pending_count > 0 then Timer.start t.batch_timer
      else Timer.stop t.batch_timer
    end
  end

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

let resend_cached_reply t (r : Message.request) =
  match Client_table.cached_reply t.clients r.client r.timestamp with
  | Some reply ->
    send_to t ~sign_cost:t.cfg.cost.reply_auth_us (Addr.client r.client)
      (Message.encode (Message.Reply reply))
  | None -> ()

let on_request t (r : Message.request) =
  if Client_table.executed t.clients r.client r.timestamp then resend_cached_reply t r
  else begin
    Hashtbl.replace t.awaiting (r.client, r.timestamp) ();
    refresh_suspect_timer t;
    if is_primary t && not t.in_view_change then begin
      (* Drop duplicates already queued or assigned a sequence number. *)
      if not (Client_table.already_assigned t.clients r.client r.timestamp) then begin
        Client_table.note_assigned t.clients r.client r.timestamp;
        t.pending <- r :: t.pending;
        t.pending_count <- t.pending_count + 1;
        if t.pending_count >= t.cfg.batch_size then flush_batch_if_ready t
        else Timer.start t.batch_timer
      end
    end
  end

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
      Hashtbl.replace t.batches_by_digest digest pp.batch;
      List.iter
        (fun (r : Message.request) ->
          if not (Client_table.executed t.clients r.client r.timestamp) then
            Hashtbl.replace t.awaiting (r.client, r.timestamp) ())
        pp.batch;
      refresh_suspect_timer t;
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
  Client_table.reset_assignments t.clients;
  List.iter
    (fun (r : Message.request) -> Client_table.note_assigned t.clients r.client r.timestamp)
    t.pending;
  List.iter
    (fun (pd : Message.preprepare_digest) ->
      let s = slot t pd.pd_seq in
      s.proposal <- Some pd;
      resolve_batch t s;
      (match s.batch with
      | Some batch ->
        List.iter
          (fun (r : Message.request) ->
            Client_table.note_assigned t.clients r.client r.timestamp)
          batch
      | None -> ());
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
  refresh_suspect_timer t;
  flush_batch_if_ready t

let rec start_view_change t ~target =
  if target > t.view || (t.in_view_change && target > t.vc_target) then begin
    t.in_view_change <- true;
    t.vc_target <- target;
    t.view <- target;
    Timer.stop t.batch_timer;
    Timer.stop t.suspect_timer;
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
  | Some batch when bf.bf_requester <> t.cfg.id ->
    send_to t ~sign_cost:0.0 (Addr.replica bf.bf_requester)
      (Message.encode (Message.Batch_data { bd_batch = batch }))
  | Some _ | None -> ()

let on_batch_data t (bd : Message.batch_data) =
  let digest = Message.digest_of_batch bd.bd_batch in
  if Hashtbl.mem t.fetching digest then begin
    Hashtbl.remove t.fetching digest;
    Hashtbl.replace t.batches_by_digest digest bd.bd_batch;
    try_execute t
  end

(* ----- state transfer ----- *)

let on_state_request t (sr : Message.state_request) =
  if sr.sr_requester <> t.cfg.id && not t.recovering then
    send_to t ~sign_cost:0.0
      (Addr.replica sr.sr_requester)
      (Message.encode
         (Message.State_reply
            (Catchup.serve sr ~replier:t.cfg.id ~view:t.view ~ckpt:t.ckpt
               ~snapshot:(fun stable ->
                 Option.value ~default:"" (Hashtbl.find_opt t.snapshots stable))
               ~upto:t.last_executed
               ~decided:(Hashtbl.find_opt t.executed_digests)
               ~body:(Hashtbl.find_opt t.batches_by_digest))))

let on_state_reply t (sr : Message.state_reply) =
  if t.recovering && sr.st_requester = t.cfg.id && sr.st_replier <> t.cfg.id then begin
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
        Hashtbl.replace t.batches_by_digest e.se_digest e.se_batch;
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
  match t.feed with
  | Some fd -> Feed.subscribe fd ~follower:ls.lsu_follower ~from:ls.lsu_from
  | None -> ()

let handle t ~src:_ (msg : Message.t) =
  match msg with
  | Message.Request r -> on_request t r
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

let on_payload t ~src payload =
  if not t.crashed then begin
    match Message.decode_traced payload with
    | Error _ -> ()
    | Ok (msg, ctx) ->
      let epoch = t.epoch in
      let vcost = verify_cost t msg +. payload_cost t payload in
      let received = Engine.now t.engine in
      Resource.Pool.submit t.pool ~cost:vcost (fun () ->
          if t.epoch = epoch && verify_ok t msg then
            Resource.submit t.core ~cost:(core_cost t msg) (fun () ->
                if t.epoch = epoch && not t.crashed then begin
                  (* The handling span covers verification (started when
                     the payload arrived) through the handler, with the
                     monolithic replica's cost split the same way the
                     enclave spans split theirs. *)
                  let sp =
                    match (Engine.tracer t.engine, ctx) with
                    | Some tr, Some { Trace_ctx.trace; span; forced } ->
                      let id =
                        Tracer.open_span tr ~parent:span ~trace
                          ~name:(protocol_name ^ ":" ^ Message.type_name msg)
                          ~cat:"replica" ~pid:t.cfg.id ~tid:"core" ~at:received ()
                      in
                      Tracer.add_arg tr id "crypto_us" (verify_cost t msg);
                      Tracer.add_arg tr id "serialize_us" (payload_cost t payload);
                      Tracer.add_arg tr id "core_us" (core_cost t msg);
                      t.cur_ctx <- Some { Trace_ctx.trace; span = id; forced };
                      Some (tr, id)
                    | _ ->
                      t.cur_ctx <- ctx;
                      None
                  in
                  handle t ~src msg;
                  t.cur_ctx <- None;
                  match sp with
                  | Some (tr, id) -> Tracer.finish tr id ~at:(Engine.now t.engine)
                  | None -> ()
                end))
  end

(* ----- construction ----- *)

let measurement =
  Measurement.of_source ~name:"pbft-replica" ~version:"1"
    ~code:"baseline pbft replica checkpoint state"

let create engine net cfg ~app =
  if cfg.n < 4 then invalid_arg "Pbft.Replica.create: need n >= 4";
  let keypair =
    Signature.derive ~seed:(Keys.replica_signing_seed ~protocol:protocol_name cfg.id)
  in
  let platform = Platform.create engine ~id:cfg.id in
  let rec t =
    lazy
      { cfg;
        f = Ids.f_of_n cfg.n;
        quorum = Ids.quorum ~n:cfg.n;
        engine;
        net;
        pool =
          Resource.Pool.create engine
            ~name:(Printf.sprintf "pbft%d-pool" cfg.id)
            ~workers:cfg.workers;
        core = Resource.create engine ~name:(Printf.sprintf "pbft%d-core" cfg.id);
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
        clients = Client_table.create ();
        pending = [];
        pending_count = 0;
        batch_timer =
          Timer.create engine
            ~label:(Printf.sprintf "pbft%d-batch" cfg.id)
            ~delay:cfg.batch_timeout_us
            ~callback:(fun () -> flush_batch_if_ready (Lazy.force t));
        awaiting = Hashtbl.create 64;
        suspect_timer =
          Timer.create engine
            ~label:(Printf.sprintf "pbft%d-suspect" cfg.id)
            ~delay:cfg.suspect_timeout_us
            ~callback:
              (fun () ->
              let t = Lazy.force t in
              t.cur_ctx <- forced_ctx t ~name:"suspect";
              start_view_change t ~target:(t.view + 1);
              t.cur_ctx <- None);
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
              t.cur_ctx <- forced_ctx t ~name:"viewchange-timeout";
              start_view_change t ~target:(t.vc_target + 1);
              t.cur_ctx <- None);
        persist_log = [];
        crashed = false;
        epoch = 0;
        byz = Honest;
        executed_total = 0;
        platform;
        seal_key = Aead.prepare (Platform.sealing_key platform measurement);
        initial_snapshot = app.State_machine.snapshot ();
        snapshots = Hashtbl.create 4;
        sync = Catchup.create ~f:(Ids.f_of_n cfg.n) ~compare:Int.compare;
        recovering = false;
        recovered_count = 0;
        alerts = [];
        feed = None;
        feed_chain = "";
        recovery_timer =
          Timer.create engine
            ~label:(Printf.sprintf "pbft%d-recovery" cfg.id)
            ~delay:cfg.recovery_retry_us
            ~callback:
              (fun () ->
              let t = Lazy.force t in
              (* Re-request: commits in flight during the crash are gone,
                 so a single round can leave a gap below the cluster head. *)
              if t.recovering && not t.crashed then request_state t);
        cur_ctx = None }
  in
  let t = Lazy.force t in
  t.feed <- Some (Feed.create ~net ~src:(Addr.replica cfg.id) ~replica:cfg.id);
  Network.register net (Addr.replica cfg.id) (fun ~src payload -> on_payload t ~src payload);
  t

(* ----- introspection ----- *)

let id t = t.cfg.id
let view t = t.view
let last_executed t = t.last_executed
let low_watermark t = Log.low_mark t.slots
let viewchange_tallies t = View_change.tallied_views t.vc
let executed_count t = t.executed_total

let executed_log t = List.rev t.history

let app_digest t = State_machine.digest t.app
let persisted t = List.rev t.persist_log

let crash t =
  t.crashed <- true;
  (* Quiesce: invalidate in-flight pool/core work and drop queued
     host-side state so a later restart observes no ghost callbacks.
     [persist_log] survives — it is the disk recovery reads from. *)
  t.epoch <- t.epoch + 1;
  Timer.stop t.batch_timer;
  Timer.stop t.suspect_timer;
  Timer.stop t.vc_timer;
  Timer.stop t.recovery_timer;
  t.pending <- [];
  t.pending_count <- 0;
  Hashtbl.reset t.awaiting;
  t.recovering <- false;
  Network.unregister t.net (Addr.replica t.cfg.id)

let restart t =
  if t.crashed then begin
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
    let prior = t.history in
    t.history <- [];
    Hashtbl.reset t.snapshots;
    t.in_view_change <- false;
    t.vc_target <- 0;
    View_change.reset t.vc;
    Catchup.reset t.sync;
    (* The reply cache must not survive either: stale "already executed"
       entries would make re-execution skip operations and diverge. *)
    t.clients <- Client_table.create ();
    (match t.app.State_machine.restore t.initial_snapshot with
    | Ok () -> ignore (t.app.State_machine.drain_effects ())
    | Error _ -> ());
    let refused =
      match
        Sealed_image.check ~who:"pbft" ~slack:0
          ~counter:(Platform.counter_read t.platform "ckpt")
          ~unseal:(Sealing.unseal ~key:t.seal_key)
          (List.assoc_opt "ckpt:pbft" t.persist_log)
          (fun r ->
            let view = R.varint r in
            let last_executed = R.varint r in
            (view, last_executed, R.bytes r))
      with
      | Sealed_image.Fresh -> None
      | Refused reason -> Some reason
      | Restored (view, last_executed, snapshot) -> (
        match t.app.State_machine.restore snapshot with
        | Error e -> Some ("pbft: sealed snapshot rejected: " ^ e)
        | Ok () ->
          ignore (t.app.State_machine.drain_effects ());
          t.view <- view;
          t.next_seq <- last_executed + 1;
          t.last_executed <- last_executed;
          t.history <- List.filter (fun (seq, _) -> seq <= last_executed) prior;
          Hashtbl.replace t.snapshots last_executed snapshot;
          Ckpt.force_stable t.ckpt last_executed;
          Log.advance_low_mark t.slots last_executed;
          None)
    in
    match refused with
    | Some reason -> t.alerts <- reason :: t.alerts  (* stay down, loudly *)
    | None ->
      (* Feed cache and subscriptions were host memory: gone with the
         crash.  Followers re-subscribe on their timer; re-executed
         entries re-populate the cache (content-identical, since
         execution is deterministic). *)
      (match t.feed with Some fd -> Feed.reset fd ~records:[] | None -> ());
      t.feed_chain <- "";
      t.crashed <- false;
      t.epoch <- t.epoch + 1;
      t.recovering <- true;
      Network.register t.net (Addr.replica t.cfg.id) (fun ~src payload ->
          on_payload t ~src payload);
      request_state t
  end

let is_crashed t = t.crashed
let is_recovering t = t.recovering
let recovered t = t.recovered_count > 0 && not t.recovering
let recovery_alerts t = List.rev t.alerts
let tamper_counter t name = Platform.counter_tamper_reset t.platform name
let set_byzantine t mode = t.byz <- mode
let byzantine_mode t = t.byz
