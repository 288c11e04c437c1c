module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Session = Splitbft_types.Session
module Keys = Splitbft_types.Keys
module Addr = Splitbft_types.Addr
module Enclave_identity = Splitbft_types.Enclave_identity
module Enclave = Splitbft_tee.Enclave
module Measurement = Splitbft_tee.Measurement
module Box = Splitbft_crypto.Box
module Hmac = Splitbft_crypto.Hmac
module Kdf = Splitbft_crypto.Kdf
module Aead = Splitbft_crypto.Aead
module Sha256 = Splitbft_crypto.Sha256
module Rng = Splitbft_util.Rng
module State_machine = Splitbft_app.State_machine
module Log = Splitbft_consensus.Log
module Votes = Splitbft_consensus.Votes
module Ckpt = Splitbft_consensus.Ckpt
module Client_table = Splitbft_consensus.Client_table
module Sessions = Splitbft_consensus.Sessions
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Ledger = Splitbft_storage.Ledger
module Ledger_entry = Splitbft_storage.Entry

type byz = Exec_honest | Exec_leak | Exec_corrupt | Exec_lie_checkpoint

type probe = {
  view : unit -> int;
  last_executed : unit -> Ids.seqno;
  executed_total : unit -> int;
  executed_log : unit -> (Ids.seqno * string) list;
  app_digest : unit -> string;
  last_stable : unit -> Ids.seqno;
  sessions : unit -> int;
}

type state = {
  cfg : Config.t;
  prep_lookup : Validation.key_lookup;
  conf_lookup : Validation.key_lookup;
  exec_lookup : Validation.key_lookup;
  box : Box.keypair;
  app : State_machine.t;
  mutable view : Ids.view;
  batches : (string, Message.request list) Hashtbl.t;  (* by digest *)
  commits : (Ids.seqno, Message.commit) Votes.t;  (* current view *)
  (* commits addressed just above the window's high edge, parked until
     our own checkpoint stabilises (see Preparation.ahead) *)
  mutable ahead : Message.commit list;
  decided : string Log.t;  (* seq -> committed digest *)
  mutable last_executed : Ids.seqno;
  executed_log : (Ids.seqno, string) Hashtbl.t;
  clients : Client_table.t;
  sessions : Session.keys Sessions.t;
  ckpt : Ckpt.t;
  fetching : (string, unit) Hashtbl.t;  (* batch digests requested from peers *)
  mutable executed_total : int;
  snapshots : (Ids.seqno, string) Hashtbl.t;  (* app snapshots at checkpoint seqs *)
  sync_votes : (Ids.seqno, string * Message.request list) Votes.t;
  mutable sync_replies : (Ids.replica_id * Ids.seqno * Ids.view) list;
  quote_offered : (Ids.client_id, unit) Hashtbl.t;
  mutable instance_nonce : string;
  mutable recovering : bool;
  mutable recovered_once : bool;
      (* latches when recovery completes so a stale retry prompt from the
         broker cannot re-enter the unseal path of a synced incarnation *)
  mutable halted : bool;
  (* append-only rollback-protected ledger (None = storage disabled) *)
  mutable ledger : Ledger.t option;
}

let create_state (cfg : Config.t) ~app =
  { cfg;
    prep_lookup = Config.prep_public ~n:cfg.n;
    conf_lookup = Config.conf_public ~n:cfg.n;
    exec_lookup = Config.exec_public ~n:cfg.n;
    box = Box.derive ~seed:(Keys.enclave_box_seed cfg.id Ids.Execution);
    app = app ();
    view = 0;
    batches = Hashtbl.create 256;
    commits = Votes.create ~size:128 ();
    ahead = [];
    decided = Log.create ~window:cfg.watermark_window ();
    last_executed = 0;
    executed_log = Hashtbl.create 1024;
    clients = Client_table.create ();
    sessions = Sessions.create ();
    ckpt = Ckpt.create ~quorum:(Config.quorum cfg);
    fetching = Hashtbl.create 8;
    executed_total = 0;
    snapshots = Hashtbl.create 4;
    sync_votes = Votes.create ~size:32 ();
    sync_replies = [];
    quote_offered = Hashtbl.create 8;
    instance_nonce = "";
    recovering = false;
    recovered_once = false;
    halted = false;
    ledger =
      (if cfg.segment_entries > 0 then Some (Ledger.create ~segment_entries:cfg.segment_entries)
       else None) }

let in_window st seq = Log.in_window st.decided seq

(* ----- rollback-protected sealed checkpoints (§4–5) -----

   Every checkpoint, the compartment seals its recoverable state and binds
   the blob to a fresh value of a named monotonic counter.  A recovering
   incarnation accepts only the blob matching the current counter value: a
   host replaying an older blob (or wiping the counter) is detected and
   recovery aborts loudly instead of silently rejoining with stale state. *)

type recovery_image = {
  ri_counter : int64;
  ri_view : Ids.view;
  ri_last_executed : Ids.seqno;
  ri_snapshot : string;
  ri_executed : (Ids.seqno * string) list;
  ri_sessions : (Ids.client_id * Session.keys) list;
}

let encode_recovery_image ri =
  W.to_string
    (fun w () ->
      W.u64 w ri.ri_counter;
      W.varint w ri.ri_view;
      W.varint w ri.ri_last_executed;
      W.bytes w ri.ri_snapshot;
      W.list w
        (fun w (seq, d) ->
          W.varint w seq;
          W.bytes w d)
        ri.ri_executed;
      W.list w
        (fun w (c, (k : Session.keys)) ->
          W.varint w c;
          W.bytes w k.Session.auth;
          W.bytes w k.Session.enc)
        ri.ri_sessions)
    ()

let decode_recovery_image s =
  R.parse
    (fun r ->
      let ri_counter = R.u64 r in
      let ri_view = R.varint r in
      let ri_last_executed = R.varint r in
      let ri_snapshot = R.bytes r in
      let ri_executed =
        R.list r (fun r ->
            let seq = R.varint r in
            let d = R.bytes r in
            (seq, d))
      in
      let ri_sessions =
        R.list r (fun r ->
            let c = R.varint r in
            let auth = R.bytes r in
            let enc = R.bytes r in
            (c, Session.make ~auth ~enc))
      in
      { ri_counter; ri_view; ri_last_executed; ri_snapshot; ri_executed; ri_sessions })
    s

let seal_checkpoint_state env st seq snapshot =
  let counter = Enclave.counter_increment env "ckpt" in
  let image =
    { ri_counter = counter;
      ri_view = st.view;
      ri_last_executed = seq;
      ri_snapshot = snapshot;
      ri_executed =
        (* Explicit seqno order: polymorphic [compare] would also inspect
           the digest bytes, making the encoding order an accident of the
           pair representation rather than the log order. *)
        Hashtbl.fold (fun s d acc -> (s, d) :: acc) st.executed_log []
        |> List.sort Log.by_seqno;
      ri_sessions = Sessions.fold (fun c k acc -> (c, k) :: acc) st.sessions [] }
  in
  let sealed = Enclave.seal env (encode_recovery_image image) in
  Enclave.ocall env (Wire.encode_output (Wire.Out_persist { tag = "ckpt:execution"; data = sealed }))

(* Handler (8): originate a Checkpoint every interval.  An
   [Exec_lie_checkpoint] adversary signs checkpoints over a fabricated
   state digest — trying to stabilize a state no honest replica has.  One
   liar is contained: stability needs a quorum (2f+1) of {e matching}
   digests, which f lying enclaves can never assemble against 2f+1 honest
   ones; the lie costs only its own vote. *)
let send_checkpoint_if_due env st ~byz seq =
  if seq mod st.cfg.checkpoint_interval = 0 then
    (* The snapshot, certificate store and counter bump all run inline
       (state transitions stay in sequence order); with [exec_workers > 1]
       the snapshot/seal *cost* and the resulting broadcast ride a pool
       worker like any other background checkpointing thread would —
       otherwise every checkpoint serializes on the lane thread whose
       residue class happens to contain the checkpoint seqnos (with
       [checkpoint_interval] divisible by [lanes] that is always the same
       lane). *)
    Enclave.pool_run env (fun () ->
        let snapshot = st.app.State_machine.snapshot () in
        (* Kept so a later [State_request] can be served with the snapshot
           matching this (eventually stable) certified state digest. *)
        Hashtbl.replace st.snapshots seq snapshot;
        let state_digest =
          match byz with
          | Exec_lie_checkpoint -> Message.digest_of_batch []
          | Exec_honest | Exec_leak | Exec_corrupt -> State_machine.digest st.app
        in
        let ck = { Message.seq; state_digest; sender = st.cfg.id; ck_sig = "" } in
        let ck =
          { ck with ck_sig = Common.sign_with env (Message.checkpoint_signing_bytes ck) }
        in
        (* Own checkpoints never complete a quorum alone; advancing happens
           when peer checkpoints arrive through [Common.on_checkpoint]. *)
        Ckpt.store st.ckpt ck;
        Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Checkpoint ck)));
        seal_checkpoint_state env st seq snapshot;
        ([], []))

let gc st stable =
  Votes.prune st.commits ~keep:(fun seq -> seq > stable);
  Log.advance_low_mark st.decided stable;
  Log.prune st.decided ~upto:stable;
  let stale =
    Hashtbl.fold (fun s _ acc -> if s < stable then s :: acc else acc) st.snapshots []
  in
  List.iter (Hashtbl.remove st.snapshots) stale

let send_session_quote env st client =
  Hashtbl.replace st.quote_offered client ();
  let sq =
    { Message.sq_replica = st.cfg.id;
      sq_quote = Enclave.quote env;
      sq_box_public = st.box.Box.public;
      sq_nonce = st.instance_nonce;
      sq_sig = "" }
  in
  let sq = { sq with sq_sig = Common.sign_with env (Message.session_quote_signing_bytes sq) } in
  Enclave.emit env
    (Wire.encode_output (Wire.Out_send (Addr.client client, Message.Session_quote sq)))

(* Re-attestation path: a request we hold no session for means the client
   believes it is provisioned (e.g. it attested a previous incarnation
   whose sessions died with the crash) — push it a fresh quote, at most
   once per client per incarnation, so it can re-provision. *)
let offer_session env st client =
  if not (Hashtbl.mem st.quote_offered client) then send_session_quote env st client

(* Executes one request and returns its conflict footprint (the keys the
   decrypted operation reads/writes, per the application's [classify]) —
   empty for duplicates and operations that execute as no-ops — plus the
   plaintext operation when one was actually applied (what the ledger
   records: replaying exactly these reproduces the state transition). *)
let execute_request env st ~byz (req : Message.request) =
  let c = Enclave.cost_model env in
  Enclave.charge_crypto env (c.decrypt_request_us +. c.reply_auth_us);
  Enclave.charge_exec env c.exec_op_us;
  if Client_table.executed st.clients req.client req.timestamp then begin
    (* Duplicate (re-ordered after a view change, or a retransmission that
       raced execution): do not re-execute; retransmit the cached reply. *)
    (match Client_table.cached_reply st.clients req.client req.timestamp with
    | Some reply ->
      Enclave.emit env
        (Wire.encode_output (Wire.Out_send (Addr.client req.client, Message.Reply reply)))
    | None -> ());
    (State_machine.rw_none, None)
  end
  else begin
    let session = Sessions.find st.sessions req.client in
    let plaintext_op =
      match session with
      | None -> None
      | Some keys ->
        if Session.request_auth_ok keys req then
          match
            Session.decrypt_op keys ~client:req.client ~timestamp:req.timestamp req.payload
          with
          | Ok op -> Some op
          | Error _ -> None
        else None
    in
    (match byz, plaintext_op with
    | Exec_leak, Some op ->
      (* Exfiltrate the decrypted operation into untrusted storage. *)
      Enclave.emit env
        (Wire.encode_output (Wire.Out_persist { tag = "exfil"; data = op }))
    | (Exec_honest | Exec_corrupt | Exec_leak | Exec_lie_checkpoint), _ -> ());
    (* Corrupted operations are ordered but executed as a no-op (§4). *)
    let result, rw, applied =
      match byz, plaintext_op with
      | Exec_corrupt, Some _ -> ("CORRUPT", State_machine.rw_none, None)
      | _, Some op ->
        (st.app.State_machine.apply op, st.app.State_machine.classify op, Some op)
      | _, None -> (State_machine.noop_result, State_machine.rw_none, None)
    in
    st.executed_total <- st.executed_total + 1;
    (match session with
    | None ->
      Client_table.record st.clients req.client req.timestamp None;
      offer_session env st req.client
    | Some keys ->
      let encrypted =
        Session.encrypt_result keys ~client:req.client ~timestamp:req.timestamp
          ~replica:st.cfg.id result
      in
      let reply =
        { Message.view = st.view;
          timestamp = req.timestamp;
          client = req.client;
          sender = st.cfg.id;
          result = encrypted;
          r_auth = "" }
      in
      let reply = Session.authenticate_reply keys reply in
      Client_table.record st.clients req.client req.timestamp (Some reply);
      Enclave.emit env
        (Wire.encode_output (Wire.Out_send (Addr.client req.client, Message.Reply reply))));
    (rw, applied)
  end

(* ----- append-only rollback-protected ledger (Proteus-style) -----

   One entry per executed batch: (seq, committed digest, the plaintext
   operations actually applied), with the op payload AEAD-sealed under
   the ledger feed key so the untrusted host relaying it to followers
   learns nothing.  Segment rotation binds a sealed header to the
   "ledger" monotonic counter — the same rollback protection the "ckpt"
   counter gives sealed checkpoints. *)

let ledger_persist env recs =
  List.iter
    (fun (tag, data) ->
      Enclave.ocall env (Wire.encode_output (Wire.Out_persist { tag; data })))
    recs

let ledger_append env st ~seq ~digest ops =
  match st.ledger with
  | None -> ()
  | Some l ->
    let c = Enclave.cost_model env in
    Enclave.charge_io env c.ledger_block_us;
    let blob = Ledger_entry.encode_ops (List.rev ops) in
    Enclave.charge_crypto env (c.seal_per_byte_us *. float_of_int (String.length blob));
    let sealed_ops = Ledger_entry.seal_ops ~seq blob in
    ledger_persist env
      (Ledger.append l
         ~seal:(Enclave.seal env)
         ~counter:(fun () -> Enclave.counter_increment env "ledger")
         ~seq ~digest ~ops:sealed_ops)

(* Compaction: once a 2f+1 quorum certified a checkpoint, every sealed
   segment it fully covers is replaced by a sealed base record carrying
   the certified state digest — replay(base, remaining entries) is the
   exact pre-compaction state. *)
let compact_ledger env st stable =
  match st.ledger with
  | None -> ()
  | Some l ->
    let state_digest =
      match Ckpt.proof st.ckpt with
      | ck :: _ when ck.Message.seq = stable -> ck.Message.state_digest
      | _ -> ""
    in
    if String.length state_digest > 0 then
      ledger_persist env
        (Ledger.compact l ~stable ~state_digest
           ~seal:(Enclave.seal env)
           ~counter:(fun () -> Enclave.counter_increment env "ledger"))

let persist_effects env st =
  let c = Enclave.cost_model env in
  List.iter
    (fun (State_machine.Persist { tag; data }) ->
      (* One ocall per block, written sealed (sgx_tprotected_fs in the
         paper): block formation/write cost plus sealing (charged inside
         [Enclave.seal]) plus the ocall transition. *)
      Enclave.charge_io env c.ledger_block_us;
      let sealed = Enclave.seal env data in
      Enclave.ocall env (Wire.encode_output (Wire.Out_persist { tag; data = sealed })))
    (st.app.State_machine.drain_effects ())

let rec try_execute env st ~byz =
  let seq = st.last_executed + 1 in
  match Log.find st.decided seq with
  | None -> ()
  | Some digest ->
    let batch =
      if String.equal digest Message.empty_batch_digest then Some []
      else Hashtbl.find_opt st.batches digest
    in
    (match batch with
    | None ->
      (* Committed a digest without the bodies (re-proposed across a view
         change): fetch them, content-addressed, from peer Executions. *)
      if not (Hashtbl.mem st.fetching digest) then begin
        Hashtbl.replace st.fetching digest ();
        Enclave.emit env
          (Wire.encode_output
             (Wire.Out_broadcast
                (Message.Batch_fetch { bf_digest = digest; bf_requester = st.cfg.id })))
      end
    | Some batch ->
      st.last_executed <- seq;
      Hashtbl.replace st.executed_log seq digest;
      (* The batch executes as one pool task: state transitions happen
         here, in sequence order (so executed_log and reply contents are
         identical to serial execution by construction); with
         [exec_workers > 1] the batch's metered cost and its replies move
         to a worker thread that waits for any conflicting earlier batch
         per the accumulated read/write footprint. *)
      Enclave.pool_run env (fun () ->
          let rs, ws, ops =
            List.fold_left
              (fun (rs, ws, ops) req ->
                let rw, applied = execute_request env st ~byz req in
                ( List.rev_append rw.State_machine.reads rs,
                  List.rev_append rw.State_machine.writes ws,
                  match applied with Some op -> op :: ops | None -> ops ))
              ([], [], []) batch
          in
          (* The ledger append rides the same pool task: chain state
             advances inline in sequence order (deterministic), its cost
             and records follow the batch onto the worker. *)
          ledger_append env st ~seq ~digest ops;
          (rs, ws));
      persist_effects env st;
      send_checkpoint_if_due env st ~byz seq;
      try_execute env st ~byz)

(* ----- state transfer -----

   A recovering Execution broadcasts a [State_request]; peers answer with
   their checkpoint certificate, the snapshot matching its state digest and
   the decided log suffix.  The snapshot travels AEAD-protected under a key
   derived from the Execution measurement, modelling the attested
   enclave-to-enclave channel of the paper: the untrusted hosts relaying it
   learn nothing about application state. *)

let transfer_aad = "splitbft-state-transfer"

let transfer_key =
  lazy
    (Aead.prepare
       (Kdf.derive ~ikm:"splitbft-exec-state-transfer"
          ~info:(Measurement.to_raw Enclave_identity.execution) ~length:32 ()))

let transfer_nonce ~replier ~stable =
  String.sub (Sha256.digest (Printf.sprintf "st-nonce:%d:%d" replier stable)) 0 Aead.nonce_size

let on_state_request env st (sr : Message.state_request) =
  Enclave.charge_exec env 2.0;
  if sr.sr_requester <> st.cfg.id then begin
    let stable = Ckpt.last_stable st.ckpt in
    let snapshot =
      if stable > 0 && sr.sr_from <= stable then
        match Hashtbl.find_opt st.snapshots stable with
        | Some snap ->
          let c = Enclave.cost_model env in
          Enclave.charge_crypto env
            (c.seal_per_byte_us *. float_of_int (String.length snap));
          Aead.encrypt_with (Lazy.force transfer_key)
            ~nonce:(transfer_nonce ~replier:st.cfg.id ~stable)
            ~aad:transfer_aad snap
        | None -> ""
      else ""
    in
    let entries =
      Log.fold
        (fun seq digest acc ->
          if seq >= sr.sr_from && seq <= st.last_executed then
            match
              if String.equal digest Message.empty_batch_digest then Some []
              else Hashtbl.find_opt st.batches digest
            with
            | Some batch ->
              { Message.se_seq = seq; se_digest = digest; se_batch = batch } :: acc
            | None -> acc
          else acc)
        st.decided []
      |> List.sort (fun a b -> Int.compare a.Message.se_seq b.Message.se_seq)
    in
    let reply =
      { Message.st_replier = st.cfg.id;
        st_requester = sr.sr_requester;
        st_stable = stable;
        st_proof = Ckpt.proof st.ckpt;
        st_snapshot = snapshot;
        st_view = st.view;
        st_entries = entries }
    in
    Enclave.emit env
      (Wire.encode_output
         (Wire.Out_send (Addr.replica sr.sr_requester, Message.State_reply reply)))
  end

(* Caught up once we reach the height vouched by f+1 repliers (at least one
   honest, so the target is a height the cluster genuinely reached). *)
let finish_recovery_if_caught_up env st =
  if st.recovering then begin
    let f1 = Config.f st.cfg + 1 in
    if List.length st.sync_replies >= f1 then begin
      let heights =
        List.map (fun (_, h, _) -> h) st.sync_replies |> List.sort (fun a b -> Int.compare b a)
      in
      if st.last_executed >= List.nth heights (f1 - 1) then begin
        st.recovering <- false;
        st.recovered_once <- true;
        st.sync_replies <- [];
        Votes.reset st.sync_votes;
        Enclave.emit env (Wire.encode_output Wire.Out_recovered)
      end
    end
  end

let on_state_reply env st ~byz (sr : Message.state_reply) =
  Enclave.charge_exec env (1.0 +. float_of_int (List.length sr.st_entries));
  if st.recovering && sr.st_requester = st.cfg.id && sr.st_replier <> st.cfg.id
  then begin
    let quorum = Config.quorum st.cfg in
    (* Certified snapshot: install only if it moves us forward and its
       digest matches the checkpoint-quorum certificate. *)
    (if String.length sr.st_snapshot > 0 && sr.st_stable > st.last_executed then begin
       let proof_ok =
         if Config.hotpath st.cfg then
           (* f+1 repliers ship the same quorum certificate; the cache makes
              every copy after the first cost a lookup per checkpoint. *)
           Validation.checkpoint_quorum_seq ~quorum sr.st_proof = Some sr.st_stable
           && List.for_all (Common.verify_checkpoint_c env st.exec_lookup) sr.st_proof
         else begin
           Common.charge_verify env (List.length sr.st_proof);
           Validation.checkpoint_quorum_seq ~quorum sr.st_proof = Some sr.st_stable
           && List.for_all (Validation.verify_checkpoint st.exec_lookup) sr.st_proof
         end
       in
       if proof_ok then
         match
           Aead.decrypt_with (Lazy.force transfer_key)
             ~nonce:(transfer_nonce ~replier:sr.st_replier ~stable:sr.st_stable)
             ~aad:transfer_aad sr.st_snapshot
         with
         | Error _ -> ()
         | Ok snap ->
           let certified_digest =
             match sr.st_proof with
             | ck :: _ -> ck.Message.state_digest
             | [] -> ""
           in
           if String.equal (Sha256.digest snap) certified_digest then begin
             match st.app.State_machine.restore snap with
             | Error _ -> ()
             | Ok () ->
               ignore (st.app.State_machine.drain_effects ());
               st.last_executed <- sr.st_stable;
               Hashtbl.replace st.snapshots sr.st_stable snap;
               Ckpt.force_stable st.ckpt sr.st_stable;
               Log.advance_low_mark st.decided sr.st_stable
           end
     end);
    (* Log suffix: entries are content-addressed but unsigned, so install a
       slot only once f+1 distinct repliers vouch for the same digest. *)
    List.iter
      (fun (e : Message.state_entry) ->
        if
          e.se_seq > st.last_executed
          && (not (Log.mem st.decided e.se_seq))
          && String.equal (Message.digest_of_batch e.se_batch) e.se_digest
          && Votes.add st.sync_votes ~key:e.se_seq ~sender:sr.st_replier
               (e.se_digest, e.se_batch)
        then begin
          let matching =
            List.filter
              (fun (d, _) -> String.equal d e.se_digest)
              (Votes.get st.sync_votes e.se_seq)
          in
          if List.length matching >= Config.f st.cfg + 1 then begin
            Hashtbl.replace st.batches e.se_digest e.se_batch;
            Log.set st.decided e.se_seq e.se_digest
          end
        end)
      sr.st_entries;
    let vouched =
      List.fold_left
        (fun acc (e : Message.state_entry) -> max acc e.se_seq)
        sr.st_stable sr.st_entries
    in
    (* One live slot per replier: a retry round's reply supersedes the
       replier's earlier (possibly shorter) one. *)
    st.sync_replies <-
      (sr.st_replier, vouched, sr.st_view)
      :: List.filter (fun (r, _, _) -> r <> sr.st_replier) st.sync_replies;
    (* Adopt the view vouched by f+1 repliers so commits flowing in the
       cluster's current view are not discarded. *)
    let f1 = Config.f st.cfg + 1 in
    if List.length st.sync_replies >= f1 then begin
      let views =
        List.map (fun (_, _, v) -> v) st.sync_replies |> List.sort (fun a b -> Int.compare b a)
      in
      let v = List.nth views (f1 - 1) in
      if v > st.view then begin
        st.view <- v;
        Votes.reset st.commits;
        Enclave.emit env (Wire.encode_output (Wire.Out_entered_view st.view))
      end
    end;
    try_execute env st ~byz;
    finish_recovery_if_caught_up env st
  end

(* ----- restart handshake ----- *)

let on_recover env st blob_opt =
  if st.recovering then
    (* Retry round from the broker: commits in flight during the crash are
       lost, so one request can leave a gap.  Re-ask from where we are —
       re-unsealing now would roll freshly transferred state backward. *)
    Enclave.emit env
      (Wire.encode_output
         (Wire.Out_broadcast
            (Message.State_request { sr_requester = st.cfg.id; sr_from = st.last_executed + 1 })))
  else if st.recovered_once then ()
    (* stale retry prompt delivered after recovery completed *)
  else begin
  let refuse reason =
    st.halted <- true;
    Enclave.emit env (Wire.encode_output (Wire.Out_alert reason))
  in
  (* The enclave bumps the counter *inside* the seal, but the blob reaches
     disk through the untrusted host asynchronously — a crash can land
     between the two, legitimately losing the newest seal.  So acceptance
     tolerates exactly one slot: a blob bound to [counter] or
     [counter - 1].  A replayed blob is always ≥ 2 behind (or fails the
     absent-blob check below), so the tolerance never masks an attack; it
     costs at most one checkpoint interval of staleness, which state
     transfer repairs anyway. *)
  let counter = Enclave.counter_read env "ckpt" in
  (match blob_opt with
  | None ->
    (* A counter past 1 proves an earlier seal reached disk (the one-slot
       window only covers the newest); an absent blob means the host
       destroyed (or withheld) it — a rollback to the empty state. *)
    if Int64.compare counter 1L > 0 then
      refuse
        (Printf.sprintf
           "execution: rollback detected — counter at %Ld but no sealed checkpoint offered"
           counter)
  | Some sealed -> (
    match Enclave.unseal env sealed with
    | Error e -> refuse ("execution: sealed checkpoint rejected: " ^ e)
    | Ok blob -> (
      match decode_recovery_image blob with
      | Error e -> refuse ("execution: sealed checkpoint malformed: " ^ e)
      | Ok ri ->
        if
          Int64.compare ri.ri_counter counter <> 0
          && Int64.compare ri.ri_counter (Int64.pred counter) <> 0
        then
          refuse
            (Printf.sprintf
               "execution: rollback detected — sealed checkpoint bound to counter %Ld, \
                platform counter is %Ld"
               ri.ri_counter counter)
        else begin
          match st.app.State_machine.restore ri.ri_snapshot with
          | Error e -> refuse ("execution: sealed snapshot rejected by application: " ^ e)
          | Ok () ->
            ignore (st.app.State_machine.drain_effects ());
            st.view <- ri.ri_view;
            st.last_executed <- ri.ri_last_executed;
            List.iter (fun (s, d) -> Hashtbl.replace st.executed_log s d) ri.ri_executed;
            List.iter (fun (c, k) -> Sessions.set st.sessions c k) ri.ri_sessions;
            Hashtbl.replace st.snapshots ri.ri_last_executed ri.ri_snapshot;
            Ckpt.force_stable st.ckpt ri.ri_last_executed;
            Log.advance_low_mark st.decided ri.ri_last_executed
        end)));
  if not st.halted then begin
    st.recovering <- true;
    Enclave.emit env
      (Wire.encode_output
         (Wire.Out_broadcast
            (Message.State_request { sr_requester = st.cfg.id; sr_from = st.last_executed + 1 })))
  end
  end

(* Second phase of the restart handshake: the broker replays the
   persisted ledger records.  Chain verification, torn-tail truncation
   and the counter binding all live in [Ledger.recover]; a failure there
   is tampering (not a crash) and takes the same halt+alert path as a
   rolled-back checkpoint. *)
let on_ledger_recover env st records =
  match st.ledger with
  | None -> ()
  | Some _ ->
    let c = Enclave.cost_model env in
    Enclave.charge_io env (c.ledger_block_us *. float_of_int (List.length records));
    let counter = Enclave.counter_read env "ledger" in
    (match
       Ledger.recover ~segment_entries:st.cfg.segment_entries ~counter
         ~unseal:(Enclave.unseal env) records
     with
    | Error reason ->
      st.halted <- true;
      Enclave.emit env (Wire.encode_output (Wire.Out_alert ("execution: " ^ reason)))
    | Ok r -> st.ledger <- Some r.Ledger.ledger)

(* Full-request PrePrepares are duplicated into this compartment's log so
   Commits (which carry only digests) can be executed. *)
let on_preprepare env st ~byz (pp : Message.preprepare) =
  if Config.hotpath st.cfg then begin
    (* Content-addressed admission: the batch store is keyed by the batch's
       own digest and a slot only executes once a commit quorum decided
       that digest, so the primary's signature adds nothing here — exactly
       the argument that lets Batch_data bodies arrive unsigned.  The
       signature is still verified where it gates protocol steps
       (Preparation/Confirmation). *)
    let digest = Common.digest_of_batch_c env pp.batch in
    if not (Hashtbl.mem st.batches digest) then Hashtbl.replace st.batches digest pp.batch;
    try_execute env st ~byz
  end
  else begin
    Common.charge_verify env 1;
    if Validation.verify_preprepare st.prep_lookup pp then begin
      let digest = Message.digest_of_batch pp.batch in
      if not (Hashtbl.mem st.batches digest) then Hashtbl.replace st.batches digest pp.batch;
      try_execute env st ~byz
    end
  end

(* Handler (4): a commit certificate decides a sequence number. *)
let on_commit env st ~byz (c : Message.commit) =
  if c.view = st.view && Log.ahead_of_window st.decided c.seq then begin
    if List.length st.ahead < Log.window st.decided then st.ahead <- st.ahead @ [ c ]
  end
  else
  let accept env st ~byz (c : Message.commit) =
    if Votes.add st.commits ~key:c.seq ~sender:c.sender c then begin
      let commits = Votes.get st.commits c.seq in
      if
        Validation.commit_quorum_complete ~quorum:(Config.quorum st.cfg) ~view:st.view
          ~seq:c.seq ~digest:c.digest commits
      then begin
        Log.set st.decided c.seq c.digest;
        try_execute env st ~byz;
        finish_recovery_if_caught_up env st
      end
    end
  in
  if Config.hotpath st.cfg then begin
    (* A decided slot or a duplicate sender cannot advance the quorum;
       reject both before any signature work is charged. *)
    if
      c.view = st.view && in_window st c.seq
      && (not (Log.mem st.decided c.seq))
      && (not (Votes.mem st.commits ~key:c.seq ~sender:c.sender))
      && Common.verify_commit_c env st.conf_lookup c
    then accept env st ~byz c
  end
  else begin
    Common.charge_verify env 1;
    if
      c.view = st.view && in_window st c.seq
      && (not (Log.mem st.decided c.seq))
      && Validation.verify_commit st.conf_lookup c
    then accept env st ~byz c
  end

(* Handler (7'): checkpoint-and-view part of a NewView. *)
let on_newview env st (nv : Message.newview) =
  if
    nv.nv_view >= st.view
    && Common.newview_shallow_ok env ~hotpath:(Config.hotpath st.cfg)
         ~f:(Config.f st.cfg) ~n:st.cfg.n ~prep_lookup:st.prep_lookup
         ~conf_lookup:st.conf_lookup nv
  then begin
    ignore (Ckpt.absorb_newview st.ckpt nv);
    st.view <- nv.nv_view;
    Votes.reset st.commits;
    st.ahead <- [];
    let stable = Ckpt.last_stable st.ckpt in
    gc st stable;
    compact_ledger env st stable;
    Enclave.emit env (Wire.encode_output (Wire.Out_entered_view st.view))
  end

(* Session establishment (§4 step 1): quote, then receive the session keys
   through the attestation box, then acknowledge under the auth key. *)
let on_session_init env st (si : Message.session_init) = send_session_quote env st si.si_client

let on_session_key env st (sk : Message.session_key) =
  Enclave.charge_crypto env (Enclave.cost_model env).decrypt_request_us;
  if sk.sk_replica = st.cfg.id then begin
    match Box.decrypt st.box.Box.secret sk.sk_box with
    | Error _ -> ()
    | Ok provision -> (
      match Session.decode_provision provision with
      | Error _ -> ()
      | Ok keys when String.length keys.Session.enc > 0 ->
        Sessions.set st.sessions sk.sk_client keys;
        let sa = { Message.sa_replica = st.cfg.id; sa_client = sk.sk_client; sa_auth = "" } in
        let sa =
          { sa with
            sa_auth =
              Hmac.mac_with keys.Session.auth_key [ Message.session_ack_auth_bytes sa ] }
        in
        Enclave.emit env
          (Wire.encode_output
             (Wire.Out_send (Addr.client sk.sk_client, Message.Session_ack sa)))
      | Ok _ -> () (* a preparation-only provision is not for us *))
  end

let on_batch_fetch env st (bf : Message.batch_fetch) =
  Enclave.charge_exec env 1.0;
  match Hashtbl.find_opt st.batches bf.bf_digest with
  | Some batch when bf.bf_requester <> st.cfg.id ->
    Enclave.emit env
      (Wire.encode_output
         (Wire.Out_send
            (Addr.replica bf.bf_requester, Message.Batch_data { bd_batch = batch })))
  | Some _ | None -> ()

let on_batch_data env st ~byz (bd : Message.batch_data) =
  Enclave.charge_exec env 1.0;
  let digest = Message.digest_of_batch bd.bd_batch in
  if Hashtbl.mem st.fetching digest then begin
    Hashtbl.remove st.fetching digest;
    Hashtbl.replace st.batches digest bd.bd_batch;
    try_execute env st ~byz
  end

let handle env st ~byz (input : Wire.input) =
  if st.halted then ()
  else
    match input with
    | Wire.In_batch _ | Wire.In_suspect _ -> ()
    | Wire.In_recover blob -> on_recover env st blob
    | Wire.In_ledger records -> on_ledger_recover env st records
    | Wire.In_net msg -> (
      match msg with
      | Message.Preprepare pp -> on_preprepare env st ~byz pp
      | Message.Commit c -> on_commit env st ~byz c
      | Message.Batch_fetch bf -> on_batch_fetch env st bf
      | Message.Batch_data bd -> on_batch_data env st ~byz bd
      | Message.Newview nv -> on_newview env st nv
      | Message.Checkpoint ck ->
        Common.on_checkpoint env ~hotpath:(Config.hotpath st.cfg)
          ~exec_lookup:st.exec_lookup st.ckpt ck
          ~on_stable:(fun stable ->
            gc st stable;
            compact_ledger env st stable;
            (* The window just slid: re-drive commits that were ahead of
               it (any still ahead simply re-park). *)
            let pending = st.ahead in
            st.ahead <- [];
            List.iter (fun c -> on_commit env st ~byz c) pending;
            (* A quorum certified state a full interval past what we have
               executed (e.g. we sat out a partition): the commits we missed
               will not be retransmitted, so catch up through the same
               state-transfer path a restarted replica uses. *)
            if
              (not st.recovering)
              && stable >= st.last_executed + st.cfg.checkpoint_interval
            then begin
              st.recovering <- true;
              st.sync_replies <- [];
              Enclave.emit env
                (Wire.encode_output
                   (Wire.Out_broadcast
                      (Message.State_request
                         { sr_requester = st.cfg.id; sr_from = st.last_executed + 1 })))
            end)
      | Message.Session_init si -> on_session_init env st si
      | Message.Session_key sk -> on_session_key env st sk
      | Message.State_request sr -> on_state_request env st sr
      | Message.State_reply sr -> on_state_reply env st ~byz sr
      | Message.Request _ | Message.Preprepare_digest _ | Message.Prepare _
      | Message.Reply _ | Message.Viewchange _ | Message.Session_quote _
      | Message.Session_ack _ | Message.Ledger_subscribe _
      | Message.Ledger_feed _ | Message.Read_request _ | Message.Read_reply _ ->
        ())

let make ?(byz = Exec_honest) (cfg : Config.t) ~app =
  let current = ref (create_state cfg ~app) in
  let program env =
    let st = create_state cfg ~app in
    (* Fresh per incarnation: lets clients tell a recovered enclave (which
       needs re-provisioning) apart from a quote retransmission. *)
    st.instance_nonce <- Rng.bytes (Enclave.env_rng env) 16;
    current := st;
    fun payload ->
      match Wire.decode_input payload with
      | Error _ -> ()
      | Ok input -> handle env st ~byz input
  in
  let probe =
    { view = (fun () -> !current.view);
      last_executed = (fun () -> !current.last_executed);
      executed_total = (fun () -> !current.executed_total);
      executed_log =
        (fun () ->
          Hashtbl.fold (fun seq d acc -> (seq, d) :: acc) !current.executed_log []
          |> List.sort Log.by_seqno);
      app_digest = (fun () -> State_machine.digest !current.app);
      last_stable = (fun () -> Ckpt.last_stable !current.ckpt);
      sessions = (fun () -> Sessions.count !current.sessions) }
  in
  (program, probe)
