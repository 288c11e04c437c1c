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
module Catchup = Splitbft_consensus.Catchup
module View_change = Splitbft_consensus.View_change
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Ledger = Splitbft_storage.Ledger
module Ledger_entry = Splitbft_storage.Entry

type byz = Exec_honest | Exec_leak | Exec_corrupt | Exec_lie_checkpoint

(* What the test oracle sees of execution, reported as it happens so the
   history lives outside the compartment state: a fresh incarnation, the
   seq of the sealed image it accepted, each executed (seq, batch digest). *)
type report = Started | Restored of Ids.seqno | Executed of Ids.seqno * string

type probe = {
  view : unit -> int;
  last_executed : unit -> Ids.seqno;
  executed_total : unit -> int;
  app_digest : unit -> string;
  last_stable : unit -> Ids.seqno;
  sessions : unit -> int;
  body_bytes : unit -> int;
  decoded_executed : unit -> int;
}

(* A batch body held by digest.  Decoded while a slot waits to execute it;
   once executed, only the encoding its digest was computed over, decoded
   again only to serve a fetch or a state transfer, or to re-execute. *)
type body = Pending of Message.request list * string | Executed of string

(* Where the sealed checkpoint log stands (DESIGN.md §6a). *)
type log = {
  gen : int;  (* bases sealed so far; its parity names the base's disk slot *)
  base_seq : Ids.seqno;
  base_digest : string;
  head : string;  (* chain over the deltas since the base, from [base_digest] *)
  since_base : int;  (* delta bytes sealed since the base *)
}

type state = {
  cfg : Config.t;
  prep_lookup : Validation.key_lookup;
  conf_lookup : Validation.key_lookup;
  exec_lookup : Validation.key_lookup;
  box : Box.keypair;
  app : State_machine.t;
  mutable view : Ids.view;
  vc : View_change.t;  (* the views entered through a NewView *)
  batches : (string, Ids.seqno * body) Hashtbl.t;
      (* by digest: the body and the highest seq it was pre-prepared or
         decided at, which decides when [gc] drops it *)
  commits : (Ids.seqno, Message.commit) Votes.t;  (* current view *)
  (* commits addressed just above the window's high edge, parked until
     our own checkpoint stabilises (see Preparation.ahead) *)
  mutable ahead : Message.commit list;
  decided : string Log.t;  (* seq -> committed digest *)
  mutable last_executed : Ids.seqno;
  clients : Client_table.t;
  sessions : Session.keys Sessions.t;
  ckpt : Ckpt.t;
  fetching : (string, Ids.seqno) Hashtbl.t;  (* batch digests requested from peers *)
  mutable executed_total : int;
  snapshots : (Ids.seqno, string) Hashtbl.t;  (* app snapshots at checkpoint seqs *)
  mutable delta : string list;  (* writing ops applied since the last checkpoint, newest first *)
  mutable log : log;
  mutable base_due : bool;  (* the next checkpoint seals a base, not a delta *)
  sync : Ids.seqno Catchup.t;
  quote_offered : (Ids.client_id, unit) Hashtbl.t;
  mutable instance_nonce : string;
  mutable recovering : bool;
  mutable recovered_once : bool;
      (* latches when recovery completes so a stale retry prompt from the
         broker cannot re-enter the unseal path of a synced incarnation *)
  mutable halted : bool;
  (* append-only rollback-protected ledger (None = storage disabled) *)
  mutable ledger : Ledger.t option;
  report : report -> unit;  (* to the oracle; it keeps the history *)
}

let create_state (cfg : Config.t) ~app ~report =
  { cfg;
    prep_lookup = Config.prep_public ~n:cfg.n;
    conf_lookup = Config.conf_public ~n:cfg.n;
    exec_lookup = Config.exec_public ~n:cfg.n;
    box = Box.derive ~seed:(Keys.enclave_box_seed cfg.id Ids.Execution);
    app = app ();
    view = 0;
    vc = View_change.create ();
    batches = Hashtbl.create 256;
    commits = Votes.create ~size:128 ();
    ahead = [];
    decided = Log.create ~window:cfg.watermark_window ();
    last_executed = 0;
    clients = Client_table.create ();
    sessions = Sessions.create ();
    ckpt = Ckpt.create ~quorum:(Config.quorum cfg);
    fetching = Hashtbl.create 8;
    executed_total = 0;
    snapshots = Hashtbl.create 4;
    delta = [];
    log = { gen = 0; base_seq = 0; base_digest = ""; head = ""; since_base = 0 };
    base_due = true;
    sync = Catchup.create ~f:(Config.f cfg) ~compare:Int.compare;
    quote_offered = Hashtbl.create 8;
    instance_nonce = "";
    recovering = false;
    recovered_once = false;
    halted = false;
    ledger =
      (if cfg.segment_entries > 0 then Some (Ledger.create ~segment_entries:cfg.segment_entries)
       else None);
    report }

let in_window st seq = Log.in_window st.decided seq

(* Tampering, not a crash: the compartment stops and raises an alert. *)
let refuse env st reason =
  st.halted <- true;
  Enclave.emit env (Wire.encode_output (Wire.Out_alert reason))

(* ----- rollback-protected sealed checkpoints (§4–5, DESIGN.md §6a) -----

   Every checkpoint seals what was written since the previous one, not
   what is stored: the writing operations applied in the interval, as one
   delta chained from the last base.  Once the deltas sealed since that
   base would reach the size of the snapshot, the snapshot itself is
   sealed instead, as the next base.  So the sealed bytes stay within
   twice the bytes written, and recovery replays less than one base's
   worth of deltas.  The image, bound to the "ckpt" counter
   (Common.seal_checkpoint), names the base and the chain head: a base or
   delta that is dropped, reordered, replayed or stale no longer leads to
   that head, so no record needs a counter of its own.  Bases alternate
   between two disk slots, and a base drops the deltas of its slot, so
   the host keeps two generations: the image on disk may still name the
   previous one. *)

let image_tag = "ckpt:execution"
let base_tag gen = if gen land 1 = 0 then "ckpt:execution:base0" else "ckpt:execution:base1"
let delta_tag gen = if gen land 1 = 0 then "ckpt:execution:delta0" else "ckpt:execution:delta1"

let write_image w (st, seq) =
  let l = st.log in
  W.varint w st.view;
  W.varint w seq;
  W.varint w l.gen;
  W.varint w l.base_seq;
  W.bytes w l.base_digest;
  W.bytes w l.head;
  W.list w
    (fun w (c, (k : Session.keys)) ->
      W.varint w c;
      W.bytes w k.Session.auth;
      W.bytes w k.Session.enc)
    (Sessions.fold (fun c k acc -> (c, k) :: acc) st.sessions [])

let persist env tag data = Enclave.ocall env (Wire.encode_output (Wire.Out_persist { tag; data }))

let seal_log env st seq ~snapshot ~digest =
  let ops = Ledger_entry.encode_ops (List.rev st.delta) in
  st.delta <- [];
  let l = st.log in
  if st.base_due || l.since_base + String.length ops >= String.length snapshot then begin
    let gen = l.gen + 1 in
    st.base_due <- false;
    st.log <- { gen; base_seq = seq; base_digest = digest; head = digest; since_base = 0 };
    persist env (base_tag gen)
      (Enclave.seal env (W.to_string (fun w () -> W.varint w seq; W.bytes w snapshot) ()))
  end
  else begin
    let e = { Ledger_entry.seq; digest; ops } in
    let head = Ledger_entry.next_chain ~prev:l.head e in
    st.log <- { l with head; since_base = l.since_base + String.length ops };
    persist env (delta_tag l.gen) (Enclave.seal env (Ledger_entry.encode_record ~chain:head e))
  end

(* Rebuilds the state an image names: the base of its generation, then
   that slot's deltas in disk order until the chain reaches the image's
   head, each op replayed through the application.  A delta past the head
   is a write a crash cut off.  Returns the snapshot of the rebuilt
   state, whose digest must be the one the last link sealed. *)
let replay env st (l : log) records =
  let ( let* ) = Result.bind in
  let sealed tag =
    List.filter_map (fun (t, blob) -> if String.equal t tag then Some blob else None) records
  in
  let rec walk prev digest = function
    | _ when String.equal prev l.head -> Ok digest
    | [] -> Error "the sealed deltas do not reach the image's chain head"
    | blob :: rest ->
      let* e, _ = Result.bind (Enclave.unseal env blob) Ledger_entry.decode_record in
      let* ops = Ledger_entry.decode_ops e.Ledger_entry.ops in
      List.iter
        (fun op ->
          Enclave.charge_exec env (Enclave.cost_model env).exec_op_us;
          ignore (st.app.State_machine.apply op))
        ops;
      walk (Ledger_entry.next_chain ~prev e) e.digest rest
  in
  let* seq, snapshot =
    match sealed (base_tag l.gen) with
    | [ blob ] ->
      Result.bind (Enclave.unseal env blob)
        (R.parse (fun r ->
             let seq = R.varint r in
             (seq, R.bytes r)))
    | _ -> Error "no sealed base in the image's slot"
  in
  let* () =
    if seq = l.base_seq && String.equal (Sha256.digest snapshot) l.base_digest then
      st.app.State_machine.restore snapshot
    else Error "the sealed base is not the one the image names"
  in
  let* digest = walk l.base_digest l.base_digest (sealed (delta_tag l.gen)) in
  ignore (st.app.State_machine.drain_effects ());
  let snapshot = st.app.State_machine.snapshot () in
  if String.equal (Sha256.digest snapshot) digest then Ok snapshot
  else Error "the replayed state does not match its sealed digest"

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
       lane).  Pool tasks finish out of order (a delta sealed after a
       large base can finish first), but the chain must reach the disk in
       order: checkpoint tasks hand over their outputs in issue order. *)
    Enclave.pool_run ~in_order:true env (fun () ->
        let snapshot = st.app.State_machine.snapshot () in
        (* Kept so a later [State_request] can be served with the snapshot
           matching this (eventually stable) certified state digest. *)
        Hashtbl.replace st.snapshots seq snapshot;
        let digest = Sha256.digest snapshot in
        let state_digest =
          match byz with
          | Exec_lie_checkpoint -> Message.digest_of_batch []
          | Exec_honest | Exec_leak | Exec_corrupt -> digest
        in
        let ck = { Message.seq; state_digest; sender = st.cfg.id; ck_sig = "" } in
        let ck =
          { ck with ck_sig = Common.sign_with env (Message.checkpoint_signing_bytes ck) }
        in
        (* Own checkpoints never complete a quorum alone; advancing happens
           when peer checkpoints arrive through [Common.on_checkpoint]. *)
        Ckpt.store st.ckpt ck;
        Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Checkpoint ck)));
        seal_log env st seq ~snapshot ~digest;
        Common.seal_checkpoint env ~tag:image_tag write_image (st, seq);
        ([], []))

let encoding (Pending (_, enc) | Executed enc) = enc

(* Stores [digest]'s body, given as the batch and its encoding, if it is
   new, and raises the seq it is kept for. *)
let keep_batch st digest seq body =
  match (Hashtbl.find_opt st.batches digest, body) with
  | Some (s, b), _ -> if seq > s then Hashtbl.replace st.batches digest (seq, b)
  | None, Some (batch, enc) ->
    Hashtbl.replace st.batches digest
      (seq, if seq > st.last_executed then Pending (batch, enc) else Executed enc)
  | None, None -> ()

let find_batch st digest =
  match Hashtbl.find_opt st.batches digest with
  | Some (_, Pending (batch, _)) -> Some batch
  | Some (_, Executed enc) -> Result.to_option (Message.decode_batch enc)
  | None -> None

(* After [digest] executed at [seq]: keep only its encoding, unless a
   higher slot still waits to execute it. *)
let settle st digest seq =
  match Hashtbl.find_opt st.batches digest with
  | Some (s, Pending (_, enc)) when s <= seq -> Hashtbl.replace st.batches digest (s, Executed enc)
  | Some _ | None -> ()

let gc st stable =
  Votes.prune st.commits ~keep:(fun seq -> seq > stable);
  Log.advance_low_mark st.decided stable;
  Log.prune st.decided ~upto:stable;
  Hashtbl.filter_map_inplace (fun s snap -> if s < stable then None else Some snap) st.snapshots;
  (* Bodies outlive their slot by one checkpoint interval, so a laggard's
     [Batch_fetch] and a digest-only NewView re-proposal are still served;
     a replica a whole interval behind catches up by state transfer. *)
  let cut = stable - st.cfg.checkpoint_interval in
  Hashtbl.filter_map_inplace
    (fun _ (seq, b) ->
      if seq <= cut then None
      else if seq <= st.last_executed then Some (seq, Executed (encoding b))
      else Some (seq, b))
    st.batches

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

let ledger_persist env recs = List.iter (fun (tag, data) -> persist env tag data) recs

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
  List.iter
    (fun (State_machine.Persist { tag; data }) ->
      (* One ocall per block, written sealed (sgx_tprotected_fs in the
         paper): block formation/write cost plus sealing (charged inside
         [Enclave.seal]) plus the ocall transition. *)
      Enclave.charge_io env (Enclave.cost_model env).ledger_block_us;
      persist env tag (Enclave.seal env data))
    (st.app.State_machine.drain_effects ())

let rec try_execute env st ~byz =
  let seq = st.last_executed + 1 in
  match Log.find st.decided seq with
  | None -> ()
  | Some digest ->
    let batch =
      if String.equal digest Message.empty_batch_digest then Some []
      else find_batch st digest
    in
    (match batch with
    | None ->
      (* Committed a digest without the bodies (re-proposed across a view
         change): fetch them, content-addressed, from peer Executions. *)
      if not (Hashtbl.mem st.fetching digest) then begin
        Hashtbl.replace st.fetching digest seq;
        Enclave.emit env
          (Wire.encode_output
             (Wire.Out_broadcast
                (Message.Batch_fetch { bf_digest = digest; bf_requester = st.cfg.id })))
      end
    | Some batch ->
      st.last_executed <- seq;
      settle st digest seq;
      st.report (Executed (seq, digest));
      (* The batch executes as one pool task: state transitions happen
         here, in sequence order (so the execution order and replies are
         identical to serial execution by construction); with
         [exec_workers > 1] the batch's metered cost and its replies move
         to a worker thread that waits for any conflicting earlier batch
         per the accumulated read/write footprint. *)
      Enclave.pool_run env (fun () ->
          let rs, ws, ops =
            List.fold_left
              (fun (rs, ws, ops) req ->
                let rw, applied = execute_request env st ~byz req in
                (* What the next checkpoint's delta replays. *)
                if rw.State_machine.writes <> [] then
                  Option.iter (fun op -> st.delta <- op :: st.delta) applied;
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
  Enclave.charge_exec env (Enclave.cost_model env).state_request_us;
  if sr.sr_requester <> st.cfg.id then begin
    let snapshot stable =
      match Hashtbl.find_opt st.snapshots stable with
      | Some snap ->
        let c = Enclave.cost_model env in
        Enclave.charge_crypto env (c.seal_per_byte_us *. float_of_int (String.length snap));
        Aead.encrypt_with (Lazy.force transfer_key)
          ~nonce:(transfer_nonce ~replier:st.cfg.id ~stable)
          ~aad:transfer_aad snap
      | None -> ""
    in
    let reply =
      Catchup.serve sr ~replier:st.cfg.id ~view:st.view ~ckpt:st.ckpt ~snapshot
        ~upto:st.last_executed ~decided:(Log.find st.decided) ~body:(find_batch st)
    in
    Enclave.emit env
      (Wire.encode_output
         (Wire.Out_send (Addr.replica sr.sr_requester, Message.State_reply reply)))
  end

(* Enters state transfer, or re-asks in it, from the first slot not yet
   executed. *)
let request_state env st =
  st.recovering <- true;
  Enclave.emit env
    (Wire.encode_output
       (Wire.Out_broadcast
          (Message.State_request { sr_requester = st.cfg.id; sr_from = st.last_executed + 1 })))

let finish_recovery_if_caught_up env st =
  if st.recovering && Catchup.caught_up st.sync st.last_executed then begin
    st.recovering <- false;
    st.recovered_once <- true;
    Catchup.reset st.sync;
    Enclave.emit env (Wire.encode_output Wire.Out_recovered)
  end

let on_state_reply env st ~byz (sr : Message.state_reply) =
  let c = Enclave.cost_model env in
  Enclave.charge_exec env
    (c.state_reply_us +. (c.state_entry_us *. float_of_int (List.length sr.st_entries)));
  if st.recovering && sr.st_requester = st.cfg.id && sr.st_replier <> st.cfg.id
  then begin
    (* Certified snapshot: install only if it moves us forward and its
       digest matches the checkpoint-quorum certificate. *)
    (match
       Catchup.certified_snapshot ~quorum:(Config.quorum st.cfg)
         ~verify:(Validation.verify_checkpoint (Common.metered env st.exec_lookup))
         ~above:st.last_executed sr
         ~open_:(fun blob ->
           Result.to_option
             (Aead.decrypt_with (Lazy.force transfer_key)
                ~nonce:(transfer_nonce ~replier:sr.st_replier ~stable:sr.st_stable)
                ~aad:transfer_aad blob))
     with
    | None -> ()
    | Some snap -> (
      match st.app.State_machine.restore snap with
      | Error _ -> ()
      | Ok () ->
        ignore (st.app.State_machine.drain_effects ());
        (* The installed state descends from no base of ours. *)
        st.delta <- [];
        st.base_due <- true;
        st.last_executed <- sr.st_stable;
        Hashtbl.replace st.snapshots sr.st_stable snap;
        Ckpt.force_stable st.ckpt sr.st_stable;
        Log.advance_low_mark st.decided sr.st_stable));
    (* Log suffix: decide a slot once f+1 repliers vouch for its digest. *)
    Catchup.absorb st.sync sr
      ~admit:(fun seq -> seq > st.last_executed && not (Log.mem st.decided seq))
      ~install:(fun (e : Message.state_entry) ->
        keep_batch st e.se_digest e.se_seq (Some (e.se_batch, Message.encode_batch e.se_batch));
        Log.set st.decided e.se_seq e.se_digest);
    (* Adopt the vouched view so commits flowing in the cluster's current
       view are not discarded. *)
    (match Catchup.vouched_view st.sync with
    | Some v when v > st.view ->
      st.view <- v;
      Votes.reset st.commits;
      Enclave.emit env (Wire.encode_output (Wire.Out_entered_view st.view))
    | _ -> ());
    try_execute env st ~byz;
    finish_recovery_if_caught_up env st
  end

(* ----- restart handshake -----

   The broker hands a restarted Execution every record it persisted: the
   image, the bases and deltas it names, and the ledger.  Chain
   verification, torn-tail truncation and the counter binding of the
   ledger all live in [Ledger.recover]; a failure there is tampering (not
   a crash) and takes the same halt+alert path as a rolled-back
   checkpoint. *)

let on_ledger_recover env st records =
  match st.ledger with
  | None -> ()
  | Some _ -> (
    let records = List.filter (fun (tag, _) -> Ledger.is_ledger_tag tag) records in
    let c = Enclave.cost_model env in
    Enclave.charge_io env (c.ledger_block_us *. float_of_int (List.length records));
    let counter = Enclave.counter_read env "ledger" in
    match
      Ledger.recover ~segment_entries:st.cfg.segment_entries ~counter
        ~unseal:(Enclave.unseal env) records
    with
    | Error reason -> refuse env st ("execution: " ^ reason)
    | Ok r -> st.ledger <- Some r.Ledger.ledger)

let on_recover env st records =
  if st.recovering then
    (* Retry round from the broker: commits in flight during the crash are
       lost, so one request can leave a gap.  Re-ask from where we are —
       re-unsealing now would roll freshly transferred state backward. *)
    request_state env st
  else if st.recovered_once then ()
    (* stale retry prompt delivered after recovery completed *)
  else begin
  (match
     Common.open_checkpoint env ~who:"execution" ~tag:image_tag records (fun r ->
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
               (c, Session.make ~auth ~enc:(R.bytes r)))
         in
         (view, last, { gen; base_seq; base_digest; head; since_base = 0 }, sessions))
   with
  | Fresh -> ()
  | Refused reason -> refuse env st reason
  | Restored (view, last, log, sessions) -> (
    match replay env st log records with
    | Error e -> refuse env st ("execution: " ^ e)
    | Ok snapshot ->
      (* [base_due] stays set: a delta appended now could follow deltas
         a crash left past the head, where no later walk reaches it. *)
      st.log <- log;
      st.view <- view;
      st.last_executed <- last;
      st.report (Restored last);
      List.iter (fun (c, k) -> Sessions.set st.sessions c k) sessions;
      Hashtbl.replace st.snapshots last snapshot;
      Ckpt.force_stable st.ckpt last;
      Log.advance_low_mark st.decided last));
  if not st.halted then on_ledger_recover env st records;
  if not st.halted then request_state env st
  end

(* Full-request PrePrepares are duplicated into this compartment's log so
   Commits (which carry only digests) can be executed. *)
let on_preprepare env st ~byz (pp : Message.preprepare) =
  (* Content-addressed admission: the batch store is keyed by the batch's
     own digest and a slot only executes once a commit quorum decided
     that digest, so the primary's signature adds nothing here — exactly
     the argument that lets Batch_data bodies arrive unsigned.  The
     signature is still verified where it gates protocol steps
     (Preparation/Confirmation). *)
  let enc = Message.encode_batch pp.batch in
  keep_batch st (Message.digest_of_encoded_batch enc) pp.seq (Some (pp.batch, enc));
  try_execute env st ~byz

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
        keep_batch st c.digest c.seq None;
        try_execute env st ~byz;
        finish_recovery_if_caught_up env st
      end
    end
  in
  (* A decided slot or a duplicate sender cannot advance the quorum;
     reject both before any signature work is charged. *)
  if
    c.view = st.view && in_window st c.seq
    && (not (Log.mem st.decided c.seq))
    && (not (Votes.mem st.commits ~key:c.seq ~sender:c.sender))
    && Validation.verify_commit (Common.metered env st.conf_lookup) c
  then accept env st ~byz c

(* Handler (7'): checkpoint-and-view part of a NewView. *)
let on_newview env st (nv : Message.newview) =
  if
    View_change.acceptable st.vc ~n:st.cfg.n ~current:st.view nv
    && View_change.verify_newview ~nv_lookup:(Common.metered env st.prep_lookup)
         ~vc_ok:(Validation.verify_viewchange (Common.metered env st.conf_lookup)) nv
  then begin
    Ckpt.absorb_newview st.ckpt nv;
    st.view <- nv.nv_view;
    View_change.enter st.vc nv.nv_view;
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
  Enclave.charge_exec env (Enclave.cost_model env).batch_fetch_us;
  match find_batch st bf.bf_digest with
  | Some batch when bf.bf_requester <> st.cfg.id ->
    Enclave.emit env
      (Wire.encode_output
         (Wire.Out_send
            (Addr.replica bf.bf_requester, Message.Batch_data { bd_batch = batch })))
  | Some _ | None -> ()

let on_batch_data env st ~byz (bd : Message.batch_data) =
  Enclave.charge_exec env (Enclave.cost_model env).batch_data_us;
  let enc = Message.encode_batch bd.bd_batch in
  let digest = Message.digest_of_encoded_batch enc in
  match Hashtbl.find_opt st.fetching digest with
  | None -> ()
  | Some seq ->
    Hashtbl.remove st.fetching digest;
    keep_batch st digest seq (Some (bd.bd_batch, enc));
    try_execute env st ~byz

let handle env st ~byz (input : Wire.input) =
  if st.halted then ()
  else
    match input with
    | Wire.In_batch _ | Wire.In_suspect _ -> ()
    | Wire.In_recover records -> on_recover env st records
    | Wire.In_net msg -> (
      match msg with
      | Message.Preprepare pp -> on_preprepare env st ~byz pp
      | Message.Commit c -> on_commit env st ~byz c
      | Message.Batch_fetch bf -> on_batch_fetch env st bf
      | Message.Batch_data bd -> on_batch_data env st ~byz bd
      | Message.Newview nv -> on_newview env st nv
      | Message.Checkpoint ck ->
        Common.on_checkpoint env ~exec_lookup:st.exec_lookup st.ckpt ck
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
            then request_state env st)
      | Message.Session_init si -> on_session_init env st si
      | Message.Session_key sk -> on_session_key env st sk
      | Message.State_request sr -> on_state_request env st sr
      | Message.State_reply sr -> on_state_reply env st ~byz sr
      | Message.Request _ | Message.Preprepare_digest _ | Message.Prepare _
      | Message.Reply _ | Message.Viewchange _ | Message.Session_quote _
      | Message.Session_ack _ | Message.Ledger_subscribe _
      | Message.Ledger_feed _ | Message.Read_request _ | Message.Read_reply _ ->
        ())

let make ?(byz = Exec_honest) ?(report = ignore) (cfg : Config.t) ~app =
  let current = ref (create_state cfg ~app ~report:ignore) in
  let program env =
    let st = create_state cfg ~app ~report in
    report Started;
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
      app_digest = (fun () -> State_machine.digest !current.app);
      last_stable = (fun () -> Ckpt.last_stable !current.ckpt);
      sessions = (fun () -> Sessions.count !current.sessions);
      body_bytes =
        (fun () ->
          Hashtbl.fold (fun _ (_, b) n -> n + String.length (encoding b)) !current.batches 0);
      decoded_executed =
        (fun () ->
          let st = !current in
          Hashtbl.fold
            (fun _ (seq, b) n ->
              match b with Pending _ when seq <= st.last_executed -> n + 1 | _ -> n)
            st.batches 0) }
  in
  (program, probe)
