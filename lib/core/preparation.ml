module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Session = Splitbft_types.Session
module Keys = Splitbft_types.Keys
module Addr = Splitbft_types.Addr
module Enclave = Splitbft_tee.Enclave
module Signature = Splitbft_crypto.Signature
module Box = Splitbft_crypto.Box
module Hmac = Splitbft_crypto.Hmac
module Log = Splitbft_consensus.Log
module Votes = Splitbft_consensus.Votes
module Ckpt = Splitbft_consensus.Ckpt
module Client_table = Splitbft_consensus.Client_table
module Sessions = Splitbft_consensus.Sessions
module Proofs = Splitbft_consensus.Proofs
module Newview_logic = Splitbft_consensus.Newview
module Rng = Splitbft_util.Rng
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

type byz = Prep_honest | Prep_equivocate | Prep_corrupt_digest

type probe = {
  view : unit -> int;
  next_seq : unit -> int;
  last_stable : unit -> int;
  sessions : unit -> int;
  parked : unit -> int;
  lane_cursors : unit -> int list;
}

type state = {
  cfg : Config.t;
  prep_lookup : Validation.key_lookup;
  conf_lookup : Validation.key_lookup;
  exec_lookup : Validation.key_lookup;
  box : Box.keypair;
  mutable view : Ids.view;
  mutable next_seq : Ids.seqno;
  (* Per-lane issuance cursors.  Sequence number [s] belongs to lane
     [(s - 1) mod lanes]; [lane_next.(l)] is the smallest unissued seqno
     of lane [l].  Issuance always takes the globally smallest cursor, so
     issued seqnos stay contiguous and [next_seq] remains the minimum over
     all lanes — which is also what the recovery image stores; the
     per-lane cursors re-derive from it via [realign_lanes]. *)
  lane_next : Ids.seqno array;
  (* Batches that arrived while the acceptance window was full, waiting
     for checkpoint stabilization to slide it forward (oldest first). *)
  mutable parked : Message.request list list;
  (* Preprepares/Prepares addressed just above the window's high edge:
     their sender's checkpoint stabilised before ours did.  Parked until
     our own window slides — dropping them would strand the seqno until a
     view change (the receiver-side half of the window-edge stall). *)
  mutable ahead : Message.t list;
  (* in_prep: own and accepted proposals plus the duplicated prepare log *)
  preprepares : Message.preprepare Log.t;
  prepares : (Ids.seqno, Message.prepare) Votes.t;
  assigned : Client_table.t;  (* client timestamps already given a seqno *)
  sessions : (string * Hmac.key) Sessions.t;  (* client auth keys, raw and prepared *)
  viewchanges : (Ids.view, Message.viewchange) Votes.t;
  ckpt : Ckpt.t;
  mutable instance_nonce : string;
  mutable halted : bool;
}

let create_state (cfg : Config.t) =
  if cfg.lanes < 1 then invalid_arg "Preparation: lanes must be >= 1";
  { cfg;
    prep_lookup = Config.prep_public ~n:cfg.n;
    conf_lookup = Config.conf_public ~n:cfg.n;
    exec_lookup = Config.exec_public ~n:cfg.n;
    box = Box.derive ~seed:(Keys.enclave_box_seed cfg.id Ids.Preparation);
    view = 0;
    next_seq = 1;
    lane_next = Array.init cfg.lanes (fun l -> l + 1);
    parked = [];
    ahead = [];
    preprepares = Log.create ~window:cfg.watermark_window ();
    prepares = Votes.create ~size:128 ();
    assigned = Client_table.create ();
    sessions = Sessions.create ();
    viewchanges = Votes.create ~size:4 ();
    ckpt = Ckpt.create ~quorum:(Config.quorum cfg);
    instance_nonce = "";
    halted = false }

let is_primary st = Config.primary_of_view st.cfg st.view = st.cfg.id
let in_window st seq = Log.in_window st.preprepares seq

(* Reset every lane cursor to the smallest lane-congruent seqno above
   [base] — the per-lane equivalent of [next_seq <- base + 1].  Used
   wherever the single-lane path resets [next_seq]: checkpoint GC, view
   entry, and recovery from a sealed checkpoint. *)
let realign_lanes st base =
  let k = Array.length st.lane_next in
  for l = 0 to k - 1 do
    st.lane_next.(l) <- base + 1 + ((((l - base) mod k) + k) mod k)
  done

(* Take the globally smallest unissued seqno and advance its lane. *)
let take_next_seq st =
  let k = Array.length st.lane_next in
  let seq = st.next_seq in
  let lane = (seq - 1) mod k in
  assert (st.lane_next.(lane) = seq);
  st.lane_next.(lane) <- seq + k;
  st.next_seq <- seq + 1;
  seq

let charge_client_auth env st count =
  Enclave.charge_crypto env
    ((Enclave.cost_model env).client_auth_us *. float_of_int count);
  ignore st

let request_ok st (r : Message.request) =
  match Sessions.find st.sessions r.client with
  | None -> false
  | Some (_, auth_key) ->
    Hmac.verify_with auth_key ~msg:(Message.request_auth_bytes r) ~tag:r.auth

let sign_pp env pp =
  { pp with Message.pp_sig = Common.sign_with env (Message.preprepare_signing_bytes pp) }

(* A byzantine primary enclave equivocates: two conflicting proposals for
   one sequence number, each unicast to half the replicas (including this
   replica itself, so its own sibling compartments see one version too). *)
let equivocate env st seq batch =
  let pp_a = sign_pp env { Message.view = st.view; seq; batch; sender = st.cfg.id; pp_sig = "" } in
  (* The conflicting proposal is the (valid) empty batch, so honest
     receivers cannot reject it on client-authentication grounds. *)
  let pp_b = sign_pp env { Message.view = st.view; seq; batch = []; sender = st.cfg.id; pp_sig = "" } in
  Log.set st.preprepares seq pp_a;
  for j = 0 to st.cfg.n - 1 do
    let pp = if j mod 2 = 1 then pp_a else pp_b in
    Enclave.emit env
      (Wire.encode_output (Wire.Out_send (Addr.replica j, Message.Preprepare pp)))
  done

(* A byzantine primary enclave with a lying digest: it signs a proposal
   whose digest matches no batch any client ever authorized, and unicasts
   it in digest form so no environment can attach a plausible body.
   Honest Confirmations may log the digest, but no honest Preparation
   ever sees a matching PrePrepare — the prepare certificate cannot
   complete, and no Execution can ever fetch a batch for it.  The slot
   stalls: a liveness attack whose harmlessness to safety the model
   checker establishes. *)
let corrupt_digest env st seq =
  let phantom =
    [ { Message.client = 0; timestamp = 0L; payload = "corrupt-digest"; auth = "" } ]
  in
  let pd =
    { Message.pd_view = st.view;
      pd_seq = seq;
      pd_digest = Message.digest_of_batch phantom;
      pd_sender = st.cfg.id;
      pd_sig = "" }
  in
  let pd =
    { pd with
      Message.pd_sig = Common.sign_with env (Message.preprepare_digest_signing_bytes pd) }
  in
  for j = 0 to st.cfg.n - 1 do
    Enclave.emit env
      (Wire.encode_output (Wire.Out_send (Addr.replica j, Message.Preprepare_digest pd)))
  done

(* Handler (1): batch from the environment — primary only.  A batch that
   arrives while the acceptance window is full is parked, not dropped:
   checkpoint stabilization slides the window forward and
   [drain_parked] re-drives it (previously such batches were silently
   lost and only a client retransmit could revive them — the
   watermark-edge leader stall). *)
let on_batch env st ~byz ?(elide = true) reqs =
  if is_primary st then begin
    if not (in_window st st.next_seq) then begin
      if List.length st.parked < Log.window st.preprepares then
        st.parked <- st.parked @ [ reqs ]
    end
    else begin
      charge_client_auth env st (List.length reqs);
      let fresh (r : Message.request) =
        request_ok st r && not (Client_table.already_assigned st.assigned r.client r.timestamp)
      in
      let batch = List.filter fresh reqs in
      if batch <> [] then begin
        List.iter
          (fun (r : Message.request) ->
            Client_table.note_assigned st.assigned r.client r.timestamp)
          batch;
        let seq = take_next_seq st in
        match byz with
        | Prep_equivocate -> equivocate env st seq batch
        | Prep_corrupt_digest -> corrupt_digest env st seq
        | Prep_honest ->
          let pp =
            sign_pp env { Message.view = st.view; seq; batch; sender = st.cfg.id; pp_sig = "" }
          in
          Log.set st.preprepares seq pp;
          let wire =
            (* Body elision: the signature covers the digest form (see
               [Message.signing_bytes_of_proposal]), so when freshness
               filtering dropped nothing the broker — which copied this
               exact batch in one ecall ago — re-attaches the body outside
               the boundary instead of paying to copy it back out.
               Receivers verify the signed digest against the re-attached
               body, so a confused or malicious broker can only make the
               proposal fail verification, never change what is ordered. *)
            if elide && Config.hotpath st.cfg && List.length batch = List.length reqs
            then Message.Preprepare_digest (Message.summarize pp)
            else Message.Preprepare pp
          in
          Enclave.emit env (Wire.encode_output (Wire.Out_broadcast wire))
      end
    end
  end

(* Re-drive parked batches once the window has room again. *)
let drain_parked env st ~byz =
  let rec go () =
    match st.parked with
    | reqs :: rest when is_primary st && in_window st st.next_seq ->
      st.parked <- rest;
      (* Drained outside the In_batch ecall that carried the body, so the
         broker can no longer re-attach it: send the full form. *)
      on_batch env st ~byz ~elide:false reqs;
      go ()
    | _ -> ()
  in
  go ()

(* Handler (2): PrePrepare from the primary — backups answer with a
   Prepare.  Authentication of the batched client requests is charged; an
   individual corrupted operation is still ordered and later no-oped by
   Execution (§4), so it does not invalidate the proposal. *)
let accept_preprepare env st (pp : Message.preprepare) ~digest =
  Log.set st.preprepares pp.seq pp;
  let p = { Message.view = st.view; seq = pp.seq; digest; sender = st.cfg.id; p_sig = "" } in
  let p = { p with p_sig = Common.sign_with env (Message.prepare_signing_bytes p) } in
  ignore (Votes.add st.prepares ~key:pp.seq ~sender:st.cfg.id p);
  Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Prepare p)))

let preprepare_plausible st (pp : Message.preprepare) =
  pp.view = st.view
  && pp.sender = Config.primary_of_view st.cfg st.view
  && pp.sender <> st.cfg.id
  && in_window st pp.seq
  && not (Log.mem st.preprepares pp.seq)

let park_ahead st msg =
  if List.length st.ahead < Log.window st.preprepares then
    st.ahead <- st.ahead @ [ msg ]

let on_preprepare env st (pp : Message.preprepare) =
  if pp.view = st.view && Log.ahead_of_window st.preprepares pp.seq then
    park_ahead st (Message.Preprepare pp)
  else if Config.hotpath st.cfg then begin
    (* Cheap structural checks before any crypto is charged; the batch is
       hashed once and the digest reused for signature check and Prepare. *)
    if preprepare_plausible st pp then begin
      charge_client_auth env st (List.length pp.batch);
      let digest = Common.digest_of_batch_c env pp.batch in
      if Common.verify_preprepare_c env st.prep_lookup pp ~digest then
        accept_preprepare env st pp ~digest
    end
  end
  else begin
    Common.charge_verify env 1;
    charge_client_auth env st (List.length pp.batch);
    if preprepare_plausible st pp && Validation.verify_preprepare st.prep_lookup pp
    then accept_preprepare env st pp ~digest:(Message.digest_of_batch pp.batch)
  end

(* Prepares are duplicated into this compartment's input log (P3). *)
let on_prepare env st (p : Message.prepare) =
  if p.view = st.view && Log.ahead_of_window st.preprepares p.seq then
    park_ahead st (Message.Prepare p)
  else if Config.hotpath st.cfg then begin
    if
      p.view = st.view
      && in_window st p.seq
      && (not (Votes.mem st.prepares ~key:p.seq ~sender:p.sender))
      && Common.verify_prepare_c env st.prep_lookup p
    then ignore (Votes.add st.prepares ~key:p.seq ~sender:p.sender p)
  end
  else begin
    Common.charge_verify env 1;
    if p.view = st.view && in_window st p.seq && Validation.verify_prepare st.prep_lookup p
    then ignore (Votes.add st.prepares ~key:p.seq ~sender:p.sender p)
  end

(* Re-inject messages that were ahead of the window before it slid; any
   still ahead simply re-park. *)
let drain_ahead env st =
  let pending = st.ahead in
  st.ahead <- [];
  List.iter
    (function
      | Message.Preprepare pp -> on_preprepare env st pp
      | Message.Prepare p -> on_prepare env st p
      | _ -> ())
    pending

let gc st stable =
  Log.advance_low_mark st.preprepares stable;
  Log.prune st.preprepares ~upto:stable;
  Votes.prune st.prepares ~keep:(fun seq -> seq > stable);
  if st.next_seq <= stable then begin
    st.next_seq <- stable + 1;
    realign_lanes st stable
  end

(* ----- rollback-protected sealed checkpoints -----

   Sealed at every checkpoint stabilization, bound to this compartment's
   own monotonic counter (the counter namespace is per-measurement, so the
   three compartments of one replica do not collide). *)

let encode_recovery_image ~counter st =
  W.to_string
    (fun w () ->
      W.u64 w counter;
      W.varint w st.view;
      W.varint w st.next_seq;
      W.varint w (Ckpt.last_stable st.ckpt);
      W.list w
        (fun w (c, (auth, _)) ->
          W.varint w c;
          W.bytes w auth)
        (Sessions.fold (fun c k acc -> (c, k) :: acc) st.sessions []))
    ()

let decode_recovery_image s =
  R.parse
    (fun r ->
      let counter = R.u64 r in
      let view = R.varint r in
      let next_seq = R.varint r in
      let last_stable = R.varint r in
      let sessions =
        R.list r (fun r ->
            let c = R.varint r in
            let auth = R.bytes r in
            (c, auth))
      in
      (counter, view, next_seq, last_stable, sessions))
    s

let seal_checkpoint_state env st =
  let counter = Enclave.counter_increment env "ckpt" in
  let sealed = Enclave.seal env (encode_recovery_image ~counter st) in
  Enclave.ocall env
    (Wire.encode_output (Wire.Out_persist { tag = "ckpt:preparation"; data = sealed }))

let on_recover env st blob_opt =
  let refuse reason =
    st.halted <- true;
    Enclave.emit env (Wire.encode_output (Wire.Out_alert reason))
  in
  (* One-slot tolerance: the counter bumps inside the seal but the blob is
     persisted asynchronously by the untrusted host, so a crash can
     legitimately lose the newest seal (see Execution.on_recover). *)
  let counter = Enclave.counter_read env "ckpt" in
  match blob_opt with
  | None ->
    if Int64.compare counter 1L > 0 then
      refuse
        (Printf.sprintf
           "preparation: rollback detected — counter at %Ld but no sealed checkpoint offered"
           counter)
  | Some sealed -> (
    match Enclave.unseal env sealed with
    | Error e -> refuse ("preparation: sealed checkpoint rejected: " ^ e)
    | Ok blob -> (
      match decode_recovery_image blob with
      | Error e -> refuse ("preparation: sealed checkpoint malformed: " ^ e)
      | Ok (sealed_counter, view, next_seq, last_stable, sessions) ->
        if
          Int64.compare sealed_counter counter <> 0
          && Int64.compare sealed_counter (Int64.pred counter) <> 0
        then
          refuse
            (Printf.sprintf
               "preparation: rollback detected — sealed checkpoint bound to counter %Ld, \
                platform counter is %Ld"
               sealed_counter counter)
        else begin
          st.view <- view;
          st.next_seq <- next_seq;
          (* The image stores only the minimum cursor; each lane's cursor
             re-derives as the smallest lane-congruent seqno at or above
             it, exactly as the single-lane path resumes from next_seq. *)
          realign_lanes st (next_seq - 1);
          List.iter (fun (c, auth) -> Sessions.set st.sessions c (auth, Hmac.prepare auth)) sessions;
          Ckpt.force_stable st.ckpt last_stable;
          Log.advance_low_mark st.preprepares last_stable
        end))

let enter_view env st ~view ~max_s =
  st.view <- view;
  st.next_seq <- max max_s (Ckpt.last_stable st.ckpt) + 1;
  realign_lanes st (st.next_seq - 1);
  (* Parked batches belong to the dead view's primary; the clients'
     retransmissions re-drive them through the new one. *)
  st.parked <- [];
  st.ahead <- [];
  Log.reset st.preprepares;
  Votes.reset st.prepares;
  (* Requests assigned in the dead view may have been lost with it; allow
     client retransmissions to be ordered again (Execution deduplicates by
     timestamp, so re-ordering cannot double-execute). *)
  Client_table.reset_assignments st.assigned;
  Enclave.emit env (Wire.encode_output (Wire.Out_entered_view view))

(* Handler (6): quorum of ViewChanges — the new primary emits a NewView. *)
let maybe_send_newview env st target =
  if Config.primary_of_view st.cfg target = st.cfg.id && target >= st.view then begin
    let vcs = Votes.get st.viewchanges target in
    if List.length vcs >= Config.quorum st.cfg then begin
      let min_s, max_s, pds =
        Newview_logic.compute ~view:target ~sender:st.cfg.id vcs
      in
      Common.charge_sign env (List.length pds);
      let signed_pds =
        List.map
          (fun (pd : Message.preprepare_digest) ->
            { pd with
              Message.pd_sig =
                Signature.sign (Enclave.env_keypair env).Signature.secret
                  (Message.preprepare_digest_signing_bytes pd) })
          pds
      in
      let nv =
        { Message.nv_view = target;
          nv_viewchanges = vcs;
          nv_preprepares = signed_pds;
          nv_sender = st.cfg.id;
          nv_sig = "" }
      in
      let nv = { nv with nv_sig = Common.sign_with env (Message.newview_signing_bytes nv) } in
      ignore min_s;
      Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Newview nv)));
      enter_view env st ~view:target ~max_s
    end
  end

let on_viewchange env st (vc : Message.viewchange) =
  let deep_ok =
    if Config.hotpath st.cfg then
      vc.vc_new_view >= st.view
      && Common.verify_viewchange_deep_c env ~f:(Config.f st.cfg)
           ~vc_lookup:st.conf_lookup ~ckpt_lookup:st.exec_lookup
           ~proof_lookup:st.prep_lookup vc
    else begin
      Common.charge_verify env (Proofs.viewchange_sig_count vc);
      vc.vc_new_view >= st.view
      && Validation.verify_viewchange_deep ~f:(Config.f st.cfg) ~vc_lookup:st.conf_lookup
           ~ckpt_lookup:st.exec_lookup ~proof_lookup:st.prep_lookup vc
    end
  in
  if deep_ok then begin
    if Votes.add st.viewchanges ~key:vc.vc_new_view ~sender:vc.vc_sender vc then
      maybe_send_newview env st vc.vc_new_view
  end

(* Handler (7): full NewView validation — including recomputing the
   re-issued PrePrepares, the logic the paper notes is repeated here.  On
   the hot path the deep re-check of each embedded ViewChange resolves
   through the verified-digest cache: a quorum already deep-verified on
   individual arrival costs one cache lookup per ViewChange. *)
let on_newview env st (nv : Message.newview) =
  let f = Config.f st.cfg in
  let valid =
    if Config.hotpath st.cfg then
      nv.nv_view >= st.view
      && nv.nv_sender = Config.primary_of_view st.cfg nv.nv_view
      && nv.nv_sender <> st.cfg.id
      && List.length nv.nv_viewchanges >= Config.quorum st.cfg
      && Common.verify_newview_c env st.prep_lookup nv
      && List.for_all
           (Common.verify_viewchange_deep_c env ~f ~vc_lookup:st.conf_lookup
              ~ckpt_lookup:st.exec_lookup ~proof_lookup:st.prep_lookup)
           nv.nv_viewchanges
    else begin
      Common.charge_verify env (Proofs.newview_sig_count nv);
      nv.nv_view >= st.view
      && nv.nv_sender = Config.primary_of_view st.cfg nv.nv_view
      && nv.nv_sender <> st.cfg.id
      && Validation.verify_newview st.prep_lookup nv
      && List.length nv.nv_viewchanges >= Config.quorum st.cfg
      && List.for_all
           (Validation.verify_viewchange_deep ~f ~vc_lookup:st.conf_lookup
              ~ckpt_lookup:st.exec_lookup ~proof_lookup:st.prep_lookup)
           nv.nv_viewchanges
    end
  in
  if valid then begin
    let _min_s, max_s, expected =
      Newview_logic.compute ~view:nv.nv_view ~sender:nv.nv_sender nv.nv_viewchanges
    in
    if Newview_logic.matches ~expected ~actual:nv.nv_preprepares then begin
      ignore (Ckpt.absorb_newview st.ckpt nv);
      enter_view env st ~view:nv.nv_view ~max_s;
      gc st (Ckpt.last_stable st.ckpt);
      (* Re-issue Prepares for the NewView's proposals (backup role). *)
      Common.charge_sign env (List.length nv.nv_preprepares);
      List.iter
        (fun (pd : Message.preprepare_digest) ->
          let p =
            { Message.view = st.view;
              seq = pd.pd_seq;
              digest = pd.pd_digest;
              sender = st.cfg.id;
              p_sig = "" }
          in
          let p =
            { p with
              p_sig =
                Signature.sign (Enclave.env_keypair env).Signature.secret
                  (Message.prepare_signing_bytes p) }
          in
          ignore (Votes.add st.prepares ~key:p.seq ~sender:st.cfg.id p);
          Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Prepare p))))
        nv.nv_preprepares
    end
  end

(* Session establishment: the client attests this enclave and provisions
   its request-authentication key. *)
let on_session_init env st (si : Message.session_init) =
  let keypair = Enclave.env_keypair env in
  let sq =
    { Message.sq_replica = st.cfg.id;
      sq_quote = Enclave.quote env;
      sq_box_public = st.box.Box.public;
      sq_nonce = st.instance_nonce;
      sq_sig = "" }
  in
  let sq = { sq with sq_sig = Common.sign_with env (Message.session_quote_signing_bytes sq) } in
  ignore keypair;
  Enclave.emit env
    (Wire.encode_output (Wire.Out_send (Addr.client si.si_client, Message.Session_quote sq)))

let on_session_key env st (sk : Message.session_key) =
  Enclave.charge_crypto env (Enclave.cost_model env).decrypt_request_us;
  if sk.sk_replica = st.cfg.id then begin
    match Box.decrypt st.box.Box.secret sk.sk_box with
    | Error _ -> ()
    | Ok provision -> (
      match Session.decode_provision provision with
      | Error _ -> ()
      | Ok keys -> Sessions.set st.sessions sk.sk_client (keys.Session.auth, keys.Session.auth_key))
  end

let handle env st ~byz (input : Wire.input) =
  if st.halted then ()
  else
    match input with
    | Wire.In_batch reqs -> on_batch env st ~byz reqs
    | Wire.In_suspect _ -> ()  (* suspicion is the Confirmation compartment's trigger *)
    | Wire.In_ledger _ -> ()  (* the ledger belongs to Execution *)
    | Wire.In_recover blob -> on_recover env st blob
    | Wire.In_net msg -> (
      match msg with
      | Message.Preprepare pp -> on_preprepare env st pp
      | Message.Prepare p -> on_prepare env st p
      | Message.Viewchange vc -> on_viewchange env st vc
      | Message.Newview nv -> on_newview env st nv
      | Message.Checkpoint ck ->
        Common.on_checkpoint env ~hotpath:(Config.hotpath st.cfg)
          ~exec_lookup:st.exec_lookup st.ckpt ck
          ~on_stable:(fun stable ->
            gc st stable;
            (* The window just slid forward: re-drive any batch that was
               parked against its edge before sealing the new state. *)
            drain_parked env st ~byz;
            drain_ahead env st;
            seal_checkpoint_state env st)
      | Message.Session_init si -> on_session_init env st si
      | Message.Session_key sk -> on_session_key env st sk
      | Message.Request _ | Message.Preprepare_digest _ | Message.Commit _
      | Message.Reply _ | Message.Session_quote _ | Message.Session_ack _
      | Message.Batch_fetch _ | Message.Batch_data _ | Message.State_request _
      | Message.State_reply _ | Message.Ledger_subscribe _
      | Message.Ledger_feed _ | Message.Read_request _ | Message.Read_reply _ ->
        ())

let make ?(byz = Prep_honest) (cfg : Config.t) =
  let current = ref (create_state cfg) in
  let program env =
    let st = create_state cfg in
    st.instance_nonce <- Rng.bytes (Enclave.env_rng env) 16;
    current := st;
    fun payload ->
      match Wire.decode_input payload with
      | Error _ -> ()  (* garbage from a malicious environment *)
      | Ok input -> handle env st ~byz input
  in
  let probe =
    { view = (fun () -> !current.view);
      next_seq = (fun () -> !current.next_seq);
      last_stable = (fun () -> Ckpt.last_stable !current.ckpt);
      sessions = (fun () -> Sessions.count !current.sessions);
      parked = (fun () -> List.length !current.parked);
      lane_cursors = (fun () -> Array.to_list !current.lane_next) }
  in
  (program, probe)
