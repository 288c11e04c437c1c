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
module Newview = Splitbft_consensus.Newview
module View_change = Splitbft_consensus.View_change
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
  tallied_views : unit -> int list;
  logged : unit -> int;
  held_requests : unit -> int;
  assignments : unit -> int;
}

type state = {
  cfg : Config.t;
  prep_lookup : Validation.key_lookup;
  conf_lookup : Validation.key_lookup;
  exec_lookup : Validation.key_lookup;
  box : Box.keypair;
  mutable view : Ids.view;
  mutable next_seq : Ids.seqno;
  (* Batches that arrived while the acceptance window was full, waiting
     for checkpoint stabilization to slide it forward (oldest first). *)
  mutable parked : Message.request list list;
  (* Preprepares/Prepares addressed just above the window's high edge:
     their sender's checkpoint stabilised before ours did.  Parked until
     our own window slides — dropping them would strand the seqno until a
     view change (the receiver-side half of the window-edge stall). *)
  mutable ahead : Message.t list;
  (* in_prep: own and accepted proposals, in their signed digest form (no
     handler reads a body back), plus the duplicated prepare log *)
  preprepares : Message.preprepare_digest Log.t;
  prepares : (Ids.seqno, Message.prepare) Votes.t;
  assigned : Client_table.t;  (* client timestamps given a seqno above the stable checkpoint *)
  sessions : (string * Hmac.key) Sessions.t;  (* client auth keys, raw and prepared *)
  vc : View_change.t;
  ckpt : Ckpt.t;
  mutable instance_nonce : string;
  mutable halted : bool;
}

let create_state (cfg : Config.t) =
  { cfg;
    prep_lookup = Config.prep_public ~n:cfg.n;
    conf_lookup = Config.conf_public ~n:cfg.n;
    exec_lookup = Config.exec_public ~n:cfg.n;
    box = Box.derive ~seed:(Keys.enclave_box_seed cfg.id Ids.Preparation);
    view = 0;
    next_seq = 1;
    parked = [];
    ahead = [];
    preprepares = Log.create ~window:cfg.watermark_window ();
    prepares = Votes.create ~size:128 ();
    assigned = Client_table.create ();
    sessions = Sessions.create ();
    vc = View_change.create ();
    ckpt = Ckpt.create ~quorum:(Config.quorum cfg);
    instance_nonce = "";
    halted = false }

let is_primary st = Config.primary_of_view st.cfg st.view = st.cfg.id
let in_window st seq = Log.in_window st.preprepares seq

let charge_client_auth env count =
  Enclave.charge_crypto env
    ((Enclave.cost_model env).client_auth_us *. float_of_int count)

let request_ok st (r : Message.request) =
  match Sessions.find st.sessions r.client with
  | None -> false
  | Some (_, auth_key) ->
    Hmac.verify_with auth_key ~msg:(Message.request_auth_bytes r) ~tag:r.auth

(* Signs without charging: for callers that charge a run of signatures
   at once. *)
let sign env = Signature.sign (Enclave.env_keypair env).Signature.secret

(* A signed proposal of [batch] at [seq]: its digest form, which the log
   keeps, and the full PrePrepare sharing its signature.  The batch is
   hashed once. *)
let propose env st seq batch =
  let digest = Message.digest_of_batch batch in
  let pp_sig =
    Common.sign_with env
      (Message.signing_bytes_of_proposal ~view:st.view ~seq ~digest ~sender:st.cfg.id)
  in
  let pp = { Message.view = st.view; seq; batch; sender = st.cfg.id; pp_sig } in
  (Message.summarize ~digest pp, pp)

(* A byzantine primary enclave equivocates: two conflicting proposals for
   one sequence number, each unicast to half the replicas (including this
   replica itself, so its own sibling compartments see one version too). *)
let equivocate env st seq batch =
  let pd_a, pp_a = propose env st seq batch in
  (* The conflicting proposal is the (valid) empty batch, so honest
     receivers cannot reject it on client-authentication grounds. *)
  let _, pp_b = propose env st seq [] in
  Log.set st.preprepares seq pd_a;
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
  let pd, _ = propose env st seq phantom in
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
      charge_client_auth env (List.length reqs);
      let fresh (r : Message.request) =
        request_ok st r && not (Client_table.already_assigned st.assigned r.client r.timestamp)
      in
      let batch = List.filter fresh reqs in
      if batch <> [] then begin
        let seq = st.next_seq in
        st.next_seq <- seq + 1;
        List.iter
          (fun (r : Message.request) ->
            Client_table.note_assigned ~seq st.assigned r.client r.timestamp)
          batch;
        match byz with
        | Prep_equivocate -> equivocate env st seq batch
        | Prep_corrupt_digest -> corrupt_digest env st seq
        | Prep_honest ->
          let pd, pp = propose env st seq batch in
          Log.set st.preprepares seq pd;
          let wire =
            (* Body elision: the signature covers the digest form (see
               [Message.signing_bytes_of_proposal]), so when freshness
               filtering dropped nothing the broker — which copied this
               exact batch in one ecall ago — re-attaches the body outside
               the boundary instead of paying to copy it back out.
               Receivers verify the signed digest against the re-attached
               body, so a confused or malicious broker can only make the
               proposal fail verification, never change what is ordered. *)
            if elide && List.length batch = List.length reqs
            then Message.Preprepare_digest pd
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

let send_prepare env st ~sign ~seq ~digest =
  let p = { Message.view = st.view; seq; digest; sender = st.cfg.id; p_sig = "" } in
  let p = { p with p_sig = sign (Message.prepare_signing_bytes p) } in
  ignore (Votes.add st.prepares ~key:seq ~sender:st.cfg.id p);
  Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Prepare p)))

(* Handler (2): PrePrepare from the primary — backups answer with a
   Prepare.  Authentication of the batched client requests is charged; an
   individual corrupted operation is still ordered and later no-oped by
   Execution (§4), so it does not invalidate the proposal. *)
let accept_preprepare env st (pp : Message.preprepare) ~digest =
  Log.set st.preprepares pp.seq (Message.summarize ~digest pp);
  send_prepare env st ~sign:(Common.sign_with env) ~seq:pp.seq ~digest

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
  else if preprepare_plausible st pp then begin
    (* Cheap structural checks before any crypto is charged; the batch is
       hashed once and the digest reused for signature check and Prepare. *)
    charge_client_auth env (List.length pp.batch);
    let digest = Message.digest_of_batch pp.batch in
    let bytes =
      Message.signing_bytes_of_proposal ~view:pp.view ~seq:pp.seq ~digest ~sender:pp.sender
    in
    if Validation.verify_with (Common.metered env st.prep_lookup) pp.sender bytes pp.pp_sig
    then accept_preprepare env st pp ~digest
  end

(* Prepares are duplicated into this compartment's input log (P3). *)
let on_prepare env st (p : Message.prepare) =
  if p.view = st.view && Log.ahead_of_window st.preprepares p.seq then
    park_ahead st (Message.Prepare p)
  else if
    p.view = st.view
    && in_window st p.seq
    && (not (Votes.mem st.prepares ~key:p.seq ~sender:p.sender))
    && Validation.verify_prepare (Common.metered env st.prep_lookup) p
  then ignore (Votes.add st.prepares ~key:p.seq ~sender:p.sender p)

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
  (* A quorum executed every slot up to [stable]; a retransmission of one
     of their requests that is ordered again only replays its reply. *)
  Client_table.prune_assignments st.assigned ~upto:stable;
  if st.next_seq <= stable then st.next_seq <- stable + 1

(* ----- rollback-protected sealed checkpoints -----

   Sealed at every checkpoint stabilization (Common.seal_checkpoint),
   bound to this compartment's own monotonic counter (the counter
   namespace is per-measurement, so the three compartments of one replica
   do not collide).  [write_image] writes the body after the counter. *)

let write_image w st =
  W.varint w st.view;
  W.varint w st.next_seq;
  W.varint w (Ckpt.last_stable st.ckpt);
  W.list w
    (fun w (c, (auth, _)) ->
      W.varint w c;
      W.bytes w auth)
    (Sessions.fold (fun c k acc -> (c, k) :: acc) st.sessions [])

let on_recover env st records =
  match
    Common.open_checkpoint env ~who:"preparation" ~tag:"ckpt:preparation" records (fun r ->
        let view = R.varint r in
        let next_seq = R.varint r in
        let last_stable = R.varint r in
        let sessions =
          R.list r (fun r ->
              let c = R.varint r in
              (c, R.bytes r))
        in
        (view, next_seq, last_stable, sessions))
  with
  | Fresh -> ()
  | Refused reason ->
    st.halted <- true;
    Enclave.emit env (Wire.encode_output (Wire.Out_alert reason))
  | Restored (view, next_seq, last_stable, sessions) ->
    st.view <- view;
    st.next_seq <- next_seq;
    List.iter (fun (c, auth) -> Sessions.set st.sessions c (auth, Hmac.prepare auth)) sessions;
    Ckpt.force_stable st.ckpt last_stable;
    Log.advance_low_mark st.preprepares last_stable;
    (* The broker batches in the view Preparation is in. *)
    Enclave.emit env (Wire.encode_output (Wire.Out_entered_view view))

let enter_view env st ~view ~max_s =
  st.view <- view;
  View_change.enter st.vc view;
  st.next_seq <- max max_s (Ckpt.last_stable st.ckpt) + 1;
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

(* Handler (6): quorum of ViewChanges — the new primary emits a NewView,
   once per view: a ViewChange arriving after the quorum must not re-enter
   the view, which would reset its log and hand out its seqnos again. *)
let maybe_send_newview env st target =
  if Config.primary_of_view st.cfg target = st.cfg.id && target > st.view then begin
    let vcs = View_change.viewchanges st.vc target in
    if List.length vcs >= Config.quorum st.cfg then begin
      let _min_s, max_s, nv =
        Newview.build ~view:target ~sender:st.cfg.id ~sign:(sign env) vcs
      in
      Common.charge_sign env (List.length nv.nv_preprepares);
      Common.charge_sign env 1;
      Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Newview nv)));
      enter_view env st ~view:target ~max_s
    end
  end

let verify_deep env st =
  View_change.verify_deep ~f:(Config.f st.cfg)
    ~vc_lookup:(Common.metered env st.conf_lookup)
    ~ckpt_lookup:(Common.metered env st.exec_lookup)
    ~proof_lookup:(Common.metered env st.prep_lookup)

let on_viewchange env st (vc : Message.viewchange) =
  if vc.vc_new_view >= st.view && verify_deep env st vc && View_change.tally st.vc vc then
    maybe_send_newview env st vc.vc_new_view

(* Handler (7): full NewView validation — including recomputing the
   re-issued PrePrepares, the logic the paper notes is repeated here.  Each
   embedded ViewChange is deep-checked in full, even if this compartment
   already verified it on individual arrival.  This replica's own NewView
   is never re-entered: a restarted primary that replayed it would hand
   out its view's seqnos a second time. *)
let on_newview env st (nv : Message.newview) =
  if
    View_change.acceptable st.vc ~n:st.cfg.n ~current:st.view nv
    && nv.nv_sender <> st.cfg.id
    && View_change.verify_newview ~nv_lookup:(Common.metered env st.prep_lookup)
         ~vc_ok:(verify_deep env st) nv
  then
    match Newview.plan nv with
    | None -> ()
    | Some (_min_s, max_s) ->
      Ckpt.absorb_newview st.ckpt nv;
      enter_view env st ~view:nv.nv_view ~max_s;
      gc st (Ckpt.last_stable st.ckpt);
      (* Re-issue Prepares for the NewView's proposals (backup role). *)
      Common.charge_sign env (List.length nv.nv_preprepares);
      List.iter
        (fun (pd : Message.preprepare_digest) ->
          send_prepare env st ~sign:(sign env) ~seq:pd.pd_seq ~digest:pd.pd_digest)
        nv.nv_preprepares

(* Session establishment: the client attests this enclave and provisions
   its request-authentication key. *)
let on_session_init env st (si : Message.session_init) =
  let sq =
    { Message.sq_replica = st.cfg.id;
      sq_quote = Enclave.quote env;
      sq_box_public = st.box.Box.public;
      sq_nonce = st.instance_nonce;
      sq_sig = "" }
  in
  let sq = { sq with sq_sig = Common.sign_with env (Message.session_quote_signing_bytes sq) } in
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
    | Wire.In_recover records -> on_recover env st records
    | Wire.In_net msg -> (
      match msg with
      | Message.Preprepare pp -> on_preprepare env st pp
      | Message.Prepare p -> on_prepare env st p
      | Message.Viewchange vc -> on_viewchange env st vc
      | Message.Newview nv -> on_newview env st nv
      | Message.Checkpoint ck ->
        Common.on_checkpoint env ~exec_lookup:st.exec_lookup st.ckpt ck
          ~on_stable:(fun stable ->
            gc st stable;
            (* The window just slid forward: re-drive any batch that was
               parked against its edge before sealing the new state. *)
            drain_parked env st ~byz;
            drain_ahead env st;
            Common.seal_checkpoint env ~tag:"ckpt:preparation" write_image st)
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
      tallied_views = (fun () -> View_change.tallied_views !current.vc);
      logged = (fun () -> Log.cardinal !current.preprepares);
      held_requests =
        (fun () ->
          let st = !current in
          List.fold_left (fun n reqs -> n + List.length reqs) 0 st.parked
          + List.fold_left
              (fun n -> function Message.Preprepare pp -> n + List.length pp.batch | _ -> n)
              0 st.ahead);
      assignments = (fun () -> Client_table.assignments !current.assigned) }
  in
  (program, probe)
