module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Enclave = Splitbft_tee.Enclave
module Log = Splitbft_consensus.Log
module Votes = Splitbft_consensus.Votes
module Ckpt = Splitbft_consensus.Ckpt
module View_change = Splitbft_consensus.View_change
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

type byz = Conf_honest | Conf_promiscuous | Conf_stale_proof

(* Mutation hook for the model checker's self-test: re-introduces the
   pre-PR-3 view-change bug where prepared certificates were dropped on
   [Log.reset] at view entry.  Never set outside tests — the checker must
   find the resulting agreement violation within budget, proving it can
   see this class of bug at all. *)
let mutate_drop_prepared_on_view_entry = ref false

type probe = {
  view : unit -> int;
  last_stable : unit -> int;
  commits_sent : unit -> int;
}

type slot = {
  pd : Message.preprepare_digest;  (* accepted proposal (in_conf) *)
  mutable committed : bool;
}

type state = {
  cfg : Config.t;
  prep_lookup : Validation.key_lookup;
  conf_lookup : Validation.key_lookup;
  exec_lookup : Validation.key_lookup;
  mutable view : Ids.view;
  proposals : slot Log.t;
  prepares : (Ids.seqno, Message.prepare) Votes.t;
  prepared : Message.prepared_proof Log.t;  (* for ViewChange; survives suspicion *)
  vc : View_change.t;
      (* the views entered, and peers' ViewChanges for the join rule:
         f+1 of them for a higher view prove a correct replica suspects,
         so this one joins without waiting for its own timer.  Without it
         a replica that already answered the stalled request (e.g. from
         the broker's replay cache) never suspects, and the remaining live
         replicas can be one short of the 2f+1 ViewChange quorum
         forever. *)
  (* messages addressed just above the window's high edge, parked until
     our own checkpoint stabilises (see Preparation.ahead) *)
  mutable ahead : Message.t list;
  ckpt : Ckpt.t;
  mutable commit_count : int;
  mutable halted : bool;
}

let create_state (cfg : Config.t) =
  { cfg;
    prep_lookup = Config.prep_public ~n:cfg.n;
    conf_lookup = Config.conf_public ~n:cfg.n;
    exec_lookup = Config.exec_public ~n:cfg.n;
    view = 0;
    proposals = Log.create ~window:cfg.watermark_window ();
    prepares = Votes.create ~size:128 ();
    prepared = Log.create ~window:cfg.watermark_window ();
    vc = View_change.create ();
    ahead = [];
    ckpt = Ckpt.create ~quorum:(Config.quorum cfg);
    commit_count = 0;
    halted = false }

let in_window st seq = Log.in_window st.proposals seq

(* Handler (3): a complete prepare certificate yields a Commit. *)
let try_commit env st seq =
  match Log.find st.proposals seq with
  | None -> ()
  | Some s ->
    let prepares = Votes.get st.prepares seq in
    if
      (not s.committed)
      && Validation.prepare_cert_complete ~f:(Config.f st.cfg) s.pd prepares
    then begin
      s.committed <- true;
      st.commit_count <- st.commit_count + 1;
      Log.set st.prepared seq { Message.proof_preprepare = s.pd; proof_prepares = prepares };
      let c =
        { Message.view = st.view; seq; digest = s.pd.pd_digest; sender = st.cfg.id; c_sig = "" }
      in
      let c = { c with c_sig = Common.sign_with env (Message.commit_signing_bytes c) } in
      Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Commit c)))
    end

let promiscuous_commit env st (pd : Message.preprepare_digest) =
  let c =
    { Message.view = pd.pd_view;
      seq = pd.pd_seq;
      digest = pd.pd_digest;
      sender = st.cfg.id;
      c_sig = "" }
  in
  let c = { c with c_sig = Common.sign_with env (Message.commit_signing_bytes c) } in
  Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Commit c)))

let proposal_plausible st (pd : Message.preprepare_digest) =
  pd.pd_view = st.view
  && pd.pd_sender = Config.primary_of_view st.cfg st.view
  && in_window st pd.pd_seq
  && not (Log.mem st.proposals pd.pd_seq)

let park_ahead st msg =
  if List.length st.ahead < Log.window st.proposals then
    st.ahead <- st.ahead @ [ msg ]

let on_proposal env st ~byz (pd : Message.preprepare_digest) =
  if pd.pd_view = st.view && Log.ahead_of_window st.proposals pd.pd_seq then
    park_ahead st (Message.Preprepare_digest pd)
  else begin
    (match byz with
    | Conf_promiscuous -> promiscuous_commit env st pd
    | Conf_honest | Conf_stale_proof -> ());
    if
      proposal_plausible st pd
      && Validation.verify_preprepare_digest (Common.metered env st.prep_lookup) pd
    then begin
      Log.set st.proposals pd.pd_seq { pd; committed = false };
      try_commit env st pd.pd_seq
    end
  end

let on_prepare env st (p : Message.prepare) =
  if p.view = st.view && Log.ahead_of_window st.proposals p.seq then
    park_ahead st (Message.Prepare p)
  else begin
    (* Already-committed slots and duplicate senders cannot change the
       outcome; drop them before the signature is even checked. *)
    let committed =
      match Log.find st.proposals p.seq with Some s -> s.committed | None -> false
    in
    if
      p.view = st.view
      && in_window st p.seq
      && (not committed)
      && (not (Votes.mem st.prepares ~key:p.seq ~sender:p.sender))
      && Validation.verify_prepare (Common.metered env st.prep_lookup) p
    then begin
      if Votes.add st.prepares ~key:p.seq ~sender:p.sender p then try_commit env st p.seq
    end
  end

(* Re-inject messages that were ahead of the window before it slid. *)
let drain_ahead env st ~byz =
  let pending = st.ahead in
  st.ahead <- [];
  List.iter
    (function
      | Message.Preprepare_digest pd -> on_proposal env st ~byz pd
      | Message.Prepare p -> on_prepare env st p
      | _ -> ())
    pending

let gc st stable =
  Log.advance_low_mark st.proposals stable;
  Log.prune st.proposals ~upto:stable;
  Votes.prune st.prepares ~keep:(fun seq -> seq > stable);
  Log.advance_low_mark st.prepared stable;
  Log.prune st.prepared ~upto:stable

(* ----- rollback-protected sealed checkpoints (view + stable mark) ----- *)

let write_image w st =
  W.varint w st.view;
  W.varint w (Ckpt.last_stable st.ckpt)

let on_recover env st records =
  match
    Common.open_checkpoint env ~who:"confirmation" ~tag:"ckpt:confirmation" records (fun r ->
        let view = R.varint r in
        (view, R.varint r))
  with
  | Fresh -> ()
  | Refused reason ->
    st.halted <- true;
    Enclave.emit env (Wire.encode_output (Wire.Out_alert reason))
  | Restored (view, last_stable) ->
    st.view <- view;
    Ckpt.force_stable st.ckpt last_stable;
    Log.advance_low_mark st.proposals last_stable;
    Log.advance_low_mark st.prepared last_stable

(* Stops work in the current view.  Prepared certificates are kept: a
   later NewView must still see them, or it could re-propose different
   content at seqs already committed under them.  [gc] prunes what a
   checkpoint covers; a higher view's re-prepare overwrites an entry. *)
let move_to_view st view =
  st.view <- view;
  Log.reset st.proposals;
  Votes.reset st.prepares;
  if !mutate_drop_prepared_on_view_entry then Log.reset st.prepared;
  st.ahead <- [];
  View_change.forget st.vc ~upto:view

(* Broadcast our own ViewChange targeting [new_view] and stop working in
   the old view.  A [Conf_stale_proof] adversary replays its initial
   (stale) state instead of the current one: genesis checkpoint, no
   prepared certificates — trying to talk the next primary into
   re-proposing from scratch.  One such liar is harmless: the NewView
   quorum (2f+1) still contains 2f honest ViewChanges that carry the real
   certificates, and the new-view computation takes their maximum. *)
let send_viewchange env st ~byz new_view =
  let stale = match byz with Conf_stale_proof -> true | _ -> false in
  let vc =
    View_change.make ~new_view ~sender:st.cfg.id ~sign:(Common.sign_with env)
      ~last_stable:(if stale then 0 else Ckpt.last_stable st.ckpt)
      ~proof:(if stale then [] else Ckpt.proof st.ckpt)
      ~prepared:(if stale then [] else Log.fold (fun _ proof acc -> proof :: acc) st.prepared [])
  in
  move_to_view st new_view;
  Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Viewchange vc)));
  Enclave.emit env (Wire.encode_output (Wire.Out_entered_view new_view))

(* Handler (5): primary suspicion from the environment's request timer. *)
let on_suspect env st ~byz suspected_view =
  if suspected_view >= st.view then send_viewchange env st ~byz (st.view + 1)

(* Join rule (PBFT §4.5.2): f+1 ViewChanges for a view above ours prove at
   least one correct replica's timer expired; join the smallest such view
   without waiting for our own. *)
let on_viewchange env st ~byz (vc : Message.viewchange) =
  if
    vc.vc_new_view > st.view
    && View_change.verify_deep ~f:(Config.f st.cfg)
         ~vc_lookup:(Common.metered env st.conf_lookup)
         ~ckpt_lookup:(Common.metered env st.exec_lookup)
         ~proof_lookup:(Common.metered env st.prep_lookup) vc
    && vc.vc_sender <> st.cfg.id
    && View_change.tally st.vc vc
    && List.length (View_change.viewchanges st.vc vc.vc_new_view) >= Config.f st.cfg + 1
  then send_viewchange env st ~byz vc.vc_new_view

(* Handler (7'): checkpoint-and-view part of a NewView — the embedded
   Prepares are not validated here (§4), only the ViewChange signatures. *)
let on_newview env st (nv : Message.newview) =
  if
    View_change.acceptable st.vc ~n:st.cfg.n ~current:st.view nv
    && View_change.verify_newview ~nv_lookup:(Common.metered env st.prep_lookup)
         ~vc_ok:(Validation.verify_viewchange (Common.metered env st.conf_lookup)) nv
  then begin
    Ckpt.absorb_newview st.ckpt nv;
    View_change.enter st.vc nv.nv_view;
    move_to_view st nv.nv_view;
    gc st (Ckpt.last_stable st.ckpt);
    Enclave.emit env (Wire.encode_output (Wire.Out_entered_view st.view))
  end

let handle env st ~byz (input : Wire.input) =
  if st.halted then ()
  else
    match input with
    | Wire.In_suspect v -> on_suspect env st ~byz v
    | Wire.In_batch _ -> ()
    | Wire.In_recover records -> on_recover env st records
    | Wire.In_net msg -> (
      match msg with
      | Message.Preprepare pp ->
        (* A correct broker sends the digest form; accept the full form too
           (it carries strictly more). *)
        on_proposal env st ~byz (Message.summarize pp)
      | Message.Preprepare_digest pd -> on_proposal env st ~byz pd
      | Message.Prepare p -> on_prepare env st p
      | Message.Viewchange vc -> on_viewchange env st ~byz vc
      | Message.Newview nv -> on_newview env st nv
      | Message.Checkpoint ck ->
        Common.on_checkpoint env ~exec_lookup:st.exec_lookup st.ckpt ck
          ~on_stable:(fun stable ->
            gc st stable;
            drain_ahead env st ~byz;
            Common.seal_checkpoint env ~tag:"ckpt:confirmation" write_image st)
      | Message.Request _ | Message.Commit _ | Message.Reply _
      | Message.Session_init _ | Message.Session_quote _ | Message.Session_key _
      | Message.Session_ack _ | Message.Batch_fetch _ | Message.Batch_data _
      | Message.State_request _ | Message.State_reply _
      | Message.Ledger_subscribe _ | Message.Ledger_feed _
      | Message.Read_request _ | Message.Read_reply _ ->
        ())

let make ?(byz = Conf_honest) (cfg : Config.t) =
  let current = ref (create_state cfg) in
  let program env =
    let st = create_state cfg in
    current := st;
    fun payload ->
      match Wire.decode_input payload with
      | Error _ -> ()
      | Ok input -> handle env st ~byz input
  in
  let probe =
    { view = (fun () -> !current.view);
      last_stable = (fun () -> Ckpt.last_stable !current.ckpt);
      commits_sent = (fun () -> !current.commit_count) }
  in
  (program, probe)
