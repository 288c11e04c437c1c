module Signature = Splitbft_crypto.Signature

type key_lookup = Ids.replica_id -> Signature.public option

let distinct_senders senders =
  let sorted = List.sort_uniq compare senders in
  List.length sorted = List.length senders

let verify_with lookup sender msg signature =
  match lookup sender with
  | None -> false
  | Some public -> Signature.verify ~public ~msg ~signature

let verify_preprepare lookup (pp : Message.preprepare) =
  verify_with lookup pp.sender (Message.preprepare_signing_bytes pp) pp.pp_sig

let verify_preprepare_digest lookup (pd : Message.preprepare_digest) =
  verify_with lookup pd.pd_sender (Message.preprepare_digest_signing_bytes pd) pd.pd_sig

let verify_prepare lookup (p : Message.prepare) =
  verify_with lookup p.sender (Message.prepare_signing_bytes p) p.p_sig

let verify_commit lookup (c : Message.commit) =
  verify_with lookup c.sender (Message.commit_signing_bytes c) c.c_sig

let verify_checkpoint lookup (ck : Message.checkpoint) =
  verify_with lookup ck.sender (Message.checkpoint_signing_bytes ck) ck.ck_sig

let verify_viewchange lookup (vc : Message.viewchange) =
  verify_with lookup vc.vc_sender (Message.viewchange_signing_bytes vc) vc.vc_sig

let verify_newview lookup (nv : Message.newview) =
  verify_with lookup nv.nv_sender (Message.newview_signing_bytes nv) nv.nv_sig

let prepare_cert_complete ~f (pd : Message.preprepare_digest) prepares =
  let matching =
    List.filter
      (fun (p : Message.prepare) ->
        p.view = pd.pd_view && p.seq = pd.pd_seq
        && String.equal p.digest pd.pd_digest
        && p.sender <> pd.pd_sender)
      prepares
  in
  let senders = List.map (fun (p : Message.prepare) -> p.sender) matching in
  distinct_senders senders && List.length matching >= 2 * f

let commit_quorum_complete ~quorum ~view ~seq ~digest commits =
  let matching =
    List.filter
      (fun (c : Message.commit) ->
        c.view = view && c.seq = seq && String.equal c.digest digest)
      commits
  in
  let senders = List.map (fun (c : Message.commit) -> c.sender) matching in
  distinct_senders senders && List.length matching >= quorum

let checkpoint_groups checkpoints =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (ck : Message.checkpoint) ->
      let key = (ck.seq, ck.state_digest) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
      if not (List.exists (fun (c : Message.checkpoint) -> c.sender = ck.sender) existing)
      then Hashtbl.replace table key (ck :: existing))
    checkpoints;
  table

let checkpoint_quorum_complete ~quorum checkpoints =
  let table = checkpoint_groups checkpoints in
  Hashtbl.fold (fun _ group acc -> acc || List.length group >= quorum) table false

let checkpoint_quorum_seq ~quorum checkpoints =
  let table = checkpoint_groups checkpoints in
  Hashtbl.fold
    (fun (seq, _) group acc ->
      if List.length group >= quorum then
        match acc with
        | Some best when best >= seq -> acc
        | _ -> Some seq
      else acc)
    table None
