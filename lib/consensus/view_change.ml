module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation

let make ~new_view ~last_stable ~proof ~prepared ~sender ~sign =
  let vc =
    { Message.vc_new_view = new_view;
      vc_last_stable = last_stable;
      vc_checkpoint_proof = proof;
      vc_prepared = prepared;
      vc_sender = sender;
      vc_sig = "" }
  in
  { vc with vc_sig = sign (Message.viewchange_signing_bytes vc) }

let verify_prepared_proof ~f lookup (proof : Message.prepared_proof) =
  Validation.verify_preprepare_digest lookup proof.proof_preprepare
  && List.for_all (Validation.verify_prepare lookup) proof.proof_prepares
  && Validation.prepare_cert_complete ~f proof.proof_preprepare proof.proof_prepares

let verify_deep ~f ~vc_lookup ~ckpt_lookup ~proof_lookup (vc : Message.viewchange) =
  Validation.verify_viewchange vc_lookup vc
  && List.for_all (Validation.verify_checkpoint ckpt_lookup) vc.vc_checkpoint_proof
  && List.for_all (verify_prepared_proof ~f proof_lookup) vc.vc_prepared
  && (vc.vc_last_stable = 0
     ||
     match
       Validation.checkpoint_quorum_seq ~quorum:((2 * f) + 1) vc.vc_checkpoint_proof
     with
     | Some seq -> seq >= vc.vc_last_stable
     | None -> false)

let verify_newview ~nv_lookup ~vc_ok (nv : Message.newview) =
  Validation.verify_newview nv_lookup nv && List.for_all vc_ok nv.nv_viewchanges

type t = {
  mutable entered : Ids.view;
  tallies : (Ids.view, Message.viewchange) Votes.t;
}

let create () = { entered = 0; tallies = Votes.create ~size:4 () }

let tally t (vc : Message.viewchange) =
  vc.vc_new_view > t.entered && Votes.add t.tallies ~key:vc.vc_new_view ~sender:vc.vc_sender vc

let viewchanges t view = Votes.get t.tallies view
let tallied_views t = List.sort Int.compare (Votes.fold (fun v _ acc -> v :: acc) t.tallies [])
let forget t ~upto = Votes.prune t.tallies ~keep:(fun v -> v > upto)

let enter t view =
  t.entered <- view;
  forget t ~upto:view

let reset t =
  t.entered <- 0;
  Votes.reset t.tallies

let acceptable t ~n ~current (nv : Message.newview) =
  nv.nv_view >= current
  && nv.nv_view > t.entered
  && nv.nv_sender = Ids.primary_of_view ~n nv.nv_view
  && List.length nv.nv_viewchanges >= Ids.quorum ~n
  && Validation.distinct_senders
       (List.map (fun (vc : Message.viewchange) -> vc.vc_sender) nv.nv_viewchanges)
  && List.for_all (fun (vc : Message.viewchange) -> vc.vc_new_view = nv.nv_view) nv.nv_viewchanges
