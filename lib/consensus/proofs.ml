module Message = Splitbft_types.Message

let count_sigs proofs =
  List.fold_left
    (fun acc (p : Message.prepared_proof) -> acc + 1 + List.length p.proof_prepares)
    0 proofs

let viewchange_sig_count (vc : Message.viewchange) =
  1 + List.length vc.vc_checkpoint_proof + count_sigs vc.vc_prepared

let newview_sig_count (nv : Message.newview) =
  1
  + List.fold_left (fun acc vc -> acc + viewchange_sig_count vc) 0 nv.nv_viewchanges
  + List.length nv.nv_preprepares
