module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message

let compute ~view ~sender (vcs : Message.viewchange list) =
  let min_s =
    List.fold_left (fun acc (vc : Message.viewchange) -> max acc vc.vc_last_stable) 0 vcs
  in
  let best : (int, Message.preprepare_digest) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (vc : Message.viewchange) ->
      List.iter
        (fun (p : Message.prepared_proof) ->
          let pd = p.proof_preprepare in
          if pd.pd_seq > min_s then
            match Hashtbl.find_opt best pd.pd_seq with
            | Some existing when existing.pd_view >= pd.pd_view -> ()
            | Some _ | None -> Hashtbl.replace best pd.pd_seq pd)
        vc.vc_prepared)
    vcs;
  let max_s = Hashtbl.fold (fun seq _ acc -> max acc seq) best min_s in
  let pps = ref [] in
  for seq = max_s downto min_s + 1 do
    let digest =
      match Hashtbl.find_opt best seq with
      | Some pd -> pd.pd_digest
      | None -> Message.empty_batch_digest
    in
    pps :=
      { Message.pd_view = view; pd_seq = seq; pd_digest = digest; pd_sender = sender;
        pd_sig = "" }
      :: !pps
  done;
  (min_s, max_s, !pps)

let matches ~expected ~actual =
  List.length expected = List.length actual
  && List.for_all2
       (fun (a : Message.preprepare_digest) (b : Message.preprepare_digest) ->
         a.pd_seq = b.pd_seq && String.equal a.pd_digest b.pd_digest)
       expected actual

let build ~view ~sender ~sign vcs =
  let min_s, max_s, pds = compute ~view ~sender vcs in
  let sign_pd (pd : Message.preprepare_digest) =
    { pd with Message.pd_sig = sign (Message.preprepare_digest_signing_bytes pd) }
  in
  let nv =
    { Message.nv_view = view;
      nv_viewchanges = vcs;
      nv_preprepares = List.map sign_pd pds;
      nv_sender = sender;
      nv_sig = "" }
  in
  (min_s, max_s, { nv with nv_sig = sign (Message.newview_signing_bytes nv) })

let plan (nv : Message.newview) =
  let min_s, max_s, expected =
    compute ~view:nv.nv_view ~sender:nv.nv_sender nv.nv_viewchanges
  in
  if matches ~expected ~actual:nv.nv_preprepares then Some (min_s, max_s) else None
