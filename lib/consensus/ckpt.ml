module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation

type t = {
  quorum : int;
  mutable stable : Ids.seqno;
  mutable proof : Message.checkpoint list;
  received : (Ids.seqno, Message.checkpoint list) Hashtbl.t;
}

let create ~quorum = { quorum; stable = 0; proof = []; received = Hashtbl.create 8 }
let last_stable t = t.stable
let proof t = t.proof

let store t (ck : Message.checkpoint) =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.received ck.seq) in
  if not (List.exists (fun (e : Message.checkpoint) -> e.sender = ck.sender) existing)
  then Hashtbl.replace t.received ck.seq (ck :: existing)

let try_advance t seq ~on_stable =
  match Hashtbl.find_opt t.received seq with
  | None -> ()
  | Some cks ->
    if seq > t.stable && Validation.checkpoint_quorum_complete ~quorum:t.quorum cks
    then begin
      t.stable <- seq;
      t.proof <- cks;
      Hashtbl.iter
        (fun s _ -> if s < seq then Hashtbl.remove t.received s)
        (Hashtbl.copy t.received);
      on_stable seq
    end

let observe t (ck : Message.checkpoint) ~on_stable =
  if ck.seq > t.stable then begin
    store t ck;
    try_advance t ck.seq ~on_stable
  end

let force_stable t seq =
  if seq > t.stable then begin
    t.stable <- seq;
    Hashtbl.iter
      (fun s _ -> if s < seq then Hashtbl.remove t.received s)
      (Hashtbl.copy t.received)
  end

let absorb_newview t (nv : Message.newview) =
  List.iter
    (fun (vc : Message.viewchange) -> List.iter (store t) vc.vc_checkpoint_proof)
    nv.nv_viewchanges;
  (* Try every sequence number the embedded proofs could stabilize. *)
  let seqs =
    List.sort_uniq compare
      (List.concat_map
         (fun (vc : Message.viewchange) ->
           List.map (fun (ck : Message.checkpoint) -> ck.seq) vc.vc_checkpoint_proof)
         nv.nv_viewchanges)
  in
  List.iter (fun seq -> try_advance t seq ~on_stable:(fun _ -> ())) seqs
