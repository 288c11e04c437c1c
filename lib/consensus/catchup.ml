module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Sha256 = Splitbft_crypto.Sha256

type 'k t = {
  f : int;
  compare : 'k -> 'k -> int;
  votes : ('k, string * Message.request list) Votes.t;
  mutable slots : (Ids.replica_id * 'k * Ids.view) list;  (* replier, height, view *)
}

let create ~f ~compare = { f; compare; votes = Votes.create ~size:32 (); slots = [] }

let vote t ~key ~sender ~digest batch =
  String.equal (Message.digest_of_batch batch) digest
  && Votes.add t.votes ~key ~sender (digest, batch)
  && List.length (List.filter (fun (d, _) -> String.equal d digest) (Votes.get t.votes key)) > t.f

let offer t ~replier ~height ~view =
  t.slots <- (replier, height, view) :: List.filter (fun (r, _, _) -> r <> replier) t.slots

let absorb t (sr : Message.state_reply) ~admit ~install =
  List.iter
    (fun (e : Message.state_entry) ->
      if admit e.se_seq && vote t ~key:e.se_seq ~sender:sr.st_replier ~digest:e.se_digest e.se_batch
      then install e)
    sr.st_entries;
  let highest h (e : Message.state_entry) = max h e.se_seq in
  offer t ~replier:sr.st_replier ~view:sr.st_view
    ~height:(List.fold_left highest sr.st_stable sr.st_entries)

(* f liars cannot push the (f+1)-th highest value past every honest
   replier's. *)
let vouched ~f compare values =
  if List.length values > f then Some (List.nth (List.sort (fun a b -> compare b a) values) f)
  else None

let vouched_view t = vouched ~f:t.f Int.compare (List.map (fun (_, _, v) -> v) t.slots)

let caught_up t height =
  match vouched ~f:t.f t.compare (List.map (fun (_, h, _) -> h) t.slots) with
  | Some h -> t.compare height h >= 0
  | None -> false

let reset t =
  Votes.reset t.votes;
  t.slots <- []

(* Walks down from [upto], so the entries come out ascending. *)
let entries ~from ~upto ~decided ~body =
  let rec walk seq acc =
    if seq < max 1 from then acc
    else
      let entry =
        match decided seq with
        | None -> None
        | Some d ->
          let batch = if String.equal d Message.empty_batch_digest then Some [] else body d in
          Option.map (fun b -> { Message.se_seq = seq; se_digest = d; se_batch = b }) batch
      in
      walk (seq - 1) (match entry with Some e -> e :: acc | None -> acc)
  in
  walk upto []

let serve (sr : Message.state_request) ~replier ~view ~ckpt ~snapshot ~upto ~decided ~body =
  let stable = Ckpt.last_stable ckpt in
  { Message.st_replier = replier;
    st_requester = sr.sr_requester;
    st_stable = stable;
    st_proof = Ckpt.proof ckpt;
    st_snapshot = (if stable > 0 && sr.sr_from <= stable then snapshot stable else "");
    st_view = view;
    st_entries = entries ~from:sr.sr_from ~upto ~decided ~body }

let certified_snapshot ~quorum ~verify ~above ~open_ (sr : Message.state_reply) =
  if
    String.length sr.st_snapshot > 0
    && sr.st_stable > above
    && Validation.checkpoint_quorum_seq ~quorum sr.st_proof = Some sr.st_stable
    && List.for_all verify sr.st_proof
  then
    match (open_ sr.st_snapshot, sr.st_proof) with
    | Some snap, ck :: _ when String.equal (Sha256.digest snap) ck.Message.state_digest -> Some snap
    | _ -> None
  else None
