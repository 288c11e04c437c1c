module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Client_dedup = Splitbft_types.Client_dedup
module Client_tbl = Splitbft_util.Htbl.Int
module Ts_tbl = Splitbft_util.Htbl.Int64

type t = {
  entries : Client_dedup.t Client_tbl.t;
  assigned : Ids.seqno Ts_tbl.t Client_tbl.t;  (* timestamp -> the seq it was assigned at *)
}

let create () = { entries = Client_tbl.create 64; assigned = Client_tbl.create 64 }

let entry t client =
  match Client_tbl.find_opt t.entries client with
  | Some d -> d
  | None ->
    let d = Client_dedup.create () in
    Client_tbl.replace t.entries client d;
    d

let find t client = Client_tbl.find_opt t.entries client

let executed t client ts =
  match Client_tbl.find_opt t.entries client with
  | Some d -> Client_dedup.executed d ts
  | None -> false

let record t client ts reply = Client_dedup.record (entry t client) ts reply

let cached_reply t client ts =
  match Client_tbl.find_opt t.entries client with
  | Some d -> Client_dedup.cached_reply d ts
  | None -> None

let note_assigned ?(seq = max_int) t client ts =
  let set =
    match Client_tbl.find_opt t.assigned client with
    | Some s -> s
    | None ->
      let s = Ts_tbl.create 8 in
      Client_tbl.replace t.assigned client s;
      s
  in
  Ts_tbl.replace set ts seq

let already_assigned t client ts =
  executed t client ts
  ||
  match Client_tbl.find_opt t.assigned client with
  | Some s -> Ts_tbl.mem s ts
  | None -> false

let reset_assignments t = Client_tbl.reset t.assigned

let prune_assignments t ~upto =
  Client_tbl.iter
    (fun _ set -> Ts_tbl.filter_map_inplace (fun _ s -> if s <= upto then None else Some s) set)
    t.assigned

let assignments t = Client_tbl.fold (fun _ set n -> n + Ts_tbl.length set) t.assigned 0
let clients t = Client_tbl.length t.entries
