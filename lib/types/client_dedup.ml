module Ts_tbl = Splitbft_util.Htbl.Int64

type t = {
  mutable floor : int64;  (* all ts <= floor executed *)
  above : Message.reply option Ts_tbl.t;  (* executed ts > floor *)
  mutable latest_reply : Message.reply option;  (* for retransmits at/below floor *)
}

let create () = { floor = 0L; above = Ts_tbl.create 8; latest_reply = None }

let executed t ts = Int64.compare ts t.floor <= 0 || Ts_tbl.mem t.above ts

let rec advance t =
  let next = Int64.add t.floor 1L in
  match Ts_tbl.find_opt t.above next with
  | Some reply ->
    Ts_tbl.remove t.above next;
    t.floor <- next;
    (match reply with
    | Some r -> t.latest_reply <- Some r
    | None -> ());
    advance t
  | None -> ()

let record t ts reply =
  if executed t ts then invalid_arg "Client_dedup.record: duplicate timestamp";
  Ts_tbl.replace t.above ts reply;
  advance t

let cached_reply t ts =
  match Ts_tbl.find_opt t.above ts with
  | Some reply -> reply
  | None -> (
    if Int64.compare ts t.floor > 0 then None
    else
      match t.latest_reply with
      | Some r when Int64.equal r.Message.timestamp ts -> Some r
      | Some _ | None -> None)

let floor_ts t = t.floor
let pending_above_floor t = Ts_tbl.length t.above
