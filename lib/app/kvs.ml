module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

type op =
  | Put of string * string
  | Get of string
  | Delete of string

let encode_op op =
  W.to_string
    (fun w op ->
      match op with
      | Put (k, v) ->
        W.u8 w 1;
        W.bytes w k;
        W.bytes w v
      | Get k ->
        W.u8 w 2;
        W.bytes w k
      | Delete k ->
        W.u8 w 3;
        W.bytes w k)
    op

let decode_op s =
  R.parse
    (fun r ->
      match R.u8 r with
      | 1 ->
        let k = R.bytes r in
        let v = R.bytes r in
        Put (k, v)
      | 2 -> Get (R.bytes r)
      | 3 -> Delete (R.bytes r)
      | t -> raise (R.Error (Printf.sprintf "unknown kvs op tag %d" t)))
    s

let ok = "OK"
let not_found = "\x00absent"

(* The store is one ordered map from key to a mutable value cell.  Only a
   change to the key set rebuilds map nodes (a PUT to an existing key
   writes its cell), and a snapshot streams the entries in key order with
   no sort: the entry count, then each (key, value) — the bytes of
   [W.list] over the sorted entries, which makes the snapshot (and thus
   checkpoints) canonical. *)
module Smap = Map.Make (String)

type cell = { mutable value : string }

let create () =
  let table = ref Smap.empty in
  let apply op_bytes =
    match decode_op op_bytes with
    | Error _ -> State_machine.noop_result
    | Ok (Put (k, v)) ->
      (match Smap.find_opt k !table with
      | Some c -> c.value <- v
      | None -> table := Smap.add k { value = v } !table);
      ok
    | Ok (Get k) -> (
      match Smap.find_opt k !table with
      | Some c -> c.value
      | None -> not_found)
    | Ok (Delete k) ->
      table := Smap.remove k !table;
      ok
  in
  let snapshot () =
    W.to_string
      (fun w m ->
        W.varint w (Smap.cardinal m);
        Smap.iter
          (fun k c ->
            W.bytes w k;
            W.bytes w c.value)
          m)
      !table
  in
  let restore blob =
    match
      R.parse
        (fun r ->
          R.list r (fun r ->
              let k = R.bytes r in
              let v = R.bytes r in
              (k, v)))
        blob
    with
    | Error e -> Error e
    | Ok entries ->
      (* A repeated key keeps its last value, as successive PUTs would. *)
      table := List.fold_left (fun m (k, v) -> Smap.add k { value = v } m) Smap.empty entries;
      Ok ()
  in
  let classify op_bytes =
    match decode_op op_bytes with
    | Error _ -> State_machine.rw_none
    | Ok (Put (k, _)) | Ok (Delete k) -> { State_machine.reads = []; writes = [ k ] }
    | Ok (Get k) -> { State_machine.reads = [ k ]; writes = [] }
  in
  { State_machine.app_name = "kvs";
    apply;
    classify;
    snapshot;
    restore;
    drain_effects = (fun () -> []) }
