(* Causal trace recorder.

   Spans are parent-linked, virtual-time-stamped sections owned by a
   trace (one trace per sampled client request, plus synthetic roots
   for view changes / recovery and orphaned enclave transitions).  The
   store is a flat growable array — recording is two or three field
   writes — and everything expensive (tree building, Chrome Trace Event
   JSON) happens at export time.

   When no tracer is attached to the engine, every instrumentation site
   short-circuits on [None] before touching this module at all; the
   sampling knobs here only matter for runs that do attach one. *)

type span = {
  id : int;
  trace : int64;
  parent : int option;
  name : string;
  cat : string;
  pid : int;
  tid : string;
  mutable start : float;
  mutable dur : float;  (* negative while open *)
  mutable args : (string * float) list;
}

type t = {
  sample_every : int;
  record_orphans : bool;
  capacity : int;
  mutable spans : span array;
  mutable len : int;
  mutable dropped : int;
  mutable synth : int64;  (* allocator for synthetic (non-client) trace ids *)
}

let dummy =
  { id = -1; trace = 0L; parent = None; name = ""; cat = ""; pid = 0; tid = "";
    start = 0.0; dur = 0.0; args = [] }

let create ?(sample_every = 1) ?(record_orphans = true) ?(capacity = 1 lsl 20) () =
  if sample_every < 1 then invalid_arg "Tracer.create: sample_every < 1";
  { sample_every;
    record_orphans;
    capacity;
    spans = Array.make (min capacity 1024) dummy;
    len = 0;
    dropped = 0;
    synth = 0L }

let sample_every t = t.sample_every
let record_orphans t = t.record_orphans

(* ----- trace ids ----- *)

(* Client roots: deterministic in (client, timestamp) so a retransmitted
   request maps to the SAME trace, and head sampling is a remainder
   check on the timestamp — stable across retries by construction. *)
let client_trace ~client ~ts =
  Int64.logor (Int64.shift_left (Int64.of_int client) 32) (Int64.logand ts 0xffffffffL)

let sampled_ts t ts = Int64.rem ts (Int64.of_int t.sample_every) = 0L

(* Synthetic roots (view changes, recovery, orphaned ecalls) live in a
   tagged range no client trace can reach. *)
let fresh_forced_trace t =
  t.synth <- Int64.add t.synth 1L;
  Int64.logor 0x4000_0000_0000_0000L t.synth

let fresh_orphan_trace t =
  t.synth <- Int64.add t.synth 1L;
  Int64.logor 0x2000_0000_0000_0000L t.synth

(* ----- recording ----- *)

let open_span t ?parent ~trace ~name ~cat ~pid ~tid ~at () =
  if t.len >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    if t.len = Array.length t.spans then begin
      let bigger =
        Array.make (min t.capacity (2 * Array.length t.spans)) dummy
      in
      Array.blit t.spans 0 bigger 0 t.len;
      t.spans <- bigger
    end;
    let id = t.len in
    t.spans.(id) <-
      { id; trace; parent; name; cat; pid; tid; start = at; dur = -1.0; args = [] };
    t.len <- t.len + 1;
    id
  end

let get t id = if id >= 0 && id < t.len then Some t.spans.(id) else None

let finish t id ~at =
  match get t id with
  | Some s when s.dur < 0.0 -> s.dur <- Float.max 0.0 (at -. s.start)
  | Some _ | None -> ()

let set_start t id ~at =
  match get t id with Some s -> s.start <- at | None -> ()

let add_arg t id key v =
  match get t id with
  | Some s -> (
    match List.assoc_opt key s.args with
    | Some prev -> s.args <- (key, prev +. v) :: List.remove_assoc key s.args
    | None -> s.args <- (key, v) :: s.args)
  | None -> ()

(* ----- inspection (analyzer) ----- *)

let span_count t = t.len
let dropped t = t.dropped

let iter_spans t f =
  for i = 0 to t.len - 1 do
    f t.spans.(i)
  done

let spans t = List.init t.len (fun i -> t.spans.(i))

(* ----- Chrome Trace Event export ----- *)

(* Chrome wants integer thread ids; intern the (pid, tid-name) pairs and
   emit "thread_name" metadata so the UI shows the symbolic names. *)
let to_json ?(process_name = Printf.sprintf "pid %d") t =
  let tids = Hashtbl.create 32 in
  let pids = Hashtbl.create 32 in
  let meta = ref [] in
  let tid_of pid name =
    if not (Hashtbl.mem pids pid) then begin
      Hashtbl.add pids pid ();
      meta :=
        Json.Obj
          [ ("ph", Json.Str "M"); ("name", Json.Str "process_name");
            ("pid", Json.Int pid); ("tid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.Str (process_name pid)) ]) ]
        :: !meta
    end;
    match Hashtbl.find_opt tids (pid, name) with
    | Some n -> n
    | None ->
      let n = Hashtbl.length tids + 1 in
      Hashtbl.add tids (pid, name) n;
      meta :=
        Json.Obj
          [ ("ph", Json.Str "M"); ("name", Json.Str "thread_name");
            ("pid", Json.Int pid); ("tid", Json.Int n);
            ("args", Json.Obj [ ("name", Json.Str name) ]) ]
        :: !meta;
      n
  in
  let span_event (s : span) =
    let args =
      [ ("trace", Json.Str (Printf.sprintf "%016Lx" s.trace));
        ("id", Json.Int s.id) ]
      @ (match s.parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
      @ (if s.dur < 0.0 then [ ("unfinished", Json.Int 1) ] else [])
      @ List.rev_map (fun (k, v) -> (k, Json.Float v)) s.args
    in
    Json.Obj
      [ ("ph", Json.Str "X"); ("name", Json.Str s.name); ("cat", Json.Str s.cat);
        ("pid", Json.Int s.pid); ("tid", Json.Int (tid_of s.pid s.tid));
        ("ts", Json.Float s.start); ("dur", Json.Float (Float.max 0.0 s.dur));
        ("args", Json.Obj args) ]
  in
  let events = List.init t.len (fun i -> span_event t.spans.(i)) in
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !meta @ events));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData",
       Json.Obj
         [ ("schema", Json.Str "splitbft.trace/v1");
           ("spans", Json.Int t.len);
           ("dropped", Json.Int t.dropped) ]) ]

let write_file ?process_name t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json ?process_name t);
      output_char oc '\n')
