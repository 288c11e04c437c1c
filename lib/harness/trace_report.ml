(* Trace analyzer: turns a run's raw span store into the per-phase cost
   breakdown behind Figure 4, checks the causal trees for structural
   integrity, and reconciles span-attributed cost against the registry's
   aggregate counters.

   The tracer records flat spans on the hot path; everything here — trace
   grouping, tree validation, aggregation — happens once, after the run. *)

module Tracer = Splitbft_obs.Tracer
module Registry = Splitbft_obs.Registry
module Json = Splitbft_obs.Json

type phase = {
  cat : string;
  name : string;
  count : int;
  total_dur_us : float;
  mean_dur_us : float;
  max_dur_us : float;
  args : (string * float) list;  (* span args summed across the phase *)
}

type t = {
  spans : int;
  dropped : int;
  unfinished : int;
  traces : int;
  client_traces : int;
  forced_traces : int;
  orphan_traces : int;
  complete_traces : int;
  broken_traces : int;
  first_defect : string option;
  ecall_spans : int;
  ecall_total_us : float;
  ecall_copied_bytes : float;
  phases : phase list;
}

(* Synthetic trace ids are tagged in the top bits (see Tracer). *)
let forced_bit = 0x4000_0000_0000_0000L
let orphan_bit = 0x2000_0000_0000_0000L

let classify trace =
  if Int64.logand trace forced_bit <> 0L then `Forced
  else if Int64.logand trace orphan_bit <> 0L then `Orphan
  else `Client

let arg s key =
  match List.assoc_opt key s.Tracer.args with Some v -> v | None -> 0.0

let analyze tracer =
  let spans = Tracer.spans tracer in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Tracer.span) -> Hashtbl.replace by_id s.id s) spans;
  (* ----- causal-tree integrity, per trace ----- *)
  let defects = Hashtbl.create 64 in  (* trace -> first defect *)
  let traces = Hashtbl.create 64 in
  let unfinished = ref 0 in
  List.iter
    (fun (s : Tracer.span) ->
      if not (Hashtbl.mem traces s.trace) then Hashtbl.add traces s.trace ();
      if s.dur < 0.0 then incr unfinished;
      match s.parent with
      | None -> ()
      | Some p -> (
        if not (Hashtbl.mem defects s.trace) then
          match Hashtbl.find_opt by_id p with
          | None ->
            Hashtbl.add defects s.trace
              (Printf.sprintf "span %d (%s) references missing parent %d" s.id
                 s.name p)
          | Some parent ->
            if parent.trace <> s.trace then
              Hashtbl.add defects s.trace
                (Printf.sprintf
                   "span %d (%s) parented across traces %016Lx -> %016Lx" s.id
                   s.name s.trace parent.trace)
            else if parent.start > s.start +. 1e-6 then
              Hashtbl.add defects s.trace
                (Printf.sprintf
                   "span %d (%s) starts %.1f us before its parent %d (%s)" s.id
                   s.name (parent.start -. s.start) p parent.name)))
    spans;
  let client = ref 0 and forced = ref 0 and orphan = ref 0 in
  Hashtbl.iter
    (fun trace () ->
      match classify trace with
      | `Client -> incr client
      | `Forced -> incr forced
      | `Orphan -> incr orphan)
    traces;
  let total_traces = Hashtbl.length traces in
  let broken = Hashtbl.length defects in
  let first_defect =
    Hashtbl.fold (fun _ d acc -> match acc with Some _ -> acc | None -> Some d)
      defects None
  in
  (* ----- per-phase aggregation (cat:name) ----- *)
  let phases = Hashtbl.create 64 in
  let ecall_spans = ref 0 in
  let ecall_total = ref 0.0 in
  let ecall_copied = ref 0.0 in
  List.iter
    (fun (s : Tracer.span) ->
      if String.equal s.cat "enclave" then begin
        incr ecall_spans;
        ecall_total := !ecall_total +. arg s "total_us";
        ecall_copied := !ecall_copied +. arg s "copied_bytes"
      end;
      let key = (s.cat, s.name) in
      let dur = Float.max 0.0 s.dur in
      match Hashtbl.find_opt phases key with
      | None ->
        Hashtbl.add phases key
          (ref
             { cat = s.cat; name = s.name; count = 1; total_dur_us = dur;
               mean_dur_us = dur; max_dur_us = dur; args = s.args })
      | Some cell ->
        let p = !cell in
        let args =
          List.fold_left
            (fun acc (k, v) ->
              match List.assoc_opt k acc with
              | Some prev -> (k, prev +. v) :: List.remove_assoc k acc
              | None -> (k, v) :: acc)
            p.args s.args
        in
        cell :=
          { p with
            count = p.count + 1;
            total_dur_us = p.total_dur_us +. dur;
            max_dur_us = Float.max p.max_dur_us dur;
            args })
    spans;
  let phases =
    Hashtbl.fold (fun _ cell acc -> !cell :: acc) phases []
    |> List.map (fun p ->
           { p with mean_dur_us = p.total_dur_us /. float_of_int p.count })
    |> List.sort (fun a b -> Float.compare b.total_dur_us a.total_dur_us)
  in
  { spans = Tracer.span_count tracer;
    dropped = Tracer.dropped tracer;
    unfinished = !unfinished;
    traces = total_traces;
    client_traces = !client;
    forced_traces = !forced;
    orphan_traces = !orphan;
    complete_traces = total_traces - broken;
    broken_traces = broken;
    first_defect;
    ecall_spans = !ecall_spans;
    ecall_total_us = !ecall_total;
    ecall_copied_bytes = !ecall_copied;
    phases }

(* ----- reconciliation against the registry ----- *)

(* Only exact when every ecall is attributed to some span, i.e. the tracer
   runs with sample_every = 1 and record_orphans = true; the CLI enforces
   that before promising reconciliation. *)
let reconcile report registry =
  let counted =
    Registry.sum registry ~prefix:"tee.ecalls"
    -. Registry.sum registry ~prefix:"tee.ecalls_aborted"
  in
  let ecall_us = Registry.sum registry ~prefix:"tee.ecall_us" in
  let copy_bytes = Registry.sum registry ~prefix:"tee.copy_bytes" in
  let close a b =
    (* float accumulation orders differ between the two sides *)
    Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  if float_of_int report.ecall_spans <> counted then
    Error
      (Printf.sprintf "ecall span count %d != registry tee.ecalls %.0f"
         report.ecall_spans counted)
  else if not (close report.ecall_total_us ecall_us) then
    Error
      (Printf.sprintf
         "span-attributed ecall cost %.3f us != registry tee.ecall_us %.3f us"
         report.ecall_total_us ecall_us)
  else if not (close report.ecall_copied_bytes copy_bytes) then
    Error
      (Printf.sprintf
         "span-attributed copied bytes %.0f != registry tee.copy_bytes %.0f"
         report.ecall_copied_bytes copy_bytes)
  else Ok ()

(* ----- rendering ----- *)

let print ?(max_phases = 24) report =
  let interesting = [ "crypto_us"; "exec_us"; "serialize_us"; "copy_us" ] in
  let rows =
    List.filteri (fun i _ -> i < max_phases) report.phases
    |> List.map (fun p ->
           [ p.cat ^ ":" ^ p.name;
             string_of_int p.count;
             Table.us p.total_dur_us;
             Table.us p.mean_dur_us;
             Table.us p.max_dur_us ]
           @ List.map
               (fun k ->
                 match List.assoc_opt k p.args with
                 | Some v when v > 0.0 -> Table.us v
                 | Some _ | None -> "-")
               interesting)
  in
  Table.print ~title:"Per-phase cost attribution (Figure 4 decomposition)"
    ~header:
      ([ "phase"; "spans"; "total"; "mean"; "max" ]
      @ List.map (fun k -> String.sub k 0 (String.length k - 3)) interesting)
    ~rows;
  Printf.printf
    "traces: %d (%d client, %d forced, %d orphan) — %d complete, %d broken\n"
    report.traces report.client_traces report.forced_traces
    report.orphan_traces report.complete_traces report.broken_traces;
  (match report.first_defect with
  | Some d -> Printf.printf "first defect: %s\n" d
  | None -> ());
  Printf.printf "spans: %d (%d unfinished, %d dropped)\n" report.spans
    report.unfinished report.dropped

let to_json report =
  let phase_json p =
    Json.Obj
      ([ ("cat", Json.Str p.cat);
         ("name", Json.Str p.name);
         ("count", Json.Int p.count);
         ("total_dur_us", Json.Float p.total_dur_us);
         ("mean_dur_us", Json.Float p.mean_dur_us);
         ("max_dur_us", Json.Float p.max_dur_us) ]
      @ List.rev_map (fun (k, v) -> (k, Json.Float v)) p.args)
  in
  Json.Obj
    [ ("schema", Json.Str "splitbft.trace_report/v1");
      ("spans", Json.Int report.spans);
      ("dropped", Json.Int report.dropped);
      ("unfinished", Json.Int report.unfinished);
      ("traces", Json.Int report.traces);
      ("client_traces", Json.Int report.client_traces);
      ("forced_traces", Json.Int report.forced_traces);
      ("orphan_traces", Json.Int report.orphan_traces);
      ("complete_traces", Json.Int report.complete_traces);
      ("broken_traces", Json.Int report.broken_traces);
      ("ecall_spans", Json.Int report.ecall_spans);
      ("ecall_total_us", Json.Float report.ecall_total_us);
      ("ecall_copied_bytes", Json.Float report.ecall_copied_bytes);
      ("phases", Json.List (List.map phase_json report.phases)) ]

(* ----- Trace Event JSON validation (the CI gate) ----- *)

(* Structural checks on an exported Chrome Trace Event document: parseable,
   schema-tagged, ids unique, every parent reference resolves within the
   same trace and starts no later than its child, and the otherData span
   count matches the number of "X" events. *)
let validate json =
  let ( let* ) = Result.bind in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> Ok l
    | Some _ -> Error "traceEvents is not a list"
    | None -> Error "missing traceEvents"
  in
  let* () =
    match Json.member "otherData" json with
    | Some other -> (
      match Json.member "schema" other with
      | Some (Json.Str "splitbft.trace/v1") -> Ok ()
      | Some (Json.Str s) -> Error (Printf.sprintf "unexpected schema %S" s)
      | _ -> Error "otherData.schema missing")
    | None -> Error "missing otherData"
  in
  let num = function
    | Some (Json.Int i) -> Some (float_of_int i)
    | Some (Json.Float f) -> Some f
    | _ -> None
  in
  let declared =
    match Json.member "otherData" json with
    | Some other -> num (Json.member "spans" other)
    | None -> None
  in
  (* first pass: collect X events as (id, trace, parent option, ts) *)
  let table = Hashtbl.create 1024 in
  let xs = ref [] in
  let x_count = ref 0 in
  let* () =
    List.fold_left
      (fun acc ev ->
        let* () = acc in
        match Json.member "ph" ev with
        | Some (Json.Str "X") -> (
          incr x_count;
          let args = Option.value ~default:Json.Null (Json.member "args" ev) in
          match
            (Json.member "id" args, Json.member "trace" args,
             num (Json.member "ts" ev))
          with
          | Some (Json.Int id), Some (Json.Str trace), Some ts ->
            if Hashtbl.mem table id then
              Error (Printf.sprintf "duplicate span id %d" id)
            else begin
              Hashtbl.add table id (trace, ts);
              (match Json.member "parent" args with
              | Some (Json.Int p) -> xs := (id, trace, p, ts) :: !xs
              | _ -> ());
              Ok ()
            end
          | _ -> Error "X event missing args.id/args.trace/ts")
        | Some (Json.Str _) -> Ok ()
        | _ -> Error "event missing ph")
      (Ok ()) events
  in
  let* () =
    match declared with
    | Some d when d <> float_of_int !x_count ->
      Error
        (Printf.sprintf "otherData.spans %.0f != %d X events" d !x_count)
    | Some _ | None -> Ok ()
  in
  List.fold_left
    (fun acc (id, trace, parent, ts) ->
      let* () = acc in
      match Hashtbl.find_opt table parent with
      | None -> Error (Printf.sprintf "span %d references missing parent %d" id parent)
      | Some (ptrace, pts) ->
        if not (String.equal ptrace trace) then
          Error
            (Printf.sprintf "span %d parented across traces %s -> %s" id trace
               ptrace)
        else if pts > ts +. 1e-6 then
          Error
            (Printf.sprintf "span %d starts before its parent %d" id parent)
        else Ok ())
    (Ok ()) !xs
