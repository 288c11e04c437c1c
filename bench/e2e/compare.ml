(* Reading BENCHMARK.json and result documents, and the [compare]
   subcommand: median, quartiles and a verdict for every (workload,
   end-to-end metric) pair across two sets of runs. *)

module Json = Splitbft_obs.Json

type declared = { name : string; unit : string; higher_better : bool; bound : float }

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let read_json path =
  match read_file path with
  | Error e -> Error e
  | Ok s -> (
    match Json.parse s with Ok j -> Ok j | Error e -> Error (path ^ ": " ^ e))

let str key j = match Json.member key j with Some (Json.Str s) -> Some s | _ -> None

let num key j =
  match Json.member key j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* The metrics BENCHMARK.json declares under [section]. *)
let declared bench section =
  match Json.member section bench with
  | Some (Json.List items) ->
    List.filter_map
      (fun j ->
        match (str "name" j, str "unit" j) with
        | Some name, Some unit ->
          Some
            { name;
              unit;
              higher_better = str "better" j = Some "higher";
              bound = Option.value ~default:0.0 (num "bound" j) }
        | _ -> None)
      items
  | _ -> []

(* ----- order statistics, as Python's [statistics] module computes them ----- *)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [statistics.quantiles(xs, n=4)] with its default exclusive method:
   (q1, q3).  With one value both are that value. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else Float.abs ((q3 -. q1) /. m)

(* ----- result documents ----- *)

type run = { workload : string; values : (string * float) list }

let run_of_json j =
  match (str "workload" j, Json.member "metrics" j) with
  | Some workload, Some (Json.Obj metrics) ->
    Some
      { workload;
        values =
          List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num "value" v)) metrics }
  | _ -> None

(* Every result document in [path] (a directory or one file). *)
let load path =
  let files =
    if Sys.file_exists path && Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.filter_map
    (fun f ->
      match read_json f with
      | Ok j -> run_of_json j
      | Error e ->
        Printf.eprintf "skipping %s\n%!" e;
        None)
    files

type verdict = Ok_ | Regressed | Unresolved

let verdict_name = function Ok_ -> "ok" | Regressed -> "regressed" | Unresolved -> "unresolved"

(* How much worse [head] is than [base], as a share of [base]; negative
   when better. *)
let worsening (d : declared) ~base ~head =
  if base = 0.0 then 0.0
  else
    let change = (head -. base) /. Float.abs base in
    if d.higher_better then -.change else change

let judge (d : declared) ~base ~head =
  let better x y = if d.higher_better then x > y else x < y in
  let all_better = List.for_all (fun h -> List.for_all (fun b -> better h b) base) head in
  if Float.max (spread base) (spread head) > d.bound && not all_better then Unresolved
  else if worsening d ~base:(median base) ~head:(median head) > d.bound then Regressed
  else Ok_

let compare ~bench ~base ~head =
  let metrics = declared bench "end_to_end" in
  let base = load base and head = load head in
  let workloads =
    List.sort_uniq String.compare (List.map (fun r -> r.workload) (base @ head))
  in
  let values runs workload name =
    List.filter_map
      (fun r -> if String.equal r.workload workload then List.assoc_opt name r.values else None)
      runs
  in
  let fmt xs =
    if xs = [] then "-"
    else
      let q1, q3 = quartiles xs in
      Printf.sprintf "%.6g [%.6g, %.6g] n=%d" (median xs) q1 q3 (List.length xs)
  in
  Printf.printf "%-10s %-15s %-46s %-46s %8s %6s %s\n" "workload" "metric" "base median [q1, q3]"
    "head median [q1, q3]" "change" "bound" "verdict";
  let regressed = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun (d : declared) ->
          let b = values base workload d.name and h = values head workload d.name in
          let change, verdict =
            if b = [] || h = [] then ("-", "missing")
            else
              let v = judge d ~base:b ~head:h in
              if v = Regressed then incr regressed;
              ( Printf.sprintf "%+.2f%%"
                  ((100.0 *. worsening d ~base:(median b) ~head:(median h)) +. 0.0),
                verdict_name v )
          in
          Printf.printf "%-10s %-15s %-46s %-46s %8s %5.0f%% %s\n" workload d.name (fmt b) (fmt h)
            change (100.0 *. d.bound) verdict)
        metrics)
    workloads;
  Printf.printf "(change: how much worse head is than base, as a share of the base median)\n";
  !regressed = 0
