(* CI perf-regression gate.

   Thin CLI over [Splitbft_harness.Bench_gate]: parses the checked-in
   BENCH_BASELINE.json and a fresh `bench hotpath lanes openloop storage
   --json` run, prints the comparison report, and exits non-zero on any
   regression — including a baselined point or metric the current run no
   longer produces, which is a hard failure, never a silent pass.
   Improvements always pass (the baseline is a floor, not a pin).  The
   gate reads only the [schema] and [artifacts] members, so those are all
   the baseline commits: refreshing the floor after a deliberate win
   means copying them from the new JSON, without its [metrics]
   snapshot.

     bench_check --baseline BENCH_BASELINE.json --current out.json [--tolerance 0.10]
                 [--only ARTIFACT]...

   [--only] restricts the sweep to the named artifacts, for jobs that
   deliberately measure a subset (CI's perf job gates hotpath, lanes and
   openloop; its storage job gates only storage);
   it is an explicit narrowing, not a silent skip. *)

module Json = Splitbft_obs.Json
module Gate = Splitbft_harness.Bench_gate

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench_check: " ^ s); exit 2) fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die "cannot read %s: %s" path msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let parse_doc path =
  match Json.parse (read_file path) with
  | Ok doc -> doc
  | Error e -> die "%s: %s" path e

let fnum v = if Float.is_finite v then Printf.sprintf "%14.2f" v else Printf.sprintf "%14s" "-"

let pct base v =
  if Float.is_finite base && Float.is_finite v then
    Printf.sprintf "%+7.1f%%" ((v -. base) /. base *. 100.0)
  else Printf.sprintf "%8s" "-"

let print_row (r : Gate.row) =
  let status =
    match r.Gate.r_verdict with
    | Gate.Pass -> "ok"
    | Gate.Regression qual -> "REGRESSION" ^ qual
    | Gate.Missing_point -> "MISSING POINT"
    | Gate.Missing_metric what -> Printf.sprintf "MISSING METRIC (%s)" what
  in
  Printf.printf "%-26s %-12s %s %s %s  %s\n" r.Gate.r_point r.Gate.r_metric
    (fnum r.Gate.r_baseline) (fnum r.Gate.r_current) (pct r.Gate.r_baseline r.Gate.r_current)
    status

let () =
  let baseline = ref "BENCH_BASELINE.json" in
  let current = ref "" in
  let tolerance = ref 0.10 in
  let only = ref [] in
  let add_only a =
    if not (List.mem_assoc a Gate.gated_artifacts) then
      die "--only %s: not a gated artifact (%s)" a
        (String.concat ", " (List.map fst Gate.gated_artifacts));
    only := !only @ [ a ]
  in
  let spec =
    [ ("--baseline", Arg.Set_string baseline, "PATH checked-in baseline JSON");
      ("--current", Arg.Set_string current, "PATH freshly measured bench JSON");
      ("--tolerance", Arg.Set_float tolerance, "FRAC allowed relative regression (default 0.10)");
      ("--only", Arg.String add_only, "ARTIFACT gate only this artifact (repeatable)") ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "bench_check [options]";
  if !current = "" then die "--current is required";
  if !tolerance < 0.0 then die "--tolerance must be non-negative";
  let base_doc = parse_doc !baseline in
  let cur_doc = parse_doc !current in
  match
    Gate.check ~tolerance:!tolerance
      ?only:(match !only with [] -> None | names -> Some names)
      ~baseline_name:!baseline ~current_name:!current ~baseline:base_doc ~current:cur_doc ()
  with
  | Error msg -> die "%s" msg
  | Ok report ->
    Printf.printf "%-26s %-12s %14s %14s %8s  %s\n" "point" "metric" "baseline" "current"
      "Δ%" "status";
    List.iter print_row report.Gate.rows;
    if report.Gate.checked = 0 then
      die "%s: none of the gated artifact arrays present" !baseline;
    if report.Gate.failures > 0 then begin
      Printf.printf "\n%d check(s) regressed beyond ±%.0f%% of %s\n" report.Gate.failures
        (100.0 *. !tolerance) !baseline;
      exit 1
    end
    else
      Printf.printf "\nall %d check(s) within ±%.0f%% of %s\n" report.Gate.checked
        (100.0 *. !tolerance) !baseline
