(* Pure comparison logic of the CI perf-regression gate.

   [bin/bench_check.ml] is a thin CLI over [check]: it parses the two
   JSON documents, prints the report rows, and exits non-zero on
   failures.  Keeping the comparison here makes the gate's semantics
   unit-testable — in particular the rule that a point or metric the
   baseline records but the current run no longer produces is a hard
   failure, never a silent pass (a refactor that drops an artifact row
   must not read as "no regression"). *)

module Json = Splitbft_obs.Json

type point = {
  label : string;
  tput : float;
  split_tput : float;
  pbft_tput : float;
  ecall_us : float;
  p99_us : float;
  tol : float option;  (* baseline per-point override of the tolerance *)
}

(* Artifact arrays the gate covers, in report order, with an optional
   label filter (None = gate every labeled point).  A name missing from
   the baseline is skipped (old baselines predating an artifact stay
   valid); once baselined, the current run must produce it. *)
let gated_artifacts =
  [ ("hotpath", None);
    ("lanes", None);
    ("openloop", Some [ "knee-zipf"; "knee-uniform"; "p99-at-half-load" ]);
    ("storage", None);
    ("fig4", None);
    ("ceilings", None);
    ("simmode", None);
    ("fig3a", None);
    ("fig3b", None) ]

(* (metric name, accessor, direction): [`Floor] gates drops below the
   baseline, [`Ceiling] gates rises above it. *)
let metrics =
  [ ("throughput", (fun p -> p.tput), `Floor);
    ("splitbft throughput", (fun p -> p.split_tput), `Floor);
    ("pbft throughput", (fun p -> p.pbft_tput), `Floor);
    ("ecall cost", (fun p -> p.ecall_us), `Ceiling);
    ("p99 latency", (fun p -> p.p99_us), `Ceiling) ]

type verdict =
  | Pass
  | Regression of string  (* qualifier appended to "REGRESSION" *)
  | Missing_point
  | Missing_metric of string

type row = {
  r_point : string;  (* "artifact/label" *)
  r_metric : string;
  r_baseline : float;  (* [nan] when not applicable *)
  r_current : float;
  r_verdict : verdict;
}

type report = { rows : row list; checked : int; failures : int }

let failed = function Pass -> false | Regression _ | Missing_point | Missing_metric _ -> true

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let number = function
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | Some _ | None -> nan

let str = function Some (Json.Str s) -> Some s | Some _ | None -> None

let artifact_points ~doc_name name doc =
  match Option.bind (Json.member "artifacts" doc) (Json.member name) with
  | Some (Json.List points) -> Some points
  | Some _ -> malformed "%s: artifacts.%s is not an array" doc_name name
  | None -> None

let point_of_json ~doc_name name j =
  match str (Json.member "label" j) with
  | None -> malformed "%s: %s point without a label" doc_name name
  | Some label ->
    { label;
      tput = number (Json.member "throughput_ops" j);
      split_tput = number (Json.member "splitbft_throughput_ops" j);
      pbft_tput = number (Json.member "pbft_throughput_ops" j);
      ecall_us = number (Json.member "ecall_us_per_request" j);
      p99_us = number (Json.member "p99_latency_us" j);
      tol =
        (let t = number (Json.member "tolerance" j) in
         if Float.is_finite t then Some t else None) }

(* The baseline-vs-current sweep over [gated] artifacts. *)
let baseline_rows ~gated ~tolerance ~baseline_name ~current_name ~baseline ~current =
  List.concat_map
    (fun (name, labels) ->
      match artifact_points ~doc_name:baseline_name name baseline with
      | None -> []
      | Some base_raw ->
        let keep p =
          match labels with None -> true | Some ls -> List.mem p.label ls
        in
        let base_points =
          List.filter keep (List.map (point_of_json ~doc_name:baseline_name name) base_raw)
        in
        let cur_points =
          match artifact_points ~doc_name:current_name name current with
          | Some raw -> List.map (point_of_json ~doc_name:current_name name) raw
          | None ->
            malformed "%s: no artifacts.%s array (baseline gates on it)" current_name name
        in
        List.concat_map
          (fun b ->
            match List.find_opt (fun c -> c.label = b.label) cur_points with
            | None ->
              [ { r_point = name ^ "/" ^ b.label;
                  r_metric = "-";
                  r_baseline = nan;
                  r_current = nan;
                  r_verdict = Missing_point } ]
            | Some c ->
              List.filter_map
                (fun (metric, get, dir) ->
                  let bv = get b in
                  if not (Float.is_finite bv) then None
                  else
                    let cv = get c in
                    let verdict =
                      if not (Float.is_finite cv) then Missing_metric metric
                      else
                        let tol = Option.value b.tol ~default:tolerance in
                        let bad =
                          match dir with
                          | `Floor -> cv < bv *. (1.0 -. tol)
                          | `Ceiling -> cv > bv *. (1.0 +. tol)
                        in
                        if bad then Regression "" else Pass
                    in
                    Some
                      { r_point = name ^ "/" ^ b.label;
                        r_metric = metric;
                        r_baseline = bv;
                        r_current = cv;
                        r_verdict = verdict })
                metrics)
          base_points)
    gated

(* Detector overhead gate: the detectors-on twin of the saturated batched
   point must hold within 3% of the plain point's throughput — measured
   on the CURRENT run, so a slow observer can't hide behind a refreshed
   baseline.  The twin's absence is itself a failure: a change that
   silently drops the detectors-on point (or leaves its throughput
   unmeasured) must not read as "no detector cost". *)
let detect_overhead_rows ~current_name ~current =
  match artifact_points ~doc_name:current_name "hotpath" current with
  | None -> []
  | Some raw ->
    let points = List.map (point_of_json ~doc_name:current_name "hotpath") raw in
    let find l = List.find_opt (fun p -> p.label = l) points in
    (match (find "batch200", find "batch200-detect") with
    | Some plain, Some det when Float.is_finite plain.tput && Float.is_finite det.tput ->
      [ { r_point = "hotpath/detect-overhead";
          r_metric = "throughput";
          r_baseline = plain.tput;
          r_current = det.tput;
          r_verdict =
            (if det.tput < plain.tput *. 0.97 then Regression " (>3% detector cost)"
             else Pass) } ]
    | Some plain, _ when Float.is_finite plain.tput ->
      (* batch200 measured, its detectors-on twin missing or non-finite. *)
      [ { r_point = "hotpath/detect-overhead";
          r_metric = "throughput";
          r_baseline = plain.tput;
          r_current = nan;
          r_verdict = Missing_metric "batch200-detect throughput" } ]
    | _ -> [] (* no saturated plain point in this run's sweep *))

(* Read-scaling gate: when the current run carries the storage artifact,
   the 4-follower read throughput must be at least [storage_scale_floor]
   times the 0-follower consensus-only baseline — again measured on the
   CURRENT run, so follower reads collapsing back onto the quorum path
   can't hide behind a stale baseline. *)
let storage_scale_floor = 2.0

let storage_scale_rows ~current_name ~current =
  match artifact_points ~doc_name:current_name "storage" current with
  | None -> []
  | Some raw ->
    let points = List.map (point_of_json ~doc_name:current_name "storage") raw in
    (match List.find_opt (fun p -> p.label = "read-scale-f4-vs-f0") points with
    | Some p when Float.is_finite p.tput ->
      [ { r_point = "storage/read-scale";
          r_metric = "f4 vs f0";
          r_baseline = storage_scale_floor;
          r_current = p.tput;
          r_verdict =
            (if p.tput < storage_scale_floor then
               Regression " (followers scale reads < 2x)"
             else Pass) } ]
    | _ ->
      [ { r_point = "storage/read-scale";
          r_metric = "f4 vs f0";
          r_baseline = storage_scale_floor;
          r_current = nan;
          r_verdict = Missing_metric "read-scale-f4-vs-f0 ratio" } ])

(* Paper claim (§6, Figure 3a): unbatched SplitBFT-KVS throughput does
   not fall as clients are added — at 150 clients it is at least
   [fig3a_hold_floor] times its 10-client throughput.  Measured on the
   CURRENT run, like the gates above. *)
let fig3a_hold_floor = 0.95

let fig3a_claim_rows ~current_name ~current =
  match artifact_points ~doc_name:current_name "fig3a" current with
  | None -> []
  | Some raw ->
    let points = List.map (point_of_json ~doc_name:current_name "fig3a") raw in
    let tput l =
      match List.find_opt (fun p -> p.label = l) points with
      | Some p -> p.split_tput
      | None -> nan
    in
    let ratio = tput "kvs-c150" /. tput "kvs-c10" in
    [ { r_point = "fig3a/kvs-c150-vs-c10";
        r_metric = "splitbft";
        r_baseline = fig3a_hold_floor;
        r_current = ratio;
        r_verdict =
          (if not (Float.is_finite ratio) then Missing_metric "kvs-c10 and kvs-c150 throughput"
           else if ratio < fig3a_hold_floor then Regression " (KVS falls as clients grow)"
           else Pass) } ]

let check ?(tolerance = 0.10) ?only ~baseline_name ~current_name ~baseline ~current () =
  (* [only] restricts the sweep to the named artifacts — an EXPLICIT
     narrowing for jobs that measure a subset (the storage job gates
     only its own artifact); without it, an artifact the baseline
     records but the current run omits is a hard failure. *)
  let keep name = match only with None -> true | Some names -> List.mem name names in
  let gated = List.filter (fun (name, _) -> keep name) gated_artifacts in
  match
    baseline_rows ~gated ~tolerance ~baseline_name ~current_name ~baseline ~current
    @ (if keep "hotpath" then detect_overhead_rows ~current_name ~current else [])
    @ (if keep "storage" then storage_scale_rows ~current_name ~current else [])
    @ (if keep "fig3a" then fig3a_claim_rows ~current_name ~current else [])
  with
  | exception Malformed msg -> Error msg
  | rows ->
    Ok
      { rows;
        checked = List.length rows;
        failures = List.length (List.filter (fun r -> failed r.r_verdict) rows) }
