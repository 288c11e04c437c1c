(* End-to-end benchmark of SplitBFT on both clocks, with a per-layer
   breakdown.  See README.md for the workloads, the metric catalogue and
   how to run it.

     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out F]
     main.exe all [--out-dir D]          # every workload, one process each
     main.exe compare BASE HEAD          # two sets of result documents
     main.exe smoke                      # the runtest rule: tiny windows

   [run] prints every metric by name with its unit, then, as the last
   line of standard output, {"correct", "attempted", "failed", "metrics"}:
   the end-to-end metrics, or with [--trace 1] the per-layer ones. *)

module Json = Splitbft_obs.Json
module Tracer = Splitbft_obs.Tracer
open Measure

let provenance_line ~workload ~seed ~reps =
  Printf.sprintf "workload %s  seed %d  reps %d  profile %s  ocaml %s  nproc %d" workload seed
    reps Build_profile.profile Sys.ocaml_version
    (Domain.recommended_domain_count ())

type outcome = {
  metrics : metric list;
  reps : rep list;  (** every repetition, timed and traced, in order *)
  failed_checks : string list;
  info : (string * Json.t) list;
}

let min_samples ~quick = if quick then 1 else 1000

(* Simulated metrics are a function of the seed alone, so a repetition
   must reproduce those of the earlier one with its seed bit for bit. *)
let sim_of (r : rep) =
  List.filter (fun m -> m.clock = Sim) (r.sim_metrics @ r.layers)

let determinism ~first (r : rep) =
  List.concat
    (List.map2
       (fun a b ->
         if Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value) then []
         else
           [ Printf.sprintf "determinism: %s is %.17g in one repetition, %.17g in another"
               a.name a.value b.value ])
       (sim_of first) (sim_of r))

(* Without compaction (OCaml < 5.2) the heap only grows across
   repetitions, so the peak is read after the first one. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Repetitions cycle over the workload's [seeds] deployments until
   [seconds] of wall time have passed, at least [reps] of them and at
   least one repeat.  Simulated metrics are the median over the distinct
   deployments.  [wall_ops_per_s] is the fastest repetition's: on a
   shared machine noise only ever slows a repetition down, and the speed
   of the machine drifts over tens of seconds, which a median over one
   run's repetitions does not average out. *)
let timed ~quick ~reps ~seconds (w : Workloads.t) ~seed =
  let k = w.seeds in
  let min_reps = max reps (k + 1) in
  let start = now () in
  let heap_mb = ref nan in
  let rec loop i acc =
    if i >= min_reps && (now () -. start >= seconds || i >= 50) then List.rev acc
    else begin
      let seed = Workloads.sub_seed seed (i mod k) in
      let r = run_rep ~min_samples:(min_samples ~quick) w ~seed in
      if i = 0 then heap_mb := top_heap_mb ();
      loop (i + 1) (r :: acc)
    end
  in
  let runs = loop 0 [] in
  let firsts = List.filteri (fun i _ -> i < k) runs in
  let med (f : rep -> float) rs = Compare.median (List.map f rs) in
  let sim_metrics =
    List.map
      (fun m ->
        let value (r : rep) =
          (List.find (fun x -> String.equal x.name m.name) r.sim_metrics).value
        in
        { m with value = med value firsts })
      (List.hd runs).sim_metrics
  in
  { metrics =
      sim_metrics
      @ [ wall "wall_ops_per_s" "ops/s"
            (List.fold_left
               (fun acc (r : rep) -> Float.max acc (float_of_int r.ops /. r.window_s))
               0.0 runs);
          wall "setup_s" "s" (med (fun r -> r.setup_s) runs);
          wall "heap_peak_mb" "MB" !heap_mb ];
    reps = runs;
    failed_checks =
      List.sort_uniq String.compare
        (List.concat_map (fun (r : rep) -> r.failed_checks) runs
        @ List.concat
            (List.mapi (fun i r -> determinism ~first:(List.nth firsts (i mod k)) r) runs));
    info = [] }

(* One untraced repetition for the registry, runtime and sampler
   metrics; one traced repetition, never timed, for the span-attributed
   ones and the confidentiality scan; then the crypto and codec calls. *)
let traced ~quick (w : Workloads.t) ~seed =
  let untraced = run_rep ~min_samples:(min_samples ~quick) w ~seed in
  let rec traced_rep capacity attempts =
    let tracer = Tracer.create ~sample_every:1 ~record_orphans:true ~capacity () in
    let r = run_rep ~tracer ~min_samples:(min_samples ~quick) w ~seed in
    if Tracer.dropped tracer > 0 && attempts > 1 then traced_rep (4 * capacity) (attempts - 1)
    else (r, capacity)
  in
  let tr, capacity = traced_rep (1 lsl 20) 3 in
  let dropped = List.find_opt (fun m -> String.equal m.name "trace.dropped") tr.traced in
  { metrics =
      untraced.layers @ tr.traced
      @ micro ~budget_s:(if quick then 0.01 else 0.25)
      @ [ wall "trace.wall_overhead" "ratio" (tr.total_s /. untraced.total_s) ];
    reps = [ untraced; tr ];
    failed_checks =
      untraced.failed_checks @ tr.failed_checks
      @ (match dropped with
        | Some m when m.value > 0.0 -> [ Printf.sprintf "trace: %.0f spans dropped" m.value ]
        | _ -> []);
    info =
      [ ("tracer_capacity", Json.Int capacity);
        ( "reconcile",
          Json.Str
            (match tr.reconcile with
            | Some (Ok ()) -> "ok"
            | Some (Error e) -> e
            | None -> "-") ) ] }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit) ]))
       ms)

let attempted_failed (o : outcome) =
  List.fold_left
    (fun (att, fail) (r : rep) -> (att + r.ops + r.failures, fail + r.failures))
    (0, 0) o.reps

let document (w : Workloads.t) ~seed ~trace ~seconds (o : outcome) =
  let attempted, failed = attempted_failed o in
  let floats (f : rep -> float) = Json.List (List.map (fun r -> Json.Float (f r)) o.reps) in
  Json.Obj
    ([ ("schema", Json.Str "splitbft.e2e/v1");
       ("workload", Json.Str w.name);
       ("trace", Json.Bool trace);
       ( "provenance",
         Json.Obj
           [ ("profile", Json.Str Build_profile.profile);
             ("ocaml", Json.Str Sys.ocaml_version);
             ("nproc", Json.Int (Domain.recommended_domain_count ()));
             ("seed", Json.Int seed);
             ("seconds", Json.Float seconds);
             ("reps", Json.Int (List.length o.reps));
             ("rep_total_s", floats (fun r -> r.total_s));
             ("rep_setup_s", floats (fun r -> r.setup_s));
             ("rep_window_s", floats (fun r -> r.window_s)) ] );
       ("correct", Json.Bool (o.failed_checks = []));
       ("failed_checks", Json.List (List.map (fun s -> Json.Str s) o.failed_checks));
       ("attempted", Json.Int attempted);
       ("failed", Json.Int failed);
       ("busiest_resource", Json.Str (List.hd o.reps).busiest) ]
    @ o.info
    @ [ ("metrics", metrics_json o.metrics) ])

let write_file path json =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc json;
      output_char oc '\n')

let warn_profile () =
  if not (String.equal Build_profile.profile "release") then
    Printf.eprintf
      "WARNING: built with dune profile %S; wall-clock numbers are only comparable from \
       --profile release builds.\n%!"
      Build_profile.profile

let run_workload ~workload ~seed ~seconds ~trace ~reps ~out =
  warn_profile ();
  let w = Workloads.find ~quick:false workload in
  let seed = Option.value seed ~default:w.default_seed in
  let o =
    if trace then traced ~quick:false w ~seed:(Int64.of_int seed)
    else timed ~quick:false ~reps ~seconds w ~seed:(Int64.of_int seed)
  in
  print_endline (provenance_line ~workload ~seed ~reps:(List.length o.reps));
  List.iteri
    (fun i (r : rep) ->
      Printf.printf "rep %d  setup %.3f s  window %.3f s  total %.3f s  ops %d\n" (i + 1)
        r.setup_s r.window_s r.total_s r.ops)
    o.reps;
  List.iter
    (fun m ->
      Printf.printf "%-34s %-16.10g %-10s %s\n" m.name m.value m.unit
        (match m.clock with Sim -> "sim" | Wall -> "wall"))
    o.metrics;
  Printf.printf "busiest resource: %s\n" (List.hd o.reps).busiest;
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k (Json.to_string v)) o.info;
  List.iter (fun c -> Printf.eprintf "FAILED %s\n" c) o.failed_checks;
  Option.iter (fun path -> write_file path (document w ~seed ~trace ~seconds o)) out;
  let attempted, failed = attempted_failed o in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (o.failed_checks = []));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json o.metrics) ]));
  if o.failed_checks = [] then 0 else 1

(* ----- all: each workload in a process of its own ----- *)

let all ~out_dir ~seconds ~reps =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let run name ~trace =
    let out = Filename.concat out_dir (name ^ if trace then "-trace.json" else ".json") in
    let code =
      Sys.command
        (Filename.quote_command Sys.executable_name
           [ "run"; "--workload"; name; "--seconds"; string_of_float seconds; "--reps";
             string_of_int reps; "--trace"; (if trace then "1" else "0"); "--out"; out ])
    in
    if code <> 0 then
      Printf.eprintf "%s%s: exit %d\n%!" name (if trace then " (trace)" else "") code;
    code = 0
  in
  let ok =
    List.fold_left
      (fun ok name ->
        let timed = run name ~trace:false in
        let traced = run name ~trace:true in
        ok && timed && traced)
      true Workloads.names
  in
  Printf.printf "\nresults in %s; compare two such directories with `main.exe compare A B`\n"
    out_dir;
  if ok then 0 else 1

(* ----- smoke: the runtest rule ----- *)

let smoke ~bench =
  match Compare.read_json bench with
  | Error e ->
    prerr_endline e;
    1
  | Ok bench ->
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let expect (w : Workloads.t) section (o : outcome) =
      List.iter
        (fun (d : Compare.declared) ->
          match List.find_opt (fun m -> String.equal m.name d.name) o.metrics with
          | None -> fail "%s: %s metric %s not emitted" w.name section d.name
          | Some m ->
            if not (String.equal m.unit d.unit) then
              fail "%s: %s emitted in %s, declared in %s" w.name d.name m.unit d.unit)
        (Compare.declared bench section);
      List.iter (fun c -> fail "%s: %s" w.name c) o.failed_checks
    in
    List.iter
      (fun (w : Workloads.t) ->
        let seed = Int64.of_int w.default_seed in
        let t = timed ~quick:true ~reps:1 ~seconds:0.0 w ~seed in
        expect w "end_to_end" t;
        expect w "per_layer" (traced ~quick:true w ~seed);
        (* The outage sampler must leave the simulation untouched: only the
           event count and what the sampler itself measures may differ. *)
        let sampled = sim_of (List.hd t.reps) in
        List.iter
          (fun b ->
            match List.find_opt (fun a -> String.equal a.name b.name) sampled with
            | Some a when String.equal a.name "engine.events_per_op" || Float.equal a.value b.value
              -> ()
            | Some a ->
              fail "%s: %s is %.17g with the sampler, %.17g without" w.name a.name a.value b.value
            | None -> fail "%s: %s missing with the sampler" w.name b.name)
          (sim_of (run_rep ~with_sampler:false ~min_samples:1 w ~seed)))
      (Workloads.all ~quick:true);
    List.iter prerr_endline (List.rev !failures);
    if !failures = [] then begin
      print_endline "e2e smoke: every declared metric emitted with its unit; sampler inert";
      0
    end
    else 1

(* ----- command line ----- *)

let () =
  let open Cmdliner in
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) Workloads.names))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Seed of the simulation (default: the workload's own).")
  in
  let seconds =
    Arg.(
      value & opt float 0.0
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Keep repeating the workload until $(docv) seconds of wall time have passed.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: report the per-layer metrics from an untraced and a traced repetition.")
  in
  let reps =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"R" ~doc:"Run at least $(docv) timed repetitions.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the full result document to $(docv).")
  in
  let bench =
    Arg.(
      value & opt file "BENCHMARK.json"
      & info [ "bench" ] ~docv:"FILE" ~doc:"The benchmark declaration.")
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run" ~doc:"Run one workload in this process.")
      Term.(
        const (fun workload seed seconds trace reps out ->
            run_workload ~workload ~seed ~seconds ~trace ~reps ~out)
        $ workload $ seed $ seconds $ trace $ reps $ out)
  in
  let all_cmd =
    let out_dir =
      Arg.(
        value & opt string "e2e-results"
        & info [ "out-dir" ] ~docv:"DIR" ~doc:"Directory for the result documents.")
    in
    Cmd.v
      (Cmd.info "all" ~doc:"Run every workload, each in a process of its own.")
      Term.(
        const (fun out_dir seconds reps -> all ~out_dir ~seconds ~reps)
        $ out_dir $ seconds $ reps)
  in
  let compare_cmd =
    let set n doc = Arg.(required & pos n (some string) None & info [] ~docv:doc) in
    Cmd.v
      (Cmd.info "compare"
         ~doc:"Median, quartiles and a verdict per workload and end-to-end metric.")
      Term.(
        const (fun bench base head ->
            match Compare.read_json bench with
            | Error e ->
              prerr_endline e;
              2
            | Ok bench -> if Compare.compare ~bench ~base ~head then 0 else 1)
        $ bench $ set 0 "BASE" $ set 1 "HEAD")
  in
  let smoke_cmd =
    Cmd.v
      (Cmd.info "smoke" ~doc:"Tiny windows: every declared metric emitted; sampler inert.")
      Term.(const (fun bench -> smoke ~bench) $ bench)
  in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "splitbft-e2e" ~doc:"End-to-end benchmark of SplitBFT")
          [ run_cmd; all_cmd; compare_cmd; smoke_cmd ]))
