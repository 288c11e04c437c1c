module Ids = Splitbft_types.Ids
module Cost_model = Splitbft_tee.Cost_model
module S = Splitbft_core.Replica
module Stats = Splitbft_util.Stats
module Lines = Splitbft_util.Lines
module Json = Splitbft_obs.Json
module Proto_pbft = Splitbft_proto.Proto_pbft
module Proto_splitbft = Splitbft_proto.Proto_splitbft

(* ----- shared runners ----- *)

(* [proto] lets a point swap in a SplitBFT instance with non-default knobs
   (lanes, workers, cache, threading) without touching the shared params. *)
let splitbft_params ?(proto = Proto_splitbft.protocol) ~batched ~app ~seed () =
  { (Cluster.default_params proto) with
    Cluster.app;
    batch_size = (if batched then 200 else 1);
    batch_timeout_us = 10_000.0;
    seed }

let pbft_params ~batched ~app ~seed =
  { (Cluster.default_params Proto_pbft.protocol) with
    Cluster.app;
    batch_size = (if batched then 200 else 1);
    batch_timeout_us = 10_000.0;
    seed }

(* Leader-side SplitBFT replica, for the ecall-accounting experiments
   (meaningless — [None] — under any other protocol). *)
let leader_split cluster = Proto_splitbft.replica_of (Cluster.node cluster 0)

let measure ?flight ?(prepare = fun (_ : Cluster.t) -> ())
    ?(at_warmup = fun (_ : Cluster.t) -> ()) params ~clients ~window ~warmup_us
    ~duration_us =
  let cluster = Cluster.create ?flight params in
  prepare cluster;
  let spec =
    { Workload.default_spec with
      Workload.clients;
      window;
      warmup_us;
      duration_us }
  in
  let result = Workload.run ~at_warmup:(fun () -> at_warmup cluster) cluster spec in
  (cluster, result)

(* ----- Figure 3 ----- *)

type fig3_point = { clients : int; throughput : float; latency_us : float }
type fig3_series = { series_label : string; points : fig3_point list }

let fig3 ?clients_list ?duration_us ~batched ~app () =
  let clients_list =
    match clients_list with Some l -> l | None -> [ 1; 10; 40; 100; 150 ]
  in
  let duration_us =
    match duration_us with
    | Some d -> d
    | None -> if batched then 500_000.0 else 1_000_000.0
  in
  let window = if batched then 40 else 1 in
  let series label params_of =
    { series_label = label;
      points =
        List.map
          (fun clients ->
            let _, r =
              measure (params_of ()) ~clients ~window ~warmup_us:(duration_us /. 3.0)
                ~duration_us
            in
            { clients;
              throughput = r.Workload.throughput_ops;
              latency_us = r.Workload.mean_latency_us })
          clients_list }
  in
  [ series "splitbft" (fun () -> splitbft_params ~batched ~app ~seed:21L ());
    series "pbft" (fun () -> pbft_params ~batched ~app ~seed:22L) ]

let print_fig3 ~title series =
  let clients =
    match series with
    | [] -> []
    | s :: _ -> List.map (fun p -> p.clients) s.points
  in
  let rows =
    List.map
      (fun c ->
        ( float_of_int c,
          List.concat_map
            (fun s ->
              match List.find_opt (fun p -> p.clients = c) s.points with
              | Some p -> [ p.throughput; p.latency_us ]
              | None -> [ nan; nan ])
            series ))
      clients
  in
  let columns =
    List.concat_map
      (fun s -> [ s.series_label ^ " ops/s"; s.series_label ^ " lat(us)" ])
      series
  in
  Table.print_series ~title ~x_label:"clients" ~columns ~rows

(* ----- Figure 4 ----- *)

type fig4_row = {
  compartment : string;
  mean_ecall_us : float;
  ecalls : int;
  us_per_request : float;
}

let fig4 ?(clients = 40) ~batched () =
  let executed_at_warmup = ref 0 in
  let at_warmup cluster =
    match leader_split cluster with
    | Some r ->
      S.reset_ecall_stats r;
      executed_at_warmup := S.executed_count r
    | None -> ()
  in
  let window = if batched then 40 else 1 in
  let duration_us = if batched then 500_000.0 else 800_000.0 in
  let cluster, _ =
    measure ~at_warmup
      (splitbft_params ~batched ~app:Cluster.App_kvs ~seed:31L ())
      ~clients ~window ~warmup_us:300_000.0 ~duration_us
  in
  match leader_split cluster with
  | Some r ->
    let executed = max 1 (S.executed_count r - !executed_at_warmup) in
    List.map
      (fun c ->
        let count, total, durations = S.ecall_stats r c in
        { compartment = Ids.compartment_name c;
          mean_ecall_us = Stats.mean durations;
          ecalls = count;
          us_per_request = total /. float_of_int executed })
      Ids.all_compartments
  | None -> []

let print_fig4 ~batched rows =
  let total = List.fold_left (fun acc r -> acc +. r.us_per_request) 0.0 rows in
  Table.print
    ~title:
      (Printf.sprintf
         "Figure 4 — leader ecall time per compartment (%s, 40 clients, KVS)"
         (if batched then "batched" else "unbatched"))
    ~header:[ "compartment"; "ecalls"; "mean ecall"; "us/request" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.compartment;
             string_of_int r.ecalls;
             Table.us r.mean_ecall_us;
             Printf.sprintf "%.1f" r.us_per_request ])
         rows
      @ [ [ "TOTAL"; ""; ""; Printf.sprintf "%.1f" total ] ])

(* ----- Table 2 ----- *)

type tcb_row = {
  component : string;
  shared_loc : int;
  logic_loc : int;
  total_loc : int;
}

let find_root () =
  let probe dir = Sys.file_exists (Filename.concat dir "lib/core/preparation.ml") in
  let rec up dir depth =
    if depth > 6 then None
    else if probe dir then Some dir
    else up (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  up (Sys.getcwd ()) 0

let ml_files_under root dirs =
  List.concat_map
    (fun dir ->
      let full = Filename.concat root dir in
      match Sys.readdir full with
      | entries ->
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".ml")
        |> List.map (fun f -> Filename.concat full f)
      | exception Sys_error _ -> [])
    dirs

let code_loc files = (Lines.count_files files).Lines.code

let table2 ?root () =
  let root =
    match root with
    | Some r -> r
    | None -> ( match find_root () with Some r -> r | None -> ".")
  in
  let file sub = Filename.concat root sub in
  (* Shared types/crypto/codec compiled into every enclave, plus the
     in-enclave common logic and the sealed-checkpoint envelope every
     compartment uses. *)
  let shared_files =
    ml_files_under root [ "lib/types"; "lib/crypto"; "lib/codec" ]
    @ [ file "lib/core/common.ml"; file "lib/core/wire.ml"; file "lib/core/config.ml";
        file "lib/consensus/sealed_image.ml" ]
  in
  let shared = code_loc shared_files in
  (* The shared view change runs in every compartment; the NewView plan
     is built and recomputed only in Preparation. *)
  let view_change = file "lib/consensus/view_change.ml" in
  let prep =
    code_loc [ file "lib/core/preparation.ml"; file "lib/consensus/newview.ml"; view_change ]
  in
  let conf = code_loc [ file "lib/core/confirmation.ml"; view_change ] in
  let app_loc = code_loc (ml_files_under root [ "lib/app" ]) in
  (* State transfer (the f+1 rule, serving, the snapshot certificate) runs
     only in Execution. *)
  let exec =
    code_loc [ file "lib/core/execution.ml"; file "lib/consensus/catchup.ml"; view_change ]
    + app_loc
  in
  let untrusted =
    code_loc
      ([ file "lib/core/broker.ml"; file "lib/core/replica.ml" ]
      @ ml_files_under root [ "lib/sim" ])
  in
  let counter = code_loc [ file "lib/minbft/usig.ml" ] in
  [ { component = "Preparation Enc.";
      shared_loc = shared;
      logic_loc = prep;
      total_loc = shared + prep };
    { component = "Confirmation Enc.";
      shared_loc = shared;
      logic_loc = conf;
      total_loc = shared + conf };
    { component = "Execution Enc.";
      shared_loc = shared;
      logic_loc = exec;
      total_loc = shared + exec };
    { component = "Untrusted Env."; shared_loc = 0; logic_loc = untrusted; total_loc = untrusted };
    { component = "Trusted Counter"; shared_loc = 0; logic_loc = counter; total_loc = counter } ]

let print_table2 rows =
  Table.print ~title:"Table 2 — TCB sizes (code lines of this implementation)"
    ~header:[ "component"; "shared"; "logic"; "total" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.component;
             (if r.shared_loc = 0 then "-" else string_of_int r.shared_loc);
             string_of_int r.logic_loc;
             string_of_int r.total_loc ])
         rows)

(* ----- §6 overhead decomposition (simulation mode) ----- *)

type simmode_result = {
  hardware_tput : float;
  simulation_tput : float;
  baseline_tput : float;
  transition_share_of_overhead : float;
}

let simmode ?(duration_us = 800_000.0) () =
  let clients = 40 in
  let run params =
    let _, r = measure params ~clients ~window:1 ~warmup_us:300_000.0 ~duration_us in
    r.Workload.throughput_ops
  in
  let hw = run (splitbft_params ~batched:false ~app:Cluster.App_kvs ~seed:41L ()) in
  let sim =
    run
      { (splitbft_params ~batched:false ~app:Cluster.App_kvs ~seed:41L ()) with
        Cluster.cost = Cost_model.simulation_mode Cost_model.default }
  in
  let pbft = run (pbft_params ~batched:false ~app:Cluster.App_kvs ~seed:42L) in
  (* Overhead accounting in per-request service time, as in §6. *)
  let t_hw = 1e6 /. hw and t_sim = 1e6 /. sim and t_pbft = 1e6 /. pbft in
  let share = (t_hw -. t_sim) /. Float.max 1e-9 (t_hw -. t_pbft) in
  { hardware_tput = hw;
    simulation_tput = sim;
    baseline_tput = pbft;
    transition_share_of_overhead = share }

let print_simmode r =
  Table.print ~title:"§6 — overhead decomposition via SGX simulation mode (unbatched KVS)"
    ~header:[ "configuration"; "throughput" ]
    ~rows:
      [ [ "SplitBFT (hardware mode)"; Table.ops r.hardware_tput ];
        [ "SplitBFT (simulation mode)"; Table.ops r.simulation_tput ];
        [ "PBFT baseline"; Table.ops r.baseline_tput ];
        [ "transition share of overhead"; Table.pct r.transition_share_of_overhead ] ]

(* ----- ablation: batch size ----- *)

type ablation_point = {
  ab_batch : int;
  ab_tput : float;
  ab_ecall_us_per_req : float;
}

let batch_ablation ?(batches = [ 1; 10; 50; 100; 200; 400 ]) ?(duration_us = 400_000.0) () =
  List.map
    (fun batch ->
      let executed_at_warmup = ref 0 in
      let at_warmup cluster =
        match leader_split cluster with
        | Some r ->
          S.reset_ecall_stats r;
          executed_at_warmup := S.executed_count r
        | None -> ()
      in
      let params =
        { (Cluster.default_params Proto_splitbft.protocol) with
          Cluster.batch_size = batch;
          batch_timeout_us = 10_000.0;
          seed = 61L }
      in
      let cluster, r =
        measure ~at_warmup params ~clients:40 ~window:40 ~warmup_us:200_000.0 ~duration_us
      in
      let per_req =
        match leader_split cluster with
        | Some replica ->
          let executed = max 1 (S.executed_count replica - !executed_at_warmup) in
          List.fold_left
            (fun acc c ->
              let _, total, _ = S.ecall_stats replica c in
              acc +. (total /. float_of_int executed))
            0.0 Ids.all_compartments
        | None -> nan
      in
      { ab_batch = batch; ab_tput = r.Workload.throughput_ops; ab_ecall_us_per_req = per_req })
    batches

let print_batch_ablation points =
  Table.print
    ~title:"Ablation — batch size vs enclave-transition amortization (SplitBFT KVS, 40x40 clients)"
    ~header:[ "batch"; "throughput"; "leader ecall us/request" ]
    ~rows:
      (List.map
         (fun p ->
           [ string_of_int p.ab_batch;
             Table.ops p.ab_tput;
             Printf.sprintf "%.1f" p.ab_ecall_us_per_req ])
         points)

(* ----- hotpath sweep: batch size, churn and detectors ----- *)

type hotpath_point = {
  hp_label : string;
  hp_batch : int;
  hp_churn : bool;
  hp_tput : float;
  hp_ecall_us_per_req : float;
  hp_copy_bytes : float;
  hp_retx_suppressed : float;
}

let hotpath_point ?(detect = false) ~batch ~churn () =
  let executed_at_warmup = ref 0 in
  let at_warmup cluster =
    (match leader_split cluster with
    | Some r ->
      S.reset_ecall_stats r;
      executed_at_warmup := S.executed_count r
    | None -> ());
    if churn then begin
      (* Crash the view-0 primary right after warmup: the cluster view-
         changes under load and the host later restarts and catches up via
         state transfer — the paths that re-verify view-change proofs and
         checkpoint certificates and replay client retransmissions. *)
      Cluster.crash_host cluster 0;
      ignore
        (Splitbft_sim.Engine.schedule (Cluster.engine cluster) ~delay:900_000.0
           ~label:"hotpath:restart" (fun () -> Cluster.restart_host cluster 0))
    end
  in
  let params =
    { (Cluster.default_params (Proto_splitbft.make ())) with
      Cluster.batch_size = batch;
      batch_timeout_us = 10_000.0;
      seed = 71L }
  in
  let warmup_us = if churn then 300_000.0 else 200_000.0 in
  let duration_us = if churn then 1_600_000.0 else 400_000.0 in
  (* The detect arm carries the full observer stack — flight recorder
     plus attached anomaly detector — so the gated throughput delta
     against the plain point is the whole detectors-on bill. *)
  let flight = if detect then Some (Splitbft_obs.Flight.create ~capacity:4096 ()) else None in
  let prepare cluster = if detect then ignore (Detector.attach cluster) in
  let cluster, r =
    measure ?flight ~prepare ~at_warmup params ~clients:40 ~window:40 ~warmup_us ~duration_us
  in
  let per_req =
    (* Leader-side ecall time per executed request, as in the batch
       ablation.  In churn arms the view-0 leader spends part of the run
       crashed; the number is still deterministic, which is all the
       regression gate needs. *)
    match leader_split cluster with
    | Some replica ->
      let executed = max 1 (S.executed_count replica - !executed_at_warmup) in
      List.fold_left
        (fun acc c ->
          let _, total, _ = S.ecall_stats replica c in
          acc +. (total /. float_of_int executed))
        0.0 Ids.all_compartments
    | None -> nan
  in
  let obs = Cluster.obs cluster in
  let sum prefix = Splitbft_obs.Registry.sum obs ~prefix in
  { hp_label =
      Printf.sprintf "batch%d%s%s" batch
        (if churn then "-churn" else "")
        (if detect then "-detect" else "");
    hp_batch = batch;
    hp_churn = churn;
    hp_tput = r.Workload.throughput_ops;
    hp_ecall_us_per_req = per_req;
    hp_copy_bytes = sum "tee.copy_bytes";
    hp_retx_suppressed = sum "broker.retx" }

let hotpath ?(batches = [ 1; 50; 200 ]) () =
  List.map (fun batch -> hotpath_point ~batch ~churn:false ()) batches
  @ [ hotpath_point ~batch:200 ~churn:true ();
      (* detectors-on twin of the saturated batch200 point: the CI gate
         holds its throughput within 3% of the plain one *)
      hotpath_point ~detect:true ~batch:200 ~churn:false () ]

let print_hotpath points =
  Table.print
    ~title:
      "Hotpath sweep (SplitBFT KVS, 40x40 clients; churn = primary crash + view \
       change + recovery; detect = flight recorder + anomaly detector)"
    ~header:
      [ "point"; "throughput"; "ecall us/req"; "copy MB"; "retx early-rejects" ]
    ~rows:
      (List.map
         (fun p ->
           [ p.hp_label;
             Table.ops p.hp_tput;
             Printf.sprintf "%.1f" p.hp_ecall_us_per_req;
             Printf.sprintf "%.1f" (p.hp_copy_bytes /. 1e6);
             Printf.sprintf "%.0f" p.hp_retx_suppressed ])
         points)

(* ----- lanes ablation: consensus lanes x execution workers x batch ----- *)

type lanes_point = {
  lp_label : string;
  lp_lanes : int;
  lp_workers : int;
  lp_batch : int;
  lp_tput : float;
  lp_ecall_us_per_req : float;  (* leader, summed over compartments *)
  lp_pool_tasks : float;
  lp_pool_conflict_waits : float;
  lp_lane_ecalls : float;
}

let lanes_point ~lanes ~workers ~batch =
  let executed_at_warmup = ref 0 in
  let at_warmup cluster =
    match leader_split cluster with
    | Some r ->
      S.reset_ecall_stats r;
      executed_at_warmup := S.executed_count r
    | None -> ()
  in
  let params =
    { (Cluster.default_params (Proto_splitbft.make ~lanes ~exec_workers:workers ())) with
      Cluster.batch_size = batch;
      batch_timeout_us = 10_000.0;
      seed = 73L }
  in
  (* More offered load than the hotpath arms: the point of lanes/workers is
     to raise the saturation ceiling, so the clients must not be the
     bottleneck (120 x 40 = 4800 outstanding requests). *)
  let cluster, r =
    measure ~at_warmup params ~clients:120 ~window:40 ~warmup_us:200_000.0
      ~duration_us:400_000.0
  in
  let per_req =
    match leader_split cluster with
    | Some replica ->
      let executed = max 1 (S.executed_count replica - !executed_at_warmup) in
      List.fold_left
        (fun acc c ->
          let _, total, _ = S.ecall_stats replica c in
          acc +. (total /. float_of_int executed))
        0.0 Ids.all_compartments
    | None -> nan
  in
  let obs = Cluster.obs cluster in
  let sum prefix = Splitbft_obs.Registry.sum obs ~prefix in
  { lp_label = Printf.sprintf "l%dw%db%d" lanes workers batch;
    lp_lanes = lanes;
    lp_workers = workers;
    lp_batch = batch;
    lp_tput = r.Workload.throughput_ops;
    lp_ecall_us_per_req = per_req;
    lp_pool_tasks = sum "tee.pool_tasks";
    lp_pool_conflict_waits = sum "tee.pool_conflict_waits";
    lp_lane_ecalls = sum "broker.lane_ecalls" }

let lanes_grid =
  [ (1, 1, 200);
    (4, 1, 200);
    (1, 4, 200);
    (2, 2, 200);
    (4, 4, 200);
    (8, 4, 200);
    (4, 4, 50) ]

let lanes ?(grid = lanes_grid) () =
  List.map (fun (lanes, workers, batch) -> lanes_point ~lanes ~workers ~batch) grid

let print_lanes points =
  Table.print
    ~title:
      "Lanes ablation — consensus lanes x execution workers x batch (SplitBFT KVS, \
       120x40 clients)"
    ~header:
      [ "point"; "throughput"; "ecall us/req"; "pool tasks"; "conflict waits";
        "lane ecalls" ]
    ~rows:
      (List.map
         (fun p ->
           [ p.lp_label;
             Table.ops p.lp_tput;
             Printf.sprintf "%.1f" p.lp_ecall_us_per_req;
             Printf.sprintf "%.0f" p.lp_pool_tasks;
             Printf.sprintf "%.0f" p.lp_pool_conflict_waits;
             Printf.sprintf "%.0f" p.lp_lane_ecalls ])
         points)

(* ----- §6 threading ceilings ----- *)

type ceilings_result = {
  single_thread_tput : float;
  multi_thread_tput : float;
  predicted_single : float;
  predicted_multi : float;
  sum_ecall_us : float;
  exec_ecall_us : float;
}

let ceilings ?(duration_us = 800_000.0) () =
  let clients = 40 in
  let executed_at_warmup = ref 0 in
  let at_warmup cluster =
    match leader_split cluster with
    | Some r ->
      S.reset_ecall_stats r;
      executed_at_warmup := S.executed_count r
    | None -> ()
  in
  let multi_cluster, multi =
    measure ~at_warmup
      (splitbft_params ~batched:false ~app:Cluster.App_kvs ~seed:51L ())
      ~clients ~window:1 ~warmup_us:300_000.0 ~duration_us
  in
  let sum_ecall, exec_ecall =
    match leader_split multi_cluster with
    | Some r ->
      let executed = max 1 (S.executed_count r - !executed_at_warmup) in
      let per_req c =
        let _, total, _ = S.ecall_stats r c in
        total /. float_of_int executed
      in
      ( List.fold_left (fun acc c -> acc +. per_req c) 0.0 Ids.all_compartments,
        per_req Ids.Execution )
    | None -> (nan, nan)
  in
  let _, single =
    measure
      (splitbft_params
         ~proto:(Proto_splitbft.make ~threading:Splitbft_core.Config.Single_thread ())
         ~batched:false ~app:Cluster.App_kvs ~seed:51L ())
      ~clients ~window:1 ~warmup_us:300_000.0 ~duration_us
  in
  { single_thread_tput = single.Workload.throughput_ops;
    multi_thread_tput = multi.Workload.throughput_ops;
    predicted_single = 1e6 /. sum_ecall;
    predicted_multi = 1e6 /. exec_ecall;
    sum_ecall_us = sum_ecall;
    exec_ecall_us = exec_ecall }

let print_ceilings r =
  Table.print
    ~title:"§6 — ecall threading ceilings (unbatched KVS, 40 clients)"
    ~header:[ "configuration"; "measured"; "predicted ceiling" ]
    ~rows:
      [ [ "single ecall thread";
          Table.ops r.single_thread_tput;
          Printf.sprintf "%s (1e6 / %.0fus)" (Table.ops r.predicted_single) r.sum_ecall_us ];
        [ "thread per enclave";
          Table.ops r.multi_thread_tput;
          Printf.sprintf "%s (1e6 / %.0fus)" (Table.ops r.predicted_multi) r.exec_ecall_us ] ]

(* ----- machine-readable artifacts (BENCH_*.json) ----- *)

let num x = if Float.is_finite x then Json.Float x else Json.Null

let json_of_fig3 series =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [ ("series", Json.Str s.series_label);
             ("points",
              Json.List
                (List.map
                   (fun p ->
                     Json.Obj
                       [ ("clients", Json.Int p.clients);
                         ("throughput_ops", num p.throughput);
                         ("latency_us", num p.latency_us) ])
                   s.points)) ])
       series)

let json_of_fig4 rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("compartment", Json.Str r.compartment);
             ("ecalls", Json.Int r.ecalls);
             ("mean_ecall_us", num r.mean_ecall_us);
             ("us_per_request", num r.us_per_request) ])
       rows)

let json_of_table2 rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("component", Json.Str r.component);
             ("shared_loc", Json.Int r.shared_loc);
             ("logic_loc", Json.Int r.logic_loc);
             ("total_loc", Json.Int r.total_loc) ])
       rows)

let json_of_simmode r =
  Json.Obj
    [ ("hardware_tput", num r.hardware_tput);
      ("simulation_tput", num r.simulation_tput);
      ("baseline_tput", num r.baseline_tput);
      ("transition_share_of_overhead", num r.transition_share_of_overhead) ]

let json_of_batch_ablation points =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [ ("batch", Json.Int p.ab_batch);
             ("throughput_ops", num p.ab_tput);
             ("ecall_us_per_request", num p.ab_ecall_us_per_req) ])
       points)

let json_of_hotpath points =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [ ("label", Json.Str p.hp_label);
             ("batch", Json.Int p.hp_batch);
             ("churn", Json.Bool p.hp_churn);
             ("throughput_ops", num p.hp_tput);
             ("ecall_us_per_request", num p.hp_ecall_us_per_req);
             ("copy_bytes", num p.hp_copy_bytes);
             ("retx_early_rejects", num p.hp_retx_suppressed) ])
       points)

let json_of_lanes points =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [ ("label", Json.Str p.lp_label);
             ("lanes", Json.Int p.lp_lanes);
             ("workers", Json.Int p.lp_workers);
             ("batch", Json.Int p.lp_batch);
             ("throughput_ops", num p.lp_tput);
             ("ecall_us_per_request", num p.lp_ecall_us_per_req);
             ("pool_tasks", num p.lp_pool_tasks);
             ("pool_conflict_waits", num p.lp_pool_conflict_waits);
             ("lane_ecalls", num p.lp_lane_ecalls) ])
       points)

let json_of_ceilings r =
  Json.Obj
    [ ("single_thread_tput", num r.single_thread_tput);
      ("multi_thread_tput", num r.multi_thread_tput);
      ("predicted_single", num r.predicted_single);
      ("predicted_multi", num r.predicted_multi);
      ("sum_ecall_us", num r.sum_ecall_us);
      ("exec_ecall_us", num r.exec_ecall_us) ]

(* ----- open-loop latency vs offered load ----- *)

type openloop_point = {
  ol_label : string;
  ol_arrival : string;
  ol_rate : float;
  ol_offered : float;
  ol_achieved : float;
  ol_mean_us : float;
  ol_p50_us : float;
  ol_p95_us : float;
  ol_p99_us : float;
  ol_backlog : int;
  ol_conflict_waits : float;
}

type openloop_result = {
  ol_points : openloop_point list;
  ol_knee_zipf_ops : float;
  ol_knee_uniform_ops : float;
  ol_half_label : string;
  ol_half_p99_us : float;
}

let openloop_spec =
  { Workload.Open_loop.default_spec with
    warmup_us = 150_000.0;
    duration_us = 300_000.0;
    connections = 64;
    window = 64;
    identities = 1_000_000;
    identity_cache = 4096;
    zipf_s = 0.99;
    keyspace = 65_536;
    read_ratio = 0.9 }

let openloop_proto () = Proto_splitbft.make ~lanes:4 ~exec_workers:4 ()

let openloop_point ?(proto = openloop_proto ()) ~spec ~label ~arrival ~rate () =
  let params =
    { (Cluster.default_params proto) with
      Cluster.batch_size = 200;
      batch_timeout_us = 10_000.0;
      seed = 79L }
  in
  let cluster = Cluster.create params in
  let spec = { spec with Workload.Open_loop.arrival; rate_ops = rate } in
  let r = Workload.Open_loop.run cluster spec in
  let arrival_name =
    match arrival with
    | Workload.Open_loop.Poisson -> "poisson"
    | Workload.Open_loop.Bursty _ -> "bursty"
  in
  { ol_label = label;
    ol_arrival = arrival_name;
    ol_rate = rate;
    ol_offered = r.Workload.Open_loop.offered_ops;
    ol_achieved = r.Workload.Open_loop.achieved_ops;
    ol_mean_us = r.Workload.Open_loop.ol_mean_latency_us;
    ol_p50_us = r.Workload.Open_loop.ol_p50_latency_us;
    ol_p95_us = r.Workload.Open_loop.ol_p95_latency_us;
    ol_p99_us = r.Workload.Open_loop.ol_p99_latency_us;
    ol_backlog = r.Workload.Open_loop.backlog_peak;
    ol_conflict_waits = Splitbft_obs.Registry.sum (Cluster.obs cluster) ~prefix:"tee.pool_conflict_waits" }

let openloop_rates = [ 150e3; 300e3; 450e3; 600e3; 700e3 ]

(* The Zipf-0.99 arm saturates well below the closed-loop pipeline
   ceiling: with 10% writes, the hot key appears as a write in most
   200-request batches, and one hot write conflict-serializes the
   Execution worker pool (the plateau sits near the l4w1 lanes point).
   The uniform-key arm removes that workload property so its knee
   measures the pipeline capacity itself, comparable to the closed-loop
   l4w4 ceiling; both knees are gated in CI. *)
let openloop_uniform_rates = [ 300e3; 450e3; 600e3; 700e3 ]

let openloop_bursty =
  Workload.Open_loop.Bursty { peak_factor = 4.0; period_us = 50_000.0; duty = 0.2 }

(* First offered load at which the achieved rate falls below 95% of
   offered, linearly interpolated between the straddling sweep points; the
   max swept load when the system keeps up everywhere. *)
let openloop_knee points =
  let deficit p = p.ol_achieved -. (0.95 *. p.ol_offered) in
  let rec go prev = function
    | [] -> (match prev with Some q -> q.ol_offered | None -> nan)
    | p :: rest ->
      if deficit p < 0.0 then
        (match prev with
        | None -> p.ol_offered
        | Some q ->
          let f1 = deficit q and f2 = deficit p in
          if f1 <= f2 then p.ol_offered
          else q.ol_offered +. ((p.ol_offered -. q.ol_offered) *. (f1 /. (f1 -. f2))))
      else go (Some p) rest
  in
  go None points

let openloop ?(rates = openloop_rates) ?(uniform_rates = openloop_uniform_rates)
    ?(bursty_rates = [ 300e3 ]) ?(spec = openloop_spec) ?proto () =
  let rates = List.sort compare rates in
  let uniform_rates = List.sort compare uniform_rates in
  let label kind rate = Printf.sprintf "%s-%.0fk" kind (rate /. 1e3) in
  let point = openloop_point ?proto ~spec in
  let poisson =
    List.map
      (fun rate ->
        point ~label:(label "poisson" rate) ~arrival:Workload.Open_loop.Poisson ~rate ())
      rates
  in
  let uniform_point =
    openloop_point ?proto ~spec:{ spec with Workload.Open_loop.zipf_s = 0.0 }
  in
  let uniform =
    List.map
      (fun rate ->
        uniform_point ~label:(label "uniform" rate) ~arrival:Workload.Open_loop.Poisson
          ~rate ())
      uniform_rates
  in
  let bursty =
    List.map
      (fun rate -> point ~label:(label "bursty" rate) ~arrival:openloop_bursty ~rate ())
      bursty_rates
  in
  let knee = openloop_knee poisson in
  let knee_uniform = openloop_knee uniform in
  (* p99 at ~50% of the sweep's top load: a fixed grid point, so the CI
     gate compares like against like across runs. *)
  let half_target = 0.5 *. List.fold_left Float.max 0.0 rates in
  let half =
    List.fold_left
      (fun best p ->
        match best with
        | None -> Some p
        | Some b ->
          if Float.abs (p.ol_rate -. half_target) < Float.abs (b.ol_rate -. half_target)
          then Some p
          else Some b)
      None poisson
  in
  let points = poisson @ uniform @ bursty in
  match half with
  | None ->
    { ol_points = points;
      ol_knee_zipf_ops = knee;
      ol_knee_uniform_ops = knee_uniform;
      ol_half_label = "";
      ol_half_p99_us = nan }
  | Some h ->
    { ol_points = points;
      ol_knee_zipf_ops = knee;
      ol_knee_uniform_ops = knee_uniform;
      ol_half_label = h.ol_label;
      ol_half_p99_us = h.ol_p99_us }

let print_openloop r =
  Table.print
    ~title:
      "Open-loop sweep — latency vs offered load (SplitBFT l4w4 b200, 64 conns x \
       window 64, 1M identities; zipf/bursty arms at Zipf 0.99, uniform arm at s=0)"
    ~header:
      [ "point"; "offered"; "achieved"; "p50 us"; "p95 us"; "p99 us"; "backlog";
        "conflict waits" ]
    ~rows:
      (List.map
         (fun p ->
           [ p.ol_label;
             Table.ops p.ol_offered;
             Table.ops p.ol_achieved;
             Printf.sprintf "%.0f" p.ol_p50_us;
             Printf.sprintf "%.0f" p.ol_p95_us;
             Printf.sprintf "%.0f" p.ol_p99_us;
             string_of_int p.ol_backlog;
             Printf.sprintf "%.0f" p.ol_conflict_waits ])
         r.ol_points);
  Printf.printf "  saturation knee, zipf 0.99: %s ops/s (achieved < 95%% of offered)\n"
    (Table.ops r.ol_knee_zipf_ops);
  Printf.printf "  saturation knee, uniform keys: %s ops/s\n"
    (Table.ops r.ol_knee_uniform_ops);
  Printf.printf "  p99 at half load (%s): %.0f us\n%!" r.ol_half_label r.ol_half_p99_us

let json_of_openloop r =
  let point p =
    Json.Obj
      [ ("label", Json.Str p.ol_label);
        ("arrival", Json.Str p.ol_arrival);
        ("rate_ops", num p.ol_rate);
        ("offered_ops", num p.ol_offered);
        ("throughput_ops", num p.ol_achieved);
        ("mean_latency_us", num p.ol_mean_us);
        ("p50_latency_us", num p.ol_p50_us);
        ("p95_latency_us", num p.ol_p95_us);
        ("p99_latency_us", num p.ol_p99_us);
        ("backlog_peak", Json.Int p.ol_backlog);
        ("pool_conflict_waits", num p.ol_conflict_waits) ]
  in
  Json.List
    (List.map point r.ol_points
    @ [ Json.Obj
          [ ("label", Json.Str "knee-zipf"); ("throughput_ops", num r.ol_knee_zipf_ops) ];
        Json.Obj
          [ ("label", Json.Str "knee-uniform");
            ("throughput_ops", num r.ol_knee_uniform_ops) ];
        Json.Obj
          [ ("label", Json.Str "p99-at-half-load");
            ("at", Json.Str r.ol_half_label);
            ("p99_latency_us", num r.ol_half_p99_us) ] ])

(* ----- storage — follower read scaling ----- *)

type storage_point = {
  st_label : string;
  st_followers : int;
  st_read_ops : float;
  st_write_ops : float;
  st_stale : int;
  st_refused : int;
  st_wrong : int;
  st_rd_mean_us : float;
  st_rd_p99_us : float;
}

type storage_result = {
  st_points : storage_point list;
  st_scale_f4 : float;
}

let storage_spec =
  (* 192 drivers offer well past a single follower's ~10k reads/s
     service capacity (100 µs/read) even though each driver spends most
     of its cycle in the 95/5 mix's quorum-path writes, so the sweep
     shows per-follower capacity scaling through f4 (the write path
     saturates near 2.3k writes/s, which in a closed 95/5 loop caps
     reads around 43k/s — still above 4 followers' 40k capacity). *)
  { Workload.Reads.default_spec with
    Workload.Reads.clients = 192;
    warmup_us = 200_000.0;
    duration_us = 600_000.0 }

let storage_proto () = Proto_splitbft.make ~segment_entries:64 ()

let storage_point ?(proto = storage_proto ()) ~spec ~followers () =
  let params =
    { (Cluster.default_params proto) with
      Cluster.checkpoint_interval = 64;
      seed = 83L;
      followers }
  in
  let cluster = Cluster.create params in
  let r = Workload.Reads.run cluster spec in
  { st_label = Printf.sprintf "reads-f%d" followers;
    st_followers = followers;
    st_read_ops = r.Workload.Reads.read_ops;
    st_write_ops = r.Workload.Reads.write_ops;
    st_stale = r.Workload.Reads.stale_reads;
    st_refused = r.Workload.Reads.refused_reads;
    st_wrong = r.Workload.Reads.wrong_reads;
    st_rd_mean_us = r.Workload.Reads.rd_mean_latency_us;
    st_rd_p99_us = r.Workload.Reads.rd_p99_latency_us }

let storage ?(follower_counts = [ 0; 1; 2; 4 ]) ?(spec = storage_spec) ?proto () =
  let points =
    List.map (fun followers -> storage_point ?proto ~spec ~followers ()) follower_counts
  in
  let read_ops_of n =
    match List.find_opt (fun p -> p.st_followers = n) points with
    | Some p -> p.st_read_ops
    | None -> nan
  in
  let scale =
    let f0 = read_ops_of 0 and f4 = read_ops_of 4 in
    if Float.is_finite f0 && f0 > 0.0 then f4 /. f0 else nan
  in
  { st_points = points; st_scale_f4 = scale }

let print_storage r =
  Table.print
    ~title:
      "Storage — follower read scaling (SplitBFT + Proteus ledger, 95/5 Zipf 0.99 \
       mix; reads off the critical path via f+1-vouched followers)"
    ~header:
      [ "point"; "followers"; "reads/s"; "writes/s"; "rd mean us"; "rd p99 us";
        "stale"; "refused"; "wrong" ]
    ~rows:
      (List.map
         (fun p ->
           [ p.st_label;
             string_of_int p.st_followers;
             Table.ops p.st_read_ops;
             Table.ops p.st_write_ops;
             Printf.sprintf "%.0f" p.st_rd_mean_us;
             Printf.sprintf "%.0f" p.st_rd_p99_us;
             string_of_int p.st_stale;
             string_of_int p.st_refused;
             string_of_int p.st_wrong ])
         r.st_points);
  Printf.printf "  read scaling, 4 followers vs consensus-only baseline: %.2fx\n%!"
    r.st_scale_f4

let json_of_storage r =
  let point p =
    Json.Obj
      [ ("label", Json.Str p.st_label);
        ("followers", Json.Int p.st_followers);
        ("throughput_ops", num p.st_read_ops);
        ("write_ops", num p.st_write_ops);
        ("mean_latency_us", num p.st_rd_mean_us);
        ("p99_latency_us", num p.st_rd_p99_us);
        ("stale_reads", Json.Int p.st_stale);
        ("refused_reads", Json.Int p.st_refused);
        ("wrong_reads", Json.Int p.st_wrong) ]
  in
  Json.List
    (List.map point r.st_points
    @ [ Json.Obj
          [ ("label", Json.Str "read-scale-f4-vs-f0");
            ("throughput_ops", num r.st_scale_f4) ] ])
