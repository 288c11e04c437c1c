module Ids = Splitbft_types.Ids
module Cost_model = Splitbft_tee.Cost_model
module S = Splitbft_core.Replica
module Stats = Splitbft_util.Stats
module Lines = Splitbft_util.Lines
module Json = Splitbft_obs.Json
module Registry = Splitbft_obs.Registry
module Proto_pbft = Splitbft_proto.Proto_pbft
module Proto_splitbft = Splitbft_proto.Proto_splitbft
module Open_loop = Workload.Open_loop
module Reads = Workload.Reads

(* ----- tables: each column declared once, rendered as text and as JSON ----- *)

(* A column prints under [header] and serialises under [key]; a column
   with only one of the two appears only in that rendering. *)
type 'r column = {
  header : string option;
  key : string option;
  text : 'r -> string;
  json : 'r -> Json.t;
}

type table =
  | Table : {
      title : string;
      columns : 'r column list;
      rows : 'r list;
      footer : string list;  (* printed under the table *)
      summary : Json.t list;  (* JSON rows after the table's own *)
    }
      -> table

let table ?(footer = []) ?(summary = []) title columns rows =
  Table { title; columns; rows; footer; summary }

let num x = if Float.is_finite x then Json.Float x else Json.Null

let column ?header ?key fmt enc get =
  { header; key; text = (fun r -> fmt (get r)); json = (fun r -> enc (get r)) }

let str ?header ?key get = column ?header ?key Fun.id (fun s -> Json.Str s) get
let int ?header ?key get = column ?header ?key string_of_int (fun n -> Json.Int n) get
let real ?header ?key fmt get = column ?header ?key fmt num get
let text header text = { header = Some header; key = None; text; json = (fun _ -> Json.Null) }
let json key json = { header = None; key = Some key; text = (fun _ -> ""); json }
let label get = str ~key:"label" get
let point get = str ~header:"point" ~key:"label" get
let dp1 = Printf.sprintf "%.1f"
let dp0 = Printf.sprintf "%.0f"

let print_table (Table t) =
  let shown = List.filter (fun c -> c.header <> None) t.columns in
  Table.print ~title:t.title
    ~header:(List.filter_map (fun c -> c.header) shown)
    ~rows:(List.map (fun r -> List.map (fun c -> c.text r) shown) t.rows);
  List.iter print_endline t.footer

let json_rows (Table t) =
  List.map
    (fun r ->
      Json.Obj (List.filter_map (fun c -> Option.map (fun k -> (k, c.json r)) c.key) t.columns))
    t.rows
  @ t.summary

(* ----- shared runners ----- *)

let params ?(proto = Proto_splitbft.protocol) ?(app = Cluster.App_kvs) ~batch ~seed () =
  { (Cluster.default_params proto) with Cluster.app; batch_size = batch; seed }

type run = {
  result : Workload.result;
  obs : Registry.t;
  leader : (S.t * int) option;
      (* the view-0 SplitBFT replica and the requests it executed after
         warm-up, whose ecall statistics restart there; [None] under any
         other protocol *)
}

let measure ?flight ?(prepare = ignore) ?(at_warmup = ignore) params ~clients ~window
    ~warmup_us ~duration_us =
  let cluster = Cluster.create ?flight params in
  prepare cluster;
  let leader = Proto_splitbft.replica_of (Cluster.node cluster 0) in
  let base = ref 0 in
  let at_warmup () =
    Option.iter
      (fun r ->
        S.reset_ecall_stats r;
        base := S.executed_count r)
      leader;
    at_warmup cluster
  in
  let spec =
    { Workload.default_spec with Workload.clients; window; warmup_us; duration_us }
  in
  let result = Workload.run ~at_warmup cluster spec in
  { result;
    obs = Cluster.obs cluster;
    leader = Option.map (fun r -> (r, max 1 (S.executed_count r - !base))) leader }

(* The leader's ecall time per request executed after warm-up, summed over
   [compartments]. *)
let ecall_us ?(compartments = Ids.all_compartments) run =
  match run.leader with
  | Some (r, executed) ->
    List.fold_left
      (fun acc c ->
        let _, total, _ = S.ecall_stats r c in
        acc +. (total /. float_of_int executed))
      0.0 compartments
  | None -> nan

(* ----- Table 1 ----- *)

type scenario_row = {
  scenario : Scenarios.scenario;
  verdict : Safety.verdict;
  ops : int;
  check_failure : string option;
  matches : bool;
}

(* Each row is built as its scenario finishes, so one cluster is alive at
   a time. *)
let scenario_row s =
  let o = Scenarios.run ~seed:42L s in
  { scenario = s;
    verdict = o.Scenarios.verdict;
    ops = o.Scenarios.workload.Workload.completed_total;
    check_failure = o.Scenarios.check_failure;
    matches = Scenarios.matches_expectation o }

let table1 ~full:_ =
  let rows = List.map scenario_row Scenarios.all in
  let properties =
    [ ("live", (fun e -> e.Scenarios.exp_live), fun v -> v.Safety.live);
      ("safe", (fun e -> e.Scenarios.exp_safe), fun v -> v.Safety.safe);
      ("confidential", (fun e -> e.Scenarios.exp_confidential), fun v -> v.Safety.confidential) ]
  in
  let expected r (_, e, _) = e r.scenario.Scenarios.expected
  and observed r (_, _, o) = o r.verdict in
  let triple side r =
    Json.Obj (List.map (fun ((name, _, _) as p) -> (name, Json.Bool (side r p))) properties)
  in
  let mismatches = List.length (List.filter (fun r -> not r.matches) rows) in
  [ table "Table 1 — fault-model comparison (expected/observed)"
      ~footer:
        (if mismatches = 0 then []
         else
           [ Printf.sprintf "!! %d scenario(s) deviate from the paper's fault model" mismatches ])
      ((str ~header:"scenario" ~key:"scenario" (fun r -> r.scenario.Scenarios.id)
       :: List.map
            (fun ((name, _, _) as p) ->
              text name (fun r ->
                  Printf.sprintf "%s/%s"
                    (Table.yes_no (expected r p))
                    (Table.yes_no (observed r p))))
            properties)
      @ [ json "expected" (triple expected);
          json "observed" (triple observed);
          int ~header:"ops" ~key:"ops" (fun r -> r.ops);
          text "check" (fun r -> if r.matches then "ok" else "MISMATCH");
          json "check" (fun r -> Json.Str (Option.value r.check_failure ~default:"ok"));
          json "matches" (fun r -> Json.Bool r.matches) ])
      rows ]

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
  (* Preparation's assignments and Execution's execute-once records. *)
  let client_table = file "lib/consensus/client_table.ml" in
  let prep =
    code_loc
      [ file "lib/core/preparation.ml"; file "lib/consensus/newview.ml"; view_change; client_table ]
  in
  let conf = code_loc [ file "lib/core/confirmation.ml"; view_change ] in
  let app_loc = code_loc (ml_files_under root [ "lib/app" ]) in
  (* State transfer (the f+1 rule, serving, the snapshot certificate), the
     ledger and the sealed checkpoint chain's records run only in
     Execution. *)
  let exec =
    code_loc
      [ file "lib/core/execution.ml"; file "lib/consensus/catchup.ml"; view_change; client_table;
        file "lib/storage/entry.ml"; file "lib/storage/ledger.ml" ]
    + app_loc
  in
  let untrusted =
    code_loc
      ([ file "lib/core/broker.ml"; file "lib/core/replica.ml" ]
      @ ml_files_under root [ "lib/sim" ])
  in
  let counter = code_loc [ file "lib/minbft/usig.ml" ] in
  let enclave component logic =
    { component; shared_loc = shared; logic_loc = logic; total_loc = shared + logic }
  in
  let outside component logic =
    { component; shared_loc = 0; logic_loc = logic; total_loc = logic }
  in
  [ enclave "Preparation Enc." prep;
    enclave "Confirmation Enc." conf;
    enclave "Execution Enc." exec;
    outside "Untrusted Env." untrusted;
    outside "Trusted Counter" counter ]

let table2_artifact ~full:_ =
  [ table "Table 2 — TCB sizes (code lines of this implementation)"
      [ str ~header:"component" ~key:"component" (fun r -> r.component);
        column ~header:"shared" ~key:"shared_loc"
          (fun n -> if n = 0 then "-" else string_of_int n)
          (fun n -> Json.Int n)
          (fun r -> r.shared_loc);
        int ~header:"logic" ~key:"logic_loc" (fun r -> r.logic_loc);
        int ~header:"total" ~key:"total_loc" (fun r -> r.total_loc) ]
      (table2 ()) ]

(* ----- Figure 3 — throughput and latency ----- *)

type fig3_row = { app : string; clients : int; split : Workload.result; pbft : Workload.result }

(* A numeric series cell: whole numbers from 1000 up, two decimals below. *)
let series v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let fig3 ~batched ~full =
  let clients_list =
    (* Batched points simulate far more operations per second; keep the
       default sweep affordable. *)
    if full then [ 1; 5; 10; 20; 40; 80; 120; 150 ]
    else if batched then [ 1; 10; 40; 150 ]
    else [ 1; 10; 40; 100; 150 ]
  in
  let duration_us = if batched then 500_000.0 else 1_000_000.0 in
  let window = if batched then 40 else 1 in
  let batch = if batched then 200 else 1 in
  let sweep proto app seed =
    List.map
      (fun clients ->
        (measure (params ~proto ~app ~batch ~seed ()) ~clients ~window
           ~warmup_us:(duration_us /. 3.0) ~duration_us)
          .result)
      clients_list
  in
  let series_columns name get =
    [ real ~header:(name ^ " ops/s") ~key:(name ^ "_throughput_ops") series (fun r ->
          (get r).Workload.throughput_ops);
      real ~header:(name ^ " lat(us)") ~key:(name ^ "_latency_us") series (fun r ->
          (get r).Workload.mean_latency_us) ]
  in
  List.map
    (fun (app, key, app_name) ->
      let split = sweep Proto_splitbft.protocol app 21L in
      let pbft = sweep Proto_pbft.protocol app 22L in
      table
        (Printf.sprintf "Figure 3%s — %s, %s" (if batched then "b" else "a") app_name
           (if batched then "batched (200, 10ms)" else "unbatched"))
        ([ label (fun r -> Printf.sprintf "%s-c%d" r.app r.clients);
           column ~header:"clients" ~key:"clients"
             (fun c -> series (float_of_int c))
             (fun c -> Json.Int c)
             (fun r -> r.clients) ]
        @ series_columns "splitbft" (fun r -> r.split)
        @ series_columns "pbft" (fun r -> r.pbft))
        (List.map2
           (fun clients (split, pbft) -> { app = key; clients; split; pbft })
           clients_list (List.combine split pbft)))
    [ (Cluster.App_kvs, "kvs", "key-value store"); (Cluster.App_ledger, "ledger", "blockchain") ]

(* ----- Figure 4 — leader ecall time per compartment ----- *)

type fig4_row = {
  f4_label : string;
  compartment : string;
  stats : (int * float) option;  (* ecalls and their mean duration; [None] on the total *)
  us_per_request : float;
}

let fig4 ~full:_ =
  let run batched =
    measure
      (params ~batch:(if batched then 200 else 1) ~seed:31L ())
      ~clients:40 ~window:(if batched then 40 else 1) ~warmup_us:300_000.0
      ~duration_us:(if batched then 500_000.0 else 800_000.0)
  in
  let mode batched = if batched then "batched" else "unbatched" in
  let rows batched m =
    let row compartment stats us_per_request =
      { f4_label = mode batched ^ "-" ^ compartment; compartment; stats; us_per_request }
    in
    match m.leader with
    | None -> []
    | Some (r, _) ->
      List.map
        (fun c ->
          let count, _, durations = S.ecall_stats r c in
          row (Ids.compartment_name c)
            (Some (count, Stats.mean durations))
            (ecall_us ~compartments:[ c ] m))
        Ids.all_compartments
      @ [ row "TOTAL" None (ecall_us m) ]
  in
  List.map
    (fun batched ->
      table
        (Printf.sprintf "Figure 4 — leader ecall time per compartment (%s, 40 clients, KVS)"
           (mode batched))
        [ label (fun r -> r.f4_label);
          str ~header:"compartment" ~key:"compartment" (fun r -> r.compartment);
          column ~header:"ecalls" ~key:"ecalls"
            (function Some (n, _) -> string_of_int n | None -> "")
            (function Some (n, _) -> Json.Int n | None -> Json.Null)
            (fun r -> r.stats);
          column ~header:"mean ecall" ~key:"mean_ecall_us"
            (function Some (_, mean) -> Table.us mean | None -> "")
            (function Some (_, mean) -> num mean | None -> Json.Null)
            (fun r -> r.stats);
          real ~header:"us/request" ~key:"ecall_us_per_request" dp1 (fun r -> r.us_per_request) ]
        (rows batched (run batched)))
    [ false; true ]

(* ----- §6 overhead decomposition and threading ceilings ----- *)

(* Unbatched KVS, 40 synchronous clients. *)
let unbatched ?proto ?(cost = Cost_model.default) ~seed () =
  measure
    { (params ?proto ~batch:1 ~seed ()) with Cluster.cost }
    ~clients:40 ~window:1 ~warmup_us:300_000.0 ~duration_us:800_000.0

let tput m = m.result.Workload.throughput_ops

type config_row = {
  c_label : string;
  configuration : string;
  tput : float;
  share : float;  (* the overhead share, on the row that is not a throughput *)
  ecall : float;  (* the ecall time per request a ceiling is predicted from *)
}

let config_row ?(share = nan) ?(ecall = nan) c_label configuration tput =
  { c_label; configuration; tput; share; ecall }

let config_columns =
  [ label (fun r -> r.c_label);
    str ~header:"configuration" ~key:"configuration" (fun r -> r.configuration) ]

let simmode ~full:_ =
  let hw = tput (unbatched ~seed:41L ()) in
  let sim = tput (unbatched ~cost:(Cost_model.simulation_mode Cost_model.default) ~seed:41L ()) in
  let pbft = tput (unbatched ~proto:Proto_pbft.protocol ~seed:42L ()) in
  (* Overhead accounting in per-request service time, as in §6. *)
  let t_hw = 1e6 /. hw and t_sim = 1e6 /. sim and t_pbft = 1e6 /. pbft in
  let share = (t_hw -. t_sim) /. Float.max 1e-9 (t_hw -. t_pbft) in
  [ table "§6 — overhead decomposition via SGX simulation mode (unbatched KVS)"
      (config_columns
      @ [ text "throughput" (fun r ->
              if Float.is_nan r.share then Table.ops r.tput else Table.pct r.share);
          json "throughput_ops" (fun r -> num r.tput);
          json "transition_share" (fun r -> num r.share) ])
      [ config_row "hardware" "SplitBFT (hardware mode)" hw;
        config_row "simulation" "SplitBFT (simulation mode)" sim;
        config_row "pbft" "PBFT baseline" pbft;
        config_row ~share "transition-share" "transition share of overhead" nan ] ]

let ceilings ~full:_ =
  let multi_tput, sum_ecall, exec_ecall =
    let m = unbatched ~seed:51L () in
    (tput m, ecall_us m, ecall_us ~compartments:[ Ids.Execution ] m)
  in
  let single_tput =
    tput
      (unbatched ~proto:(Proto_splitbft.make ~threading:Splitbft_core.Config.Single_thread ())
         ~seed:51L ())
  in
  [ table "§6 — ecall threading ceilings (unbatched KVS, 40 clients)"
      (config_columns
      @ [ real ~header:"measured" ~key:"throughput_ops" Table.ops (fun r -> r.tput);
          text "predicted ceiling" (fun r ->
              Printf.sprintf "%s (1e6 / %.0fus)" (Table.ops (1e6 /. r.ecall)) r.ecall);
          json "predicted_ops" (fun r -> num (1e6 /. r.ecall));
          json "ecall_us_per_request" (fun r -> num r.ecall) ])
      [ config_row ~ecall:sum_ecall "single-thread" "single ecall thread" single_tput;
        config_row ~ecall:exec_ecall "thread-per-enclave" "thread per enclave" multi_tput ] ]

(* ----- saturated sweeps: batch size, churn, detectors, lanes ----- *)

type sweep_row = {
  s_label : string;
  batch : int;
  churn : bool;
  lanes : int;
  workers : int;
  s_tput : float;
  s_ecall : float;
  sums : (string * float) list;  (* registry counters summed over the cluster *)
}

let sweep_point ?flight ?prepare ?at_warmup ?(churn = false) ?(lanes = 1) ?(workers = 1)
    ~clients ~warmup_us ~duration_us ~seed s_label batch =
  let proto = Proto_splitbft.make ~lanes ~exec_workers:workers () in
  let m =
    measure ?flight ?prepare ?at_warmup (params ~proto ~batch ~seed ()) ~clients ~window:40
      ~warmup_us ~duration_us
  in
  { s_label;
    batch;
    churn;
    lanes;
    workers;
    s_tput = tput m;
    s_ecall = ecall_us m;
    sums =
      List.map
        (fun prefix -> (prefix, Registry.sum m.obs ~prefix))
        [ "tee.copy_bytes"; "broker.retx"; "tee.pool_tasks"; "tee.pool_conflict_waits";
          "broker.lane_ecalls" ] }

let sweep_columns ecall_header =
  [ real ~header:"throughput" ~key:"throughput_ops" Table.ops (fun r -> r.s_tput);
    real ~header:ecall_header ~key:"ecall_us_per_request" dp1 (fun r -> r.s_ecall) ]

let counter ~header ~key fmt prefix = real ~header ~key fmt (fun r -> List.assoc prefix r.sums)

let ablation ~full:_ =
  [ table
      "Ablation — batch size vs enclave-transition amortization (SplitBFT KVS, 40x40 clients)"
      (label (fun r -> r.s_label)
      :: int ~header:"batch" ~key:"batch" (fun r -> r.batch)
      :: sweep_columns "leader ecall us/request")
      (List.map
         (fun batch ->
           sweep_point ~clients:40 ~warmup_us:200_000.0 ~duration_us:400_000.0 ~seed:61L
             (Printf.sprintf "batch%d" batch) batch)
         [ 1; 10; 50; 100; 200; 400 ]) ]

let hotpath_point ?(detect = false) ?(churn = false) batch =
  let at_warmup cluster =
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
  (* The detect arm carries the full observer stack — flight recorder
     plus attached anomaly detector — so the gated throughput delta
     against the plain point is the whole detectors-on bill. *)
  let flight = if detect then Some (Splitbft_obs.Flight.create ~capacity:4096 ()) else None in
  let prepare cluster = if detect then ignore (Detector.attach cluster) in
  (* In churn arms the view-0 leader spends part of the run crashed; its
     ecall time per request is still deterministic, which is all the
     regression gate needs. *)
  sweep_point ?flight ~prepare ~at_warmup ~churn ~clients:40
    ~warmup_us:(if churn then 300_000.0 else 200_000.0)
    ~duration_us:(if churn then 1_600_000.0 else 400_000.0)
    ~seed:71L
    (Printf.sprintf "batch%d%s%s" batch
       (if churn then "-churn" else "")
       (if detect then "-detect" else ""))
    batch

let hotpath ~full:_ =
  [ table
      "Hotpath sweep (SplitBFT KVS, 40x40 clients; churn = primary crash + view change + \
       recovery; detect = flight recorder + anomaly detector)"
      ([ point (fun r -> r.s_label);
         json "batch" (fun r -> Json.Int r.batch);
         json "churn" (fun r -> Json.Bool r.churn) ]
      @ sweep_columns "ecall us/req"
      @ [ counter ~header:"copy MB" ~key:"copy_bytes" (fun b -> dp1 (b /. 1e6)) "tee.copy_bytes";
          counter ~header:"retx early-rejects" ~key:"retx_early_rejects" dp0 "broker.retx" ])
      (List.map hotpath_point [ 1; 50; 200 ]
      @ [ hotpath_point ~churn:true 200;
          (* detectors-on twin of the saturated batch200 point: the CI gate
             holds its throughput within 3% of the plain one *)
          hotpath_point ~detect:true 200 ]) ]

(* More offered load than the hotpath arms: the point of lanes/workers is
   to raise the saturation ceiling, so the clients must not be the
   bottleneck (120 x 40 = 4800 outstanding requests). *)
let lanes ~full:_ =
  [ table
      "Lanes ablation — consensus lanes x execution workers x batch (SplitBFT KVS, 120x40 \
       clients)"
      ([ point (fun r -> r.s_label);
         json "lanes" (fun r -> Json.Int r.lanes);
         json "workers" (fun r -> Json.Int r.workers);
         json "batch" (fun r -> Json.Int r.batch) ]
      @ sweep_columns "ecall us/req"
      @ [ counter ~header:"pool tasks" ~key:"pool_tasks" dp0 "tee.pool_tasks";
          counter ~header:"conflict waits" ~key:"pool_conflict_waits" dp0
            "tee.pool_conflict_waits";
          counter ~header:"lane ecalls" ~key:"lane_ecalls" dp0 "broker.lane_ecalls" ])
      (List.map
         (fun (lanes, workers, batch) ->
           sweep_point ~lanes ~workers ~clients:120 ~warmup_us:200_000.0
             ~duration_us:400_000.0 ~seed:73L
             (Printf.sprintf "l%dw%db%d" lanes workers batch)
             batch)
         [ (1, 1, 200); (4, 1, 200); (1, 4, 200); (2, 2, 200); (4, 4, 200); (8, 4, 200);
           (4, 4, 50) ]) ]

(* ----- open-loop latency vs offered load ----- *)

let openloop_spec =
  { Open_loop.default_spec with
    warmup_us = 150_000.0;
    duration_us = 300_000.0;
    connections = 64;
    window = 64;
    identities = 1_000_000;
    identity_cache = 4096;
    zipf_s = 0.99;
    keyspace = 65_536;
    read_ratio = 0.9 }

type openloop_row = {
  o_label : string;
  arrival : string;
  rate : float;
  o : Open_loop.result;
  conflict_waits : float;
}

let openloop_point ~spec ~kind ~arrival rate =
  let cluster =
    Cluster.create
      (params ~proto:(Proto_splitbft.make ~lanes:4 ~exec_workers:4 ()) ~batch:200 ~seed:79L ())
  in
  let o = Open_loop.run cluster { spec with Open_loop.arrival; rate_ops = rate } in
  { o_label = Printf.sprintf "%s-%.0fk" kind (rate /. 1e3);
    arrival = (match arrival with Open_loop.Poisson -> "poisson" | Bursty _ -> "bursty");
    rate;
    o;
    conflict_waits = Registry.sum (Cluster.obs cluster) ~prefix:"tee.pool_conflict_waits" }

(* First offered load at which the achieved rate falls below 95% of
   offered, linearly interpolated between the straddling sweep points; the
   max swept load when the system keeps up everywhere. *)
let openloop_knee rows =
  let offered r = r.o.Open_loop.offered_ops in
  let deficit r = r.o.Open_loop.achieved_ops -. (0.95 *. offered r) in
  let rec go prev = function
    | [] -> (match prev with Some q -> offered q | None -> nan)
    | p :: rest ->
      if deficit p < 0.0 then
        (match prev with
        | None -> offered p
        | Some q ->
          let f1 = deficit q and f2 = deficit p in
          if f1 <= f2 then offered p
          else offered q +. ((offered p -. offered q) *. (f1 /. (f1 -. f2))))
      else go (Some p) rest
  in
  go None rows

let openloop ~full:_ =
  let rates = [ 150e3; 300e3; 450e3; 600e3; 700e3 ] in
  let poisson =
    List.map (openloop_point ~spec:openloop_spec ~kind:"poisson" ~arrival:Poisson) rates
  in
  (* The Zipf-0.99 arm saturates well below the closed-loop pipeline
     ceiling: with 10% writes, the hot key appears as a write in most
     200-request batches, and one hot write conflict-serializes the
     Execution worker pool (the plateau sits near the l4w1 lanes point).
     The uniform-key arm removes that workload property so its knee
     measures the pipeline capacity itself, comparable to the closed-loop
     l4w4 ceiling; both knees are gated in CI. *)
  let uniform =
    List.map
      (openloop_point ~spec:{ openloop_spec with zipf_s = 0.0 } ~kind:"uniform"
         ~arrival:Poisson)
      [ 300e3; 450e3; 600e3; 700e3 ]
  in
  let bursty =
    openloop_point ~spec:openloop_spec ~kind:"bursty"
      ~arrival:(Bursty { peak_factor = 4.0; period_us = 50_000.0; duty = 0.2 })
      300e3
  in
  let knee = openloop_knee poisson and knee_uniform = openloop_knee uniform in
  (* p99 at ~50% of the sweep's top load: a fixed grid point, so the CI
     gate compares like against like across runs. *)
  let half_target = 0.5 *. List.fold_left Float.max 0.0 rates in
  let half =
    List.fold_left
      (fun best p ->
        if Float.abs (p.rate -. half_target) < Float.abs (best.rate -. half_target) then p
        else best)
      (List.hd poisson) poisson
  in
  let half_p99 = half.o.Open_loop.ol_p99_latency_us in
  [ table
      "Open-loop sweep — latency vs offered load (SplitBFT l4w4 b200, 64 conns x window 64, \
       1M identities; zipf/bursty arms at Zipf 0.99, uniform arm at s=0)"
      ~footer:
        [ Printf.sprintf "  saturation knee, zipf 0.99: %s ops/s (achieved < 95%% of offered)"
            (Table.ops knee);
          Printf.sprintf "  saturation knee, uniform keys: %s ops/s" (Table.ops knee_uniform);
          Printf.sprintf "  p99 at half load (%s): %.0f us" half.o_label half_p99 ]
      ~summary:
        [ Json.Obj [ ("label", Json.Str "knee-zipf"); ("throughput_ops", num knee) ];
          Json.Obj [ ("label", Json.Str "knee-uniform"); ("throughput_ops", num knee_uniform) ];
          Json.Obj
            [ ("label", Json.Str "p99-at-half-load");
              ("at", Json.Str half.o_label);
              ("p99_latency_us", num half_p99) ] ]
      [ point (fun r -> r.o_label);
        json "arrival" (fun r -> Json.Str r.arrival);
        json "rate_ops" (fun r -> num r.rate);
        real ~header:"offered" ~key:"offered_ops" Table.ops (fun r -> r.o.offered_ops);
        real ~header:"achieved" ~key:"throughput_ops" Table.ops (fun r -> r.o.achieved_ops);
        json "mean_latency_us" (fun r -> num r.o.ol_mean_latency_us);
        real ~header:"p50 us" ~key:"p50_latency_us" dp0 (fun r -> r.o.ol_p50_latency_us);
        real ~header:"p95 us" ~key:"p95_latency_us" dp0 (fun r -> r.o.ol_p95_latency_us);
        real ~header:"p99 us" ~key:"p99_latency_us" dp0 (fun r -> r.o.ol_p99_latency_us);
        int ~header:"backlog" ~key:"backlog_peak" (fun r -> r.o.backlog_peak);
        real ~header:"conflict waits" ~key:"pool_conflict_waits" dp0 (fun r ->
            r.conflict_waits) ]
      (poisson @ uniform @ [ bursty ]) ]

(* ----- storage — follower read scaling ----- *)

let storage_spec =
  (* 192 drivers offer well past a single follower's ~10k reads/s
     service capacity (100 µs/read) even though each driver spends most
     of its cycle in the 95/5 mix's quorum-path writes, so the sweep
     shows per-follower capacity scaling through f4 (the write path
     saturates near 2.3k writes/s, which in a closed 95/5 loop caps
     reads around 43k/s — still above 4 followers' 40k capacity). *)
  { Reads.default_spec with Reads.clients = 192; warmup_us = 200_000.0; duration_us = 600_000.0 }

let storage ~full:_ =
  let rows =
    List.map
      (fun followers ->
        let proto = Proto_splitbft.make ~segment_entries:64 () in
        let cluster =
          Cluster.create { (params ~proto ~batch:1 ~seed:83L ()) with Cluster.followers }
        in
        (followers, Reads.run cluster storage_spec))
      [ 0; 1; 2; 4 ]
  in
  let reads n = (List.assoc n rows).Reads.read_ops in
  let scale = if reads 0 > 0.0 then reads 4 /. reads 0 else nan in
  let count ~header ~key get = int ~header ~key (fun (_, r) -> get r) in
  [ table
      "Storage — follower read scaling (SplitBFT + Proteus ledger, 95/5 Zipf 0.99 mix; reads \
       off the critical path via f+1-vouched followers)"
      ~footer:
        [ Printf.sprintf "  read scaling, 4 followers vs consensus-only baseline: %.2fx" scale ]
      ~summary:
        [ Json.Obj [ ("label", Json.Str "read-scale-f4-vs-f0"); ("throughput_ops", num scale) ] ]
      [ point (fun (n, _) -> Printf.sprintf "reads-f%d" n);
        int ~header:"followers" ~key:"followers" fst;
        real ~header:"reads/s" ~key:"throughput_ops" Table.ops (fun (_, r) -> r.Reads.read_ops);
        real ~header:"writes/s" ~key:"write_ops" Table.ops (fun (_, r) -> r.Reads.write_ops);
        real ~header:"rd mean us" ~key:"mean_latency_us" dp0 (fun (_, r) ->
            r.Reads.rd_mean_latency_us);
        real ~header:"rd p99 us" ~key:"p99_latency_us" dp0 (fun (_, r) ->
            r.Reads.rd_p99_latency_us);
        count ~header:"stale" ~key:"stale_reads" (fun r -> r.Reads.stale_reads);
        count ~header:"refused" ~key:"refused_reads" (fun r -> r.Reads.refused_reads);
        count ~header:"wrong" ~key:"wrong_reads" (fun r -> r.Reads.wrong_reads) ]
      rows ]

(* ----- the artifacts, in the bench's order ----- *)

let artifacts =
  List.map
    (fun (name, tables) ->
      ( name,
        fun ~full ->
          let tables = tables ~full in
          List.iter print_table tables;
          Json.List (List.concat_map json_rows tables) ))
    [ ("table1", table1);
      ("table2", table2_artifact);
      ("fig3a", fig3 ~batched:false);
      ("fig3b", fig3 ~batched:true);
      ("fig4", fig4);
      ("simmode", simmode);
      ("ablation", ablation);
      ("hotpath", hotpath);
      ("lanes", lanes);
      ("ceilings", ceilings);
      ("openloop", openloop);
      ("storage", storage) ]
