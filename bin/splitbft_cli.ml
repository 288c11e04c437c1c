(* Command-line driver for the SplitBFT reproduction.

     splitbft run --protocol splitbft --app kvs --clients 40 --batch 200
     splitbft scenario splitbft/enclave-f-each-type
     splitbft scenarios
     splitbft tcb *)

module H = Splitbft_harness
module Proto = Splitbft_proto
open Cmdliner

(* Protocols come from the catalog: a protocol registered there is
   immediately drivable from every subcommand, with no CLI change. *)
let protocol_conv =
  let parse s =
    match Proto.Catalog.find s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown protocol %S (available: %s)" s
             (String.concat ", " Proto.Catalog.names)))
  in
  let print ppf p = Format.pp_print_string ppf (Proto.Protocol_intf.name p) in
  Arg.conv (parse, print)

let default_protocol = Proto.Proto_splitbft.protocol

let app_conv =
  Arg.enum
    [ ("kvs", H.Cluster.App_kvs);
      ("ledger", H.Cluster.App_ledger);
      ("counter", H.Cluster.App_counter) ]

(* ----- run ----- *)

let run_cmd =
  let protocol =
    Arg.(value & opt protocol_conv default_protocol & info [ "protocol"; "p" ] ~doc:"Protocol.")
  in
  let app_arg = Arg.(value & opt app_conv H.Cluster.App_kvs & info [ "app"; "a" ] ~doc:"Application.") in
  let clients = Arg.(value & opt int 10 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.") in
  let batch = Arg.(value & opt int 1 & info [ "batch"; "b" ] ~doc:"Batch size (1 = unbatched).") in
  let window = Arg.(value & opt int 1 & info [ "window"; "w" ] ~doc:"Outstanding requests per client.") in
  let duration = Arg.(value & opt float 1.0 & info [ "duration"; "d" ] ~doc:"Measured seconds (simulated).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let run protocol app clients batch window duration seed =
    let params =
      { (H.Cluster.default_params protocol) with
        H.Cluster.app;
        batch_size = batch;
        seed = Int64.of_int seed }
    in
    let cluster = H.Cluster.create params in
    let scanner = H.Safety.install_scanner cluster in
    let spec =
      { H.Workload.default_spec with
        H.Workload.clients;
        window;
        warmup_us = duration *. 1e6 /. 4.0;
        duration_us = duration *. 1e6 }
    in
    let r = H.Workload.run cluster spec in
    let honest = List.init params.H.Cluster.n (fun i -> i) in
    let v = H.Safety.verdict cluster ~honest ~scanner ~workload:r ~min_completed:1 in
    H.Table.print ~title:"workload result"
      ~header:[ "metric"; "value" ]
      ~rows:
        [ [ "throughput"; H.Table.ops r.H.Workload.throughput_ops ^ " ops/s" ];
          [ "mean latency"; H.Table.us r.H.Workload.mean_latency_us ];
          [ "p99 latency"; H.Table.us r.H.Workload.p99_latency_us ];
          [ "completed (window)"; string_of_int r.H.Workload.completed ];
          [ "wrong results"; string_of_int r.H.Workload.wrong_results ];
          [ "safe"; H.Table.yes_no v.H.Safety.safe ];
          [ "confidential"; H.Table.yes_no v.H.Safety.confidential ] ]
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload against a simulated cluster and report the paper's metrics.")
    Term.(const run $ protocol $ app_arg $ clients $ batch $ window $ duration $ seed)

(* ----- openloop ----- *)

let openloop_cmd =
  let protocol =
    Arg.(value & opt protocol_conv default_protocol & info [ "protocol"; "p" ] ~doc:"Protocol.")
  in
  let app_arg = Arg.(value & opt app_conv H.Cluster.App_kvs & info [ "app"; "a" ] ~doc:"Application.") in
  let rate = Arg.(value & opt float 2_000.0 & info [ "rate"; "r" ] ~doc:"Mean offered load, ops/s.") in
  let bursty =
    Arg.(value & flag
         & info [ "bursty" ]
             ~doc:"Square-wave (compressed diurnal) arrivals instead of Poisson: 4x the mean \
                   rate for 20% of each 50ms period, mean-preserving low rate otherwise.")
  in
  let connections =
    Arg.(value & opt int 16 & info [ "connections" ] ~doc:"Attested client sessions the identities multiplex over.")
  in
  let window = Arg.(value & opt int 16 & info [ "window"; "w" ] ~doc:"Outstanding requests per connection.") in
  let identities =
    Arg.(value & opt int 100_000 & info [ "identities" ] ~doc:"Simulated end-user identity space.")
  in
  let cache = Arg.(value & opt int 4096 & info [ "identity-cache" ] ~doc:"LRU bound on live per-identity state.") in
  let zipf = Arg.(value & opt float 0.99 & info [ "zipf" ] ~doc:"Key-popularity skew exponent (0 = uniform).") in
  let read_ratio = Arg.(value & opt float 0.5 & info [ "read-ratio" ] ~doc:"Fraction of GETs in the KVS mix.") in
  let batch = Arg.(value & opt int 200 & info [ "batch"; "b" ] ~doc:"Batch size (1 = unbatched).") in
  let duration = Arg.(value & opt float 1.0 & info [ "duration"; "d" ] ~doc:"Measured seconds (simulated).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let run protocol app rate bursty connections window identities cache zipf read_ratio batch
      duration seed =
    let params =
      { (H.Cluster.default_params protocol) with
        H.Cluster.app;
        batch_size = batch;
        batch_timeout_us = 10_000.0;
        seed = Int64.of_int seed }
    in
    let cluster = H.Cluster.create params in
    let arrival =
      if bursty then
        H.Workload.Open_loop.Bursty { peak_factor = 4.0; period_us = 50_000.0; duty = 0.2 }
      else H.Workload.Open_loop.Poisson
    in
    let spec =
      { H.Workload.Open_loop.default_spec with
        H.Workload.Open_loop.arrival;
        rate_ops = rate;
        warmup_us = duration *. 1e6 /. 4.0;
        duration_us = duration *. 1e6;
        connections;
        window;
        identities;
        identity_cache = cache;
        zipf_s = zipf;
        read_ratio }
    in
    let r = H.Workload.Open_loop.run cluster spec in
    let open H.Workload.Open_loop in
    H.Table.print ~title:"open-loop result"
      ~header:[ "metric"; "value" ]
      ~rows:
        [ [ "offered"; H.Table.ops r.offered_ops ^ " ops/s" ];
          [ "achieved"; H.Table.ops r.achieved_ops ^ " ops/s" ];
          [ "p50 latency"; H.Table.us r.ol_p50_latency_us ];
          [ "p95 latency"; H.Table.us r.ol_p95_latency_us ];
          [ "p99 latency"; H.Table.us r.ol_p99_latency_us ];
          [ "arrivals"; string_of_int r.arrivals ];
          [ "completed (window)"; string_of_int r.ol_completed ];
          [ "wrong results"; string_of_int r.ol_wrong_results ];
          [ "backlog peak"; string_of_int r.backlog_peak ];
          [ "live identities (peak)"; string_of_int r.live_identities_peak ];
          [ "distinct identities"; string_of_int r.distinct_identities ];
          [ "identity table words (peak)"; string_of_int r.identity_words_peak ] ]
  in
  Cmd.v
    (Cmd.info "openloop"
       ~doc:
         "Drive an open-loop workload: arrivals follow a Poisson or bursty process \
          independent of completions, latency is measured from arrival (client-side \
          queueing included), and simulated identities multiplex over a bounded \
          connection pool with LRU-bounded generator memory.")
    Term.(const run $ protocol $ app_arg $ rate $ bursty $ connections $ window $ identities
          $ cache $ zipf $ read_ratio $ batch $ duration $ seed)

(* ----- storage ----- *)

let storage_cmd =
  let followers = Arg.(value & opt int 2 & info [ "followers"; "f" ] ~doc:"Read-only follower replicas (0 = route reads through consensus).") in
  let segment = Arg.(value & opt int 64 & info [ "segment-entries" ] ~doc:"Ledger entries per sealed segment (enables the rollback-protected log).") in
  let lag_bound = Arg.(value & opt int 64 & info [ "lag-bound" ] ~doc:"Maximum vouched-tip lag at which followers still serve reads.") in
  let drivers = Arg.(value & opt int 8 & info [ "drivers"; "c" ] ~doc:"Closed-loop read/write drivers.") in
  let read_ratio = Arg.(value & opt float 0.95 & info [ "read-ratio" ] ~doc:"Fraction of reads in the mix.") in
  let zipf = Arg.(value & opt float 0.99 & info [ "zipf" ] ~doc:"Key-popularity skew exponent (0 = uniform).") in
  let keyspace = Arg.(value & opt int 256 & info [ "keyspace" ] ~doc:"Distinct keys.") in
  let duration = Arg.(value & opt float 1.0 & info [ "duration"; "d" ] ~doc:"Measured seconds (simulated).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let run followers segment lag_bound drivers read_ratio zipf keyspace duration seed =
    if segment <= 0 && followers > 0 then begin
      prerr_endline
        "storage: followers subscribe to the sealed ledger feed — pass --segment-entries > 0";
      exit 2
    end;
    let proto = Proto.Proto_splitbft.make ~segment_entries:segment () in
    let params =
      { (H.Cluster.default_params proto) with
        H.Cluster.followers;
        follower_lag_bound = lag_bound;
        seed = Int64.of_int seed }
    in
    let cluster = H.Cluster.create params in
    let scanner = H.Safety.install_scanner cluster in
    let spec =
      { H.Workload.Reads.default_spec with
        H.Workload.Reads.clients = drivers;
        read_ratio;
        zipf_s = zipf;
        keyspace;
        warmup_us = duration *. 1e6 /. 4.0;
        duration_us = duration *. 1e6 }
    in
    let r = H.Workload.Reads.run cluster spec in
    let honest = List.init params.H.Cluster.n (fun i -> i) in
    let followers_v = H.Safety.check_followers cluster ~honest in
    let leaks = H.Safety.network_leaks scanner in
    let open H.Workload.Reads in
    H.Table.print ~title:"storage / follower-read result"
      ~header:[ "metric"; "value" ]
      ~rows:
        ([ [ "read throughput"; H.Table.ops r.read_ops ^ " ops/s" ];
           [ "write throughput"; H.Table.ops r.write_ops ^ " ops/s" ];
           [ "read mean latency"; H.Table.us r.rd_mean_latency_us ];
           [ "read p99 latency"; H.Table.us r.rd_p99_latency_us ];
           [ "stale reads"; string_of_int r.stale_reads ];
           [ "refused reads"; string_of_int r.refused_reads ];
           [ "wrong reads"; string_of_int r.wrong_reads ];
           [ "followers consistent";
             H.Table.yes_no (followers_v = H.Safety.Followers_ok) ];
           [ "network canary leaks"; string_of_int leaks ] ]
        @ List.map
            (fun fo ->
              let module F = Splitbft_storage.Follower in
              [ Printf.sprintf "follower %d" (F.fid fo);
                Printf.sprintf "applied %d, lag %d, served %d (stale/refused %d)"
                  (F.entries_applied fo) (F.lag fo) (F.reads_served fo)
                  (F.stale_refused fo) ])
            (H.Cluster.followers cluster))
  in
  Cmd.v
    (Cmd.info "storage"
       ~doc:
         "Drive the rollback-protected ledger and its read-only follower replicas: a \
          Zipfian read/write mix where writes take the quorum path and reads are served \
          off the critical path by followers vouched by f+1 matching sealed feeds.")
    Term.(const run $ followers $ segment $ lag_bound $ drivers $ read_ratio $ zipf
          $ keyspace $ duration $ seed)

(* ----- scenarios ----- *)

let scenario_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let detect =
    Arg.(value & flag
         & info [ "detect" ]
             ~doc:"Attach the anomaly detector and a flight recorder; print the alerts the \
                   run raised.")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"With $(b,--detect): dump the flight recording to $(docv) when the run is \
                   anomalous (alerts, failed check, or missed expectation).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let run id detect flight_dir seed =
    match H.Scenarios.find id with
    | None ->
      Printf.eprintf "unknown scenario %S (see `splitbft_cli scenarios`)\n" id;
      exit 1
    | Some s ->
      Printf.printf "%s\n  %s\n%!" s.H.Scenarios.id s.H.Scenarios.description;
      let o = H.Scenarios.run ~seed:(Int64.of_int seed) ~detect s in
      let v = o.H.Scenarios.verdict in
      Printf.printf "  live=%b safe=%b confidential=%b ops=%d  %s\n"
        v.H.Safety.live v.H.Safety.safe v.H.Safety.confidential
        o.H.Scenarios.workload.H.Workload.completed_total
        (if H.Scenarios.matches_expectation o then "(matches the paper's fault model)"
         else "(UNEXPECTED)");
      if v.H.Safety.detail <> "" then Printf.printf "  detail: %s\n" v.H.Safety.detail;
      (match o.H.Scenarios.check_failure with
      | None -> ()
      | Some reason -> Printf.printf "  check: %s\n" reason);
      if detect then begin
        (match o.H.Scenarios.alerts with
        | [] -> Printf.printf "  alerts: none\n"
        | alerts ->
          Printf.printf "  alerts (%d):\n" (List.length alerts);
          List.iter (fun a -> Printf.printf "    %s\n" (H.Detector.describe a)) alerts);
        match flight_dir with
        | Some dir when H.Scenarios.anomalous o -> (
          match H.Scenarios.dump_flight ~dir o with
          | Some path -> Printf.printf "  flight recording written to %s\n" path
          | None -> ())
        | _ -> ()
      end
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run one fault-model scenario.")
    Term.(const run $ id $ detect $ flight_dir $ seed)

let scenarios_cmd =
  let run () =
    List.iter
      (fun s ->
        let e = s.H.Scenarios.expected in
        Printf.printf "%-32s live=%-5b safe=%-5b conf=%-5b  %s\n" s.H.Scenarios.id
          e.H.Scenarios.exp_live e.H.Scenarios.exp_safe e.H.Scenarios.exp_confidential
          s.H.Scenarios.description)
      H.Scenarios.all
  in
  Cmd.v
    (Cmd.info "scenarios" ~doc:"List the Table 1 fault-model scenarios and their expected outcomes.")
    Term.(const run $ const ())

let tcb_cmd =
  let run () = ignore (List.assoc "table2" H.Experiments.artifacts ~full:false) in
  Cmd.v (Cmd.info "tcb" ~doc:"Print the TCB-size table (Table 2).") Term.(const run $ const ())

(* ----- metrics ----- *)

let metrics_cmd =
  let protocol =
    Arg.(value & opt protocol_conv default_protocol & info [ "protocol"; "p" ] ~doc:"Protocol.")
  in
  let app_arg = Arg.(value & opt app_conv H.Cluster.App_kvs & info [ "app"; "a" ] ~doc:"Application.") in
  let clients = Arg.(value & opt int 10 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.") in
  let batch = Arg.(value & opt int 1 & info [ "batch"; "b" ] ~doc:"Batch size (1 = unbatched).") in
  let duration = Arg.(value & opt float 0.5 & info [ "duration"; "d" ] ~doc:"Measured seconds (simulated).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Write the snapshot to $(docv) instead of stdout.")
  in
  let prom =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit Prometheus text exposition format (0.0.4) instead of JSON — pipe into \
                   a textfile collector or scrape endpoint.")
  in
  let run protocol app clients batch duration seed out prom =
    let params =
      { (H.Cluster.default_params protocol) with
        H.Cluster.app;
        batch_size = batch;
        seed = Int64.of_int seed }
    in
    let cluster = H.Cluster.create params in
    let spec =
      { H.Workload.default_spec with
        H.Workload.clients;
        warmup_us = duration *. 1e6 /. 4.0;
        duration_us = duration *. 1e6 }
    in
    ignore (H.Workload.run cluster spec);
    let reg = H.Cluster.obs cluster in
    let render () =
      if prom then Splitbft_obs.Prom.of_registry reg
      else Splitbft_obs.Registry.to_json_string reg
    in
    match out with
    | None ->
      let s = render () in
      print_string s;
      if s = "" || s.[String.length s - 1] <> '\n' then print_newline ()
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (render ()));
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a workload and dump the full metrics registry snapshot as JSON (enclave \
          transitions, copied bytes, network traffic, broker batching, latency percentiles) \
          or Prometheus exposition text ($(b,--prom)).")
    Term.(const run $ protocol $ app_arg $ clients $ batch $ duration $ seed $ out $ prom)

(* ----- top ----- *)

let top_cmd =
  let protocol =
    Arg.(value & opt protocol_conv default_protocol & info [ "protocol"; "p" ] ~doc:"Protocol.")
  in
  let app_arg = Arg.(value & opt app_conv H.Cluster.App_kvs & info [ "app"; "a" ] ~doc:"Application.") in
  let clients = Arg.(value & opt int 10 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.") in
  let batch = Arg.(value & opt int 1 & info [ "batch"; "b" ] ~doc:"Batch size (1 = unbatched).") in
  let duration = Arg.(value & opt float 2.0 & info [ "duration"; "d" ] ~doc:"Simulated seconds to run.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let interval =
    Arg.(value & opt float 250.0
         & info [ "interval"; "i" ] ~docv:"MS" ~doc:"Refresh period, simulated milliseconds.")
  in
  let delay =
    Arg.(value & opt float 0.05
         & info [ "delay" ] ~docv:"SECONDS"
             ~doc:"Wall-clock pause per frame so the refresh is watchable (0 = as fast as \
                   the simulation runs).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render a single frame at the end of the run instead of refreshing — plain \
                   output without ANSI control sequences, for CI and scripts.")
  in
  let run protocol app clients batch duration seed interval delay once =
    let params =
      { (H.Cluster.default_params protocol) with
        H.Cluster.app;
        batch_size = batch;
        seed = Int64.of_int seed }
    in
    let flight = Splitbft_obs.Flight.create ~capacity:4096 () in
    let cluster = H.Cluster.create ~flight params in
    let detector = H.Detector.attach cluster in
    let engine = H.Cluster.engine cluster in
    let interval_us = Float.max 1_000.0 (interval *. 1_000.0) in
    if not once then begin
      (* A self-rescheduling frame event: the simulation advances between
         frames, the terminal repaints in wall time. *)
      let rec frame () =
        print_string "\x1b[2J\x1b[H";
        print_string (H.Dashboard.render ~detector cluster);
        flush stdout;
        if delay > 0.0 then begin
          (* Busy-wait on processor time: no unix dependency for the CLI. *)
          let t0 = Sys.time () in
          while Sys.time () -. t0 < delay do () done
        end;
        ignore
          (Splitbft_sim.Engine.schedule engine ~delay:interval_us ~label:"top:frame" frame)
      in
      ignore (Splitbft_sim.Engine.schedule engine ~delay:interval_us ~label:"top:frame" frame)
    end;
    let spec =
      { H.Workload.default_spec with
        H.Workload.clients;
        warmup_us = 0.0;
        duration_us = duration *. 1e6 }
    in
    let r = H.Workload.run cluster spec in
    if not once then print_string "\x1b[2J\x1b[H";
    print_string (H.Dashboard.render ~detector cluster);
    Printf.printf "\nworkload: %s ops/s, mean latency %s, %d completed\n"
      (H.Table.ops r.H.Workload.throughput_ops)
      (H.Table.us r.H.Workload.mean_latency_us)
      r.H.Workload.completed_total
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live refreshing health dashboard over a running cluster: per-replica view / \
          executed prefix / utilization / ecall and retransmission rates, lane occupancy, \
          knee proximity, and the anomaly detector's active alerts.")
    Term.(const run $ protocol $ app_arg $ clients $ batch $ duration $ seed $ interval
          $ delay $ once)

(* ----- trace ----- *)

let trace_cmd =
  let protocol =
    Arg.(value & opt protocol_conv default_protocol & info [ "protocol"; "p" ] ~doc:"Protocol.")
  in
  let app_arg = Arg.(value & opt app_conv H.Cluster.App_kvs & info [ "app"; "a" ] ~doc:"Application.") in
  let clients = Arg.(value & opt int 3 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.") in
  let duration = Arg.(value & opt float 0.5 & info [ "duration"; "d" ] ~doc:"Measured seconds (simulated).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let scenario =
    Arg.(value & opt (some string) None
         & info [ "scenario"; "s" ] ~docv:"ID"
             ~doc:"Trace a Table 1 scenario instead of a plain workload (overrides --protocol/--app).")
  in
  let sample =
    Arg.(value & opt int 1
         & info [ "sample-every" ] ~docv:"N"
             ~doc:"Head-sample one client trace in $(docv) (1 = trace everything; slow, \
                   view-change and recovery traces are always kept).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"PATH"
             ~doc:"Write the Chrome Trace Event JSON to $(docv) (load in about://tracing or Perfetto).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"PATH" ~doc:"Also write the metrics registry snapshot to $(docv).")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit non-zero unless every causal tree is structurally sound, the exported \
                   JSON validates, and (at --sample-every 1) span-attributed enclave cost \
                   reconciles with the registry counters.")
  in
  let run protocol app clients duration seed scenario sample out metrics_out check =
    let tracer = Splitbft_obs.Tracer.create ~sample_every:sample () in
    let registry =
      match scenario with
      | Some id -> (
        match H.Scenarios.find id with
        | None ->
          Printf.eprintf "unknown scenario %S (see `splitbft_cli scenarios`)\n" id;
          exit 1
        | Some s ->
          let o = H.Scenarios.run ~seed:(Int64.of_int seed) ~tracer s in
          Printf.printf "%s: ops=%d\n" s.H.Scenarios.id
            o.H.Scenarios.workload.H.Workload.completed_total;
          H.Cluster.obs o.H.Scenarios.cluster)
      | None ->
        let params =
          { (H.Cluster.default_params protocol) with
            H.Cluster.app;
            seed = Int64.of_int seed }
        in
        let cluster = H.Cluster.create ~tracer params in
        let spec =
          { H.Workload.default_spec with
            H.Workload.clients;
            warmup_us = 0.0;
            duration_us = duration *. 1e6 }
        in
        let r = H.Workload.run cluster spec in
        Printf.printf "workload: %s ops/s, mean latency %s\n"
          (H.Table.ops r.H.Workload.throughput_ops)
          (H.Table.us r.H.Workload.mean_latency_us);
        H.Cluster.obs cluster
    in
    let report = H.Trace_report.analyze tracer in
    H.Trace_report.print report;
    (match out with
    | None -> ()
    | Some path ->
      Splitbft_obs.Tracer.write_file tracer ~path;
      Printf.printf "wrote %s (%d spans)\n" path report.H.Trace_report.spans);
    (match metrics_out with
    | None -> ()
    | Some path ->
      Splitbft_obs.Registry.write_file registry ~path;
      Printf.printf "wrote %s\n" path);
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    (* reconciliation is only exact when nothing was sampled away *)
    if sample = 1 then begin
      match H.Trace_report.reconcile report registry with
      | Ok () ->
        Printf.printf "reconciliation: span cost attribution matches registry counters\n"
      | Error e -> fail "reconciliation: %s" e
    end;
    (* validate what a consumer would read: the serialized document,
       re-parsed — not the in-memory tree *)
    let serialized =
      match out with
      | Some path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      | None -> Splitbft_obs.Json.to_string (Splitbft_obs.Tracer.to_json tracer)
    in
    (match Splitbft_obs.Json.parse serialized with
    | Error e -> fail "trace JSON does not parse: %s" e
    | Ok doc -> (
      match H.Trace_report.validate doc with
      | Ok () -> Printf.printf "trace JSON: valid (%d spans, %d traces)\n"
                   report.H.Trace_report.spans report.H.Trace_report.traces
      | Error e -> fail "trace JSON: %s" e));
    if report.H.Trace_report.broken_traces > 0 then
      fail "%d broken causal trees (%s)" report.H.Trace_report.broken_traces
        (Option.value ~default:"?" report.H.Trace_report.first_defect);
    if report.H.Trace_report.dropped > 0 then
      fail "%d spans dropped (capacity)" report.H.Trace_report.dropped;
    match !failures with
    | [] -> ()
    | fs ->
      List.iter (Printf.eprintf "FAIL: %s\n") (List.rev fs);
      if check then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced workload or scenario: every sampled client request becomes a causal \
          trace (client → broker → compartments → reply) with per-phase cost attribution, \
          exported as Chrome Trace Event JSON and summarized as the Figure 4 decomposition.")
    Term.(const run $ protocol $ app_arg $ clients $ duration $ seed $ scenario $ sample $ out
          $ metrics_out $ check)

(* ----- mc ----- *)

module Mc = Splitbft_mc

let print_mc_stats (s : Mc.Driver.stats) elapsed =
  H.Table.print ~title:"exploration"
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "visited states"; string_of_int s.Mc.Driver.visited ];
        [ "transitions"; string_of_int s.Mc.Driver.transitions ];
        [ "pruned (visited hash)"; string_of_int s.Mc.Driver.hash_pruned ];
        [ "pruned (sleep sets)"; string_of_int s.Mc.Driver.sleep_pruned ];
        [ "deepest schedule"; string_of_int s.Mc.Driver.deepest ];
        [ "world rebuilds"; string_of_int s.Mc.Driver.replays ];
        [ "wall clock"; Printf.sprintf "%.1f s" elapsed ] ]

(* Named small-scope configurations: the CI matrix and the acceptance
   criteria run these by name, so the budgets they imply are documented
   here rather than scattered over workflow files. *)
let mc_presets :
    (string * (Mc.World.config * Mc.Driver.budget * [ `Expect_violation | `Expect_none | `Require_exhausted ]))
    list =
  let zero = { Mc.World.suspect = 0; retry = 0; batch = 0; recovery = 0 } in
  let adv l = List.map (fun s -> Result.get_ok (Mc.Adversary.of_string s)) l in
  let base = Mc.World.default_config in
  let quick = { Mc.Driver.max_states = 6_000; max_depth = 120; max_wall_s = 90.0 } in
  [ (* Exhaust the honest no-fault space at per-host FIFO granularity
       with a closed-loop client: timers suppressed (an idle timer
       firing is protocol stutter on the quiescent path), requests
       submitted one at a time, every host-pacing of the FIFO network's
       2-request send order explored to termination (DESIGN.md §9). *)
    ( "exhaust",
      ( { base with Mc.World.budgets = zero; per_host_fifo = true; client_window = 1 },
        { Mc.Driver.max_states = 60_000; max_depth = 150; max_wall_s = 300.0 },
        `Require_exhausted ) );
    (* Single byzantine compartment each: bounded search must find no
       violation (the paper's containment claim, §5). *)
    ("contained-prep", ({ base with Mc.World.adversaries = adv [ "equivocate@0" ]; budgets = zero }, quick, `Expect_none));
    ( "contained-prep-digest",
      ({ base with Mc.World.adversaries = adv [ "corrupt-digest@0" ]; budgets = zero }, quick, `Expect_none) );
    ( "contained-conf",
      ({ base with Mc.World.adversaries = adv [ "promiscuous-commit@1" ]; budgets = zero }, quick, `Expect_none) );
    ( "contained-exec",
      ({ base with Mc.World.adversaries = adv [ "corrupt-result@2" ]; budgets = zero }, quick, `Expect_none) );
    ( "contained-broker",
      ({ base with Mc.World.adversaries = adv [ "reorder-outputs@1" ]; budgets = zero }, quick, `Expect_none) );
    ( "contained-broker-dup",
      ({ base with Mc.World.adversaries = adv [ "duplicate-outputs@1" ]; budgets = zero }, quick, `Expect_none) );
    ( "contained-broker-drop",
      ( { base with
          Mc.World.adversaries = adv [ "drop-outputs:3@1" ];
          budgets = { zero with Mc.World.retry = 1; batch = 1 } },
        quick,
        `Expect_none ) );
    (* Two compromised Executions exceed f: the checker must produce a
       replayable counterexample (wrong result accepted by the client). *)
    ( "overpowered",
      ( { base with Mc.World.adversaries = adv [ "corrupt-result@0"; "corrupt-result@1" ]; budgets = zero },
        quick,
        `Expect_violation ) );
    (* Mutation self-test: the re-introduced PR-3 view-change bug must be
       caught; the unmutated control on the identical schedule space must
       stay clean. *)
    ( "mutation",
      ( { base with
          Mc.World.lossy_viewchange = true;
          mutate_viewchange = true;
          budgets = Mc.World.viewchange_budgets },
        { Mc.Driver.max_states = 30_000; max_depth = 200; max_wall_s = 240.0 },
        `Expect_violation ) );
    ( "mutation-control",
      ( { base with Mc.World.lossy_viewchange = true; budgets = Mc.World.viewchange_budgets },
        { Mc.Driver.max_states = 30_000; max_depth = 200; max_wall_s = 240.0 },
        `Expect_none ) ) ]

let mc_cmd =
  let preset =
    Arg.(value & opt (some (enum (List.map (fun (n, v) -> (n, (n, v))) mc_presets))) None
         & info [ "preset" ]
             ~doc:(Printf.sprintf "Named configuration: %s."
                     (String.concat ", " (List.map fst mc_presets))))
  in
  let adversaries =
    Arg.(value & opt_all string []
         & info [ "adversary" ]
             ~doc:"Byzantine compartment as POLICY@REPLICA (repeatable); policies: equivocate, \
                   corrupt-digest, promiscuous-commit, stale-proof, corrupt-result, \
                   leak-plaintext, lie-checkpoint, drop-outputs:K, duplicate-outputs, \
                   reorder-outputs.")
  in
  let requests = Arg.(value & opt int 2 & info [ "requests" ] ~doc:"Client requests.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let crash =
    Arg.(value & opt (some string) None
         & info [ "crash" ] ~doc:"Crash host HOST or HOST+restart as an explored choice.")
  in
  let timers =
    Arg.(value & opt (enum [ ("none", `None); ("default", `Default); ("viewchange", `Viewchange) ]) `None
         & info [ "timers" ]
             ~doc:"Timer fire budgets: none (deliveries only), default, or viewchange (roomy).")
  in
  let max_states = Arg.(value & opt int 20_000 & info [ "max-states" ] ~doc:"Visited-state budget.") in
  let max_depth = Arg.(value & opt int 150 & info [ "max-depth" ] ~doc:"Schedule depth budget.") in
  let max_wall = Arg.(value & opt float 120.0 & info [ "max-wall" ] ~doc:"Wall-clock budget, seconds.") in
  let expect_violation =
    Arg.(value & flag
         & info [ "expect-violation" ]
             ~doc:"Exit 0 only if a violation is found (over-powered adversary runs).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~doc:"Write the (minimized) counterexample schedule here.")
  in
  let run preset adversaries requests seed crash timers max_states max_depth max_wall
      expect_violation out =
    let cfg, budget, expectation =
      match preset with
      | Some (_name, (cfg, budget, expectation)) -> (cfg, budget, expectation)
      | None ->
        let advs =
          List.map
            (fun s ->
              match Mc.Adversary.of_string s with
              | Ok a -> a
              | Error e ->
                prerr_endline e;
                exit 2)
            adversaries
        in
        let crash =
          match crash with
          | None -> None
          | Some s -> (
            match Mc.Schedule.crash_of_string s with
            | Ok c -> c
            | Error e ->
              prerr_endline e;
              exit 2)
        in
        let budgets =
          match timers with
          | `None -> { Mc.World.suspect = 0; retry = 0; batch = 0; recovery = 0 }
          | `Default -> Mc.World.default_budgets
          | `Viewchange -> Mc.World.viewchange_budgets
        in
        ( { Mc.World.default_config with
            Mc.World.requests;
            seed = Int64.of_int seed;
            adversaries = advs;
            crash;
            budgets;
            client_window = requests },
          { Mc.Driver.max_states; max_depth; max_wall_s = max_wall },
          if expect_violation then `Expect_violation else `Expect_none )
    in
    let expectation = if expect_violation then `Expect_violation else expectation in
    Printf.printf "mc: n=4, %d request(s), checkpoint interval %d, %s\n%!" cfg.Mc.World.requests
      cfg.Mc.World.checkpoint_interval
      (Mc.Adversary.describe cfg.Mc.World.adversaries
      ^ (if cfg.Mc.World.lossy_viewchange then ", lossy-viewchange network" else "")
      ^ (if cfg.Mc.World.mutate_viewchange then ", MUTATED view entry" else "")
      ^
      match cfg.Mc.World.crash with
      | None -> ""
      | Some (h, r) -> Printf.sprintf ", crash host %d%s" h (if r then "+restart" else ""));
    let t0 = Sys.time () in
    let r = Mc.Driver.run ~budget cfg in
    let elapsed = Sys.time () -. t0 in
    print_mc_stats r.Mc.Driver.stats elapsed;
    match r.Mc.Driver.outcome with
    | Mc.Driver.Violation { schedule; detail } ->
      Printf.printf "violation: %s\n" detail;
      Printf.printf "schedule (%d choices): %s\n" (List.length schedule)
        (String.concat " " (List.map string_of_int schedule));
      let minimized = Mc.Driver.minimize cfg schedule in
      if List.length minimized < List.length schedule then
        Printf.printf "minimized to %d choices: %s\n" (List.length minimized)
          (String.concat " " (List.map string_of_int minimized));
      let artifact = Mc.Schedule.Mc { cfg; schedule = minimized; detail } in
      (match out with
      | Some path ->
        Mc.Schedule.save ~path artifact;
        Printf.printf "counterexample written to %s (replay with: splitbft_cli replay %s)\n" path
          path
      | None -> ());
      (* A counterexample that does not replay is a fingerprinting bug —
         fail loudly rather than hand over a non-deterministic artifact. *)
      (match Mc.Driver.replay cfg minimized with
      | `Violation (_, detail') ->
        Printf.printf "replay: reproduces (%s)\n" detail';
        if expectation = `Expect_violation then exit 0
        else begin
          Printf.printf "FAIL: violation found but none expected\n";
          exit 1
        end
      | `Clean | `Diverged _ ->
        Printf.printf "FAIL: counterexample does not replay deterministically\n";
        exit 1)
    | Mc.Driver.Exhausted ->
      Printf.printf "state space exhausted: every schedule explored, no violation\n";
      if expectation = `Expect_violation then begin
        Printf.printf "FAIL: expected a violation\n";
        exit 1
      end
    | Mc.Driver.Budget reason ->
      Printf.printf "bounded: search truncated by %s, no violation found\n" reason;
      (match expectation with
      | `Require_exhausted ->
        Printf.printf "FAIL: this configuration must exhaust (hit %s)\n" reason;
        exit 1
      | `Expect_violation ->
        Printf.printf "FAIL: expected a violation\n";
        exit 1
      | `Expect_none -> ())
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Bounded exhaustive model checking of the compartment boundary: explore every \
          schedule of a small-scope deployment (n=4) under a byzantine compartment \
          vocabulary, checking agreement, reply integrity, ledger prefix-consistency and the \
          confidentiality canary at every state.")
    Term.(const run $ preset $ adversaries $ requests $ seed $ crash $ timers $ max_states
          $ max_depth $ max_wall $ expect_violation $ out)

(* ----- replay ----- *)

let replay_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEDULE" ~doc:"Artifact file.") in
  let run file =
    match Mc.Schedule.load file with
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" file e;
      exit 2
    | Ok (Mc.Schedule.Mc { cfg; schedule; detail }) -> (
      Printf.printf "mc schedule: %d choices, %s\n" (List.length schedule)
        (Mc.Adversary.describe cfg.Mc.World.adversaries);
      if not (String.equal detail "") then Printf.printf "recorded violation: %s\n" detail;
      match Mc.Driver.replay cfg schedule with
      | `Violation (sched, detail') ->
        Printf.printf "reproduced after %d choices: %s\n" (List.length sched) detail'
      | `Clean ->
        Printf.printf "schedule replayed clean — violation did NOT reproduce\n";
        exit 1
      | `Diverged done_ ->
        Printf.printf "schedule diverged after %d choices (artifact/config mismatch)\n"
          (List.length done_);
        exit 1)
    | Ok (Mc.Schedule.Chaos { protocol; plan; detail }) -> (
      Printf.printf "chaos plan (%s): %s\n" protocol (Mc.Chaos.describe_plan plan);
      if not (String.equal detail "") then Printf.printf "recorded violation: %s\n" detail;
      match Mc.Chaos.run ~protocol plan with
      | Error e ->
        Printf.eprintf "%s\n" e;
        exit 2
      | Ok (Some detail') -> Printf.printf "reproduced: %s\n" detail'
      | Ok None ->
        Printf.printf "plan replayed clean — violation did NOT reproduce\n";
        exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically replay a failure artifact (model-checker counterexample or chaos \
          plan) produced by `mc`, the chaos tests, or CI.")
    Term.(const run $ file)

let () =
  let doc = "SplitBFT: compartmentalized BFT with trusted execution (MIDDLEWARE'22 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "splitbft_cli" ~doc)
          [ run_cmd; openloop_cmd; storage_cmd; scenario_cmd; scenarios_cmd; tcb_cmd;
            metrics_cmd; top_cmd; trace_cmd; mc_cmd; replay_cmd ]))
