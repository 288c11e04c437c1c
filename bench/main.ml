(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§6), plus micro-benchmarks of the substrates.

     dune exec bench/main.exe                      # everything (moderate sweep)
     dune exec bench/main.exe -- fig3a             # one artifact
     dune exec bench/main.exe -- --full            # the paper's full client sweep
     dune exec bench/main.exe -- table2 --json out.json
                                  # also write machine-readable results plus a
                                  # metrics snapshot of an instrumented run *)

module H = Splitbft_harness
module Json = Splitbft_obs.Json
module Registry = Splitbft_obs.Registry

(* ----- bechamel micro-benchmarks of the substrates ----- *)

let micro_tests () =
  let open Bechamel in
  let payload = String.init 256 (fun i -> Char.chr (i land 0xff)) in
  let key = String.make 32 'k' in
  let hmac_key = Splitbft_crypto.Hmac.prepare key in
  let aead_key = Splitbft_crypto.Aead.prepare key in
  let nonce = String.make 12 'n' in
  let session = Splitbft_types.Session.make ~auth:key ~enc:key in
  let op = String.make 10 'o' in
  let auth64 = String.sub payload 0 64 in
  let result = "ok" in
  let request =
    { Splitbft_types.Message.client = 7; timestamp = 42L; payload = String.make 10 'x';
      auth = String.make 32 'a' }
  in
  let encoded_request = Splitbft_types.Message.encode_request request in
  (* 64 KiB: the size class of a late checkpoint image, which the seal
     encrypts in one call. *)
  let blob = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let blob_out = Bytes.create 65536 in
  (* A store of 2,560 keys with the paper's 10-byte values (§6). *)
  let kvs = Splitbft_app.Kvs.create () in
  for i = 1 to 2560 do
    let put = Splitbft_app.Kvs.Put (Printf.sprintf "key%d" i, "0123456789") in
    ignore (kvs.Splitbft_app.State_machine.apply (Splitbft_app.Kvs.encode_op put))
  done;
  let sim_events () =
    let engine = Splitbft_sim.Engine.create ~seed:7L () in
    for i = 1 to 100 do
      ignore
        (Splitbft_sim.Engine.schedule engine ~delay:(float_of_int i) ~label:"e" (fun () -> ()))
    done;
    Splitbft_sim.Engine.run engine
  in
  (* A deep queue: 100k pushes with seeded random delays, then the drain.
     (The saturated workload peaks near 5k live events; before the queue
     dropped its cancelled entries it held ~112k entries at peak.) *)
  let live_delays =
    let rng = Splitbft_util.Rng.create 11L in
    Array.init 100_000 (fun _ -> Splitbft_util.Rng.float rng 1e6)
  in
  let sim_live_events () =
    let engine = Splitbft_sim.Engine.create ~seed:7L () in
    Array.iter
      (fun delay -> ignore (Splitbft_sim.Engine.schedule engine ~delay ~label:"e" ignore))
      live_delays;
    Splitbft_sim.Engine.run engine
  in
  Test.make_grouped ~name:"substrates" ~fmt:"%s %s"
    [ Test.make ~name:"sha256-256B"
        (Staged.stage (fun () -> ignore (Splitbft_crypto.Sha256.digest payload)));
      Test.make ~name:"hmac-256B"
        (Staged.stage (fun () -> ignore (Splitbft_crypto.Hmac.mac ~key payload)));
      Test.make ~name:"hmac-256B-prepared"
        (Staged.stage (fun () -> ignore (Splitbft_crypto.Hmac.mac_with hmac_key [ payload ])));
      Test.make ~name:"hmac-64B-prepared"
        (Staged.stage (fun () -> ignore (Splitbft_crypto.Hmac.mac_with hmac_key [ auth64 ])));
      Test.make ~name:"chacha20-256B"
        (Staged.stage (fun () ->
             ignore (Splitbft_crypto.Chacha20.encrypt ~key ~nonce payload)));
      Test.make ~name:"chacha20-xor-64KiB"
        (Staged.stage (fun () ->
             Splitbft_crypto.Chacha20.encrypt_into ~key ~nonce blob ~src_off:0 blob_out ~dst_off:0
               ~len:65536));
      Test.make ~name:"aead-seal-64KiB-prepared"
        (Staged.stage (fun () ->
             ignore (Splitbft_crypto.Aead.encrypt_with aead_key ~nonce ~aad:"a" blob)));
      Test.make ~name:"kvs-snapshot-2560"
        (Staged.stage (fun () -> ignore (kvs.Splitbft_app.State_machine.snapshot ())));
      Test.make ~name:"aead-seal-open-256B"
        (Staged.stage (fun () ->
             let ct = Splitbft_crypto.Aead.encrypt ~key ~nonce ~aad:"a" payload in
             match Splitbft_crypto.Aead.decrypt ~key ~nonce ~aad:"a" ct with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"aead-seal-open-256B-prepared"
        (Staged.stage (fun () ->
             let ct = Splitbft_crypto.Aead.encrypt_with aead_key ~nonce ~aad:"a" payload in
             match Splitbft_crypto.Aead.decrypt_with aead_key ~nonce ~aad:"a" ct with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"session-op-seal-open-10B"
        (Staged.stage (fun () ->
             let ct = Splitbft_types.Session.encrypt_op session ~client:7 ~timestamp:42L op in
             match Splitbft_types.Session.decrypt_op session ~client:7 ~timestamp:42L ct with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"session-result-seal-open-2B"
        (Staged.stage (fun () ->
             let ct =
               Splitbft_types.Session.encrypt_result session ~client:7 ~timestamp:42L ~replica:2
                 result
             in
             match
               Splitbft_types.Session.decrypt_result session ~client:7 ~timestamp:42L ~replica:2
                 ct
             with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"codec-request-roundtrip"
        (Staged.stage (fun () ->
             match Splitbft_types.Message.decode_request encoded_request with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"sim-100-events" (Staged.stage sim_events);
      Test.make ~name:"sim-100k-live-events" (Staged.stage sim_live_events) ]

let run_micro () =
  let open Bechamel in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  H.Table.print ~title:"Micro-benchmarks (bechamel, monotonic clock)"
    ~header:[ "operation"; "time/op" ]
    ~rows:(List.map (fun (name, ns) -> [ name; Printf.sprintf "%.0f ns" ns ]) rows);
  Json.Obj
    (List.map
       (fun (name, ns) ->
         (name, if Float.is_finite ns then Json.Float ns else Json.Null))
       rows)

(* ----- instrumented probe run (metrics snapshot) -----

   A fixed, small SplitBFT deployment driven long enough to exercise every
   hot path, whose registry snapshot gives each BENCH json the paper's
   cost accounting regardless of which artifact was requested: per-replica
   enclave transition counts and copied bytes, per-link network traffic,
   broker batching, and interpolated latency percentiles. *)

let probe_metrics ?tracer () =
  let params =
    { (H.Cluster.default_params Splitbft_proto.Proto_splitbft.protocol) with
      H.Cluster.app = H.Cluster.App_kvs;
      seed = 97L }
  in
  let cluster = H.Cluster.create ?tracer params in
  let spec =
    { H.Workload.default_spec with
      H.Workload.clients = 10;
      window = 1;
      warmup_us = 100_000.0;
      duration_us = 400_000.0 }
  in
  ignore (H.Workload.run cluster spec);
  Registry.to_json (H.Cluster.obs cluster)

(* ----- command line ----- *)

(* The paper artifacts, then the micro-benchmarks. *)
let artifacts = H.Experiments.artifacts @ [ ("micro", fun ~full:_ -> run_micro ()) ]

let run_artifacts ~full names =
  List.map
    (fun (name, f) ->
      Printf.printf "\n######## %s ########\n%!" name;
      (name, f ~full))
    (List.filter (fun (name, _) -> List.mem name names) artifacts)

let write_json ~path ~metrics results =
  let doc =
    Json.Obj
      [ ("schema", Json.Str "splitbft.bench/v1");
        ("artifacts", Json.Obj results);
        ("metrics", metrics) ]
  in
  match open_out path with
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n%!" path msg;
    exit 1
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Json.to_channel oc doc;
        output_char oc '\n');
    Printf.printf "\nwrote %s\n%!" path

let () =
  (* The simulator is deterministic, so dev-profile numbers are internally
     consistent — but wall-clock-free cost accounting still shifts with
     inlining, and CI gates on release numbers.  Make mixing them loud. *)
  if not (String.equal Build_profile.profile "release") then
    Printf.eprintf
      "WARNING: built with dune profile %S — benchmark numbers are only comparable \
       (and CI-gated against BENCH_BASELINE.json) when built with --profile release.\n%!"
      Build_profile.profile

let () =
  let open Cmdliner in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Use the paper's full client sweep for Figure 3.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Also write the selected artifacts as JSON to $(docv), together with the \
             metrics snapshot of an instrumented probe run (see README, Metrics).")
  in
  let trace_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"PATH"
          ~doc:
            "Run the probe deployment with causal tracing enabled and write the Chrome \
             Trace Event JSON to $(docv) (load in about://tracing or Perfetto); also \
             prints the per-phase cost attribution table.  With $(b,--json), the traced \
             probe run supplies that snapshot's metrics.")
  in
  let what =
    Arg.(
      value
      & pos_all (enum (("all", "all") :: List.map (fun (n, _) -> (n, n)) artifacts)) []
      & info [] ~docv:"ARTIFACT" ~doc:"Artifacts to regenerate (default: all).")
  in
  let main full json_path trace_path what =
    let names =
      match what with
      | [] | [ "all" ] -> List.map fst artifacts
      | names -> names
    in
    let results = run_artifacts ~full names in
    let traced_metrics =
      match trace_path with
      | None -> None
      | Some path ->
        let tracer = Splitbft_obs.Tracer.create () in
        let metrics = probe_metrics ~tracer () in
        Splitbft_obs.Tracer.write_file tracer ~path;
        Printf.printf "\n######## trace ########\n%!";
        H.Trace_report.print (H.Trace_report.analyze tracer);
        Printf.printf "wrote %s\n%!" path;
        Some metrics
    in
    match json_path with
    | None -> ()
    | Some path ->
      let metrics =
        match traced_metrics with Some m -> m | None -> probe_metrics ()
      in
      write_json ~path ~metrics results
  in
  let cmd =
    Cmd.v
      (Cmd.info "splitbft-bench" ~doc:"Regenerate the SplitBFT paper's tables and figures")
      Term.(const main $ full $ json_path $ trace_path $ what)
  in
  exit (Cmd.eval cmd)
