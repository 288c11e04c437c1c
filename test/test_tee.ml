module Engine = Splitbft_sim.Engine
module Resource = Splitbft_sim.Resource
module Measurement = Splitbft_tee.Measurement
module Platform = Splitbft_tee.Platform
module Enclave = Splitbft_tee.Enclave
module Attestation = Splitbft_tee.Attestation
module Sealing = Splitbft_tee.Sealing
module Cost_model = Splitbft_tee.Cost_model
module Rng = Splitbft_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))
let meas name = Measurement.of_source ~name ~version:"1" ~code:("code of " ^ name)

let setup () =
  let engine = Engine.create () in
  let platform = Platform.create engine ~id:0 in
  (engine, platform)

(* ----- measurement ----- *)

let test_measurement_identity () =
  checkb "same source, same measurement" true
    (Measurement.equal (meas "a") (meas "a"));
  checkb "different source differs" false (Measurement.equal (meas "a") (meas "b"));
  checkb "raw length" true (String.length (Measurement.to_raw (meas "a")) = 32);
  checkb "of_raw rejects short" true (Result.is_error (Measurement.of_raw "short"))

(* ----- platform counters ----- *)

let test_monotonic_counters () =
  let _, platform = setup () in
  Alcotest.(check int64) "starts at 0" 0L (Platform.counter_read platform "c");
  Alcotest.(check int64) "first" 1L (Platform.counter_increment platform "c");
  Alcotest.(check int64) "second" 2L (Platform.counter_increment platform "c");
  Alcotest.(check int64) "independent" 1L (Platform.counter_increment platform "other");
  Platform.counter_tamper_reset platform "c";
  Alcotest.(check int64) "rollback visible" 1L (Platform.counter_increment platform "c")

let test_sealing_key_binding () =
  let _, platform = setup () in
  let engine2 = Engine.create () in
  let platform2 = Platform.create engine2 ~id:1 in
  let k_a = Platform.sealing_key platform (meas "a") in
  checkb "same (platform, measurement) stable" true
    (String.equal k_a (Platform.sealing_key platform (meas "a")));
  checkb "measurement separates" false
    (String.equal k_a (Platform.sealing_key platform (meas "b")));
  checkb "platform separates" false
    (String.equal k_a (Platform.sealing_key platform2 (meas "a")))

(* ----- sealing ----- *)

let test_sealing_roundtrip () =
  let rng = Rng.create 9L in
  let key = Splitbft_crypto.Aead.prepare (String.make 32 's') in
  let blob = Sealing.seal ~key ~rng "state" in
  (match Sealing.unseal ~key blob with
  | Ok pt -> Alcotest.(check string) "roundtrip" "state" pt
  | Error e -> Alcotest.fail e);
  checkb "wrong key fails" true
    (Result.is_error (Sealing.unseal ~key:(Splitbft_crypto.Aead.prepare (String.make 32 'x')) blob));
  checkb "short blob fails" true (Result.is_error (Sealing.unseal ~key "tiny"))

(* ----- attestation ----- *)

let test_attestation_verify () =
  let _, platform = setup () in
  let quote = Attestation.create platform ~measurement:(meas "enclave") ~report_data:"pk" in
  checkb "genuine verifies" true (Attestation.verify quote);
  checkb "expected measurement ok" true
    (Attestation.verify ~expected_measurement:(meas "enclave") quote);
  checkb "wrong measurement rejected" false
    (Attestation.verify ~expected_measurement:(meas "other") quote)

let test_attestation_tamper () =
  let _, platform = setup () in
  let quote = Attestation.create platform ~measurement:(meas "enclave") ~report_data:"pk" in
  let forged = { quote with Attestation.report_data = "evil" } in
  checkb "tampered report data rejected" false (Attestation.verify forged)

let test_attestation_codec () =
  let _, platform = setup () in
  let quote = Attestation.create platform ~measurement:(meas "enclave") ~report_data:"pk" in
  match Attestation.decode (Attestation.encode quote) with
  | Ok q -> checkb "decoded verifies" true (Attestation.verify q)
  | Error e -> Alcotest.fail e

let test_attestation_fake_platform () =
  (* A quote signed by a key that is not genuine hardware. *)
  let fake = Splitbft_crypto.Signature.derive ~seed:"not-hardware" in
  let quote =
    { Attestation.platform_public = fake.Splitbft_crypto.Signature.public;
      measurement = meas "enclave";
      report_data = "pk";
      signature = String.make 32 's' }
  in
  checkb "fake platform rejected" false (Attestation.verify quote)

(* ----- enclave ----- *)

let make_enclave ?(cost = Cost_model.free) platform ~program =
  Enclave.create platform ~name:"e" ~measurement:(meas "test-enclave") ~cost_model:cost
    ~key_seed:"enclave-key" ~program

let echo_program env payload = Enclave.emit env ("echo:" ^ payload)

let test_enclave_ecall_outputs () =
  let engine, platform = setup () in
  let enclave = make_enclave platform ~program:(fun env -> echo_program env) in
  let thread = Resource.create engine ~name:"t" in
  let got = ref [] in
  Enclave.ecall enclave ~thread ~payload:"hi" ~on_done:(fun outs -> got := outs) ();
  Engine.run engine;
  Alcotest.(check (list string)) "echoed" [ "echo:hi" ] !got

let test_enclave_state_isolated_in_closure () =
  let engine, platform = setup () in
  let enclave =
    make_enclave platform ~program:(fun env ->
        let counter = ref 0 in
        fun _payload ->
          incr counter;
          Enclave.emit env (string_of_int !counter))
  in
  let thread = Resource.create engine ~name:"t" in
  let got = ref [] in
  let call () =
    Enclave.ecall enclave ~thread ~payload:"" ~on_done:(fun outs -> got := !got @ outs) ()
  in
  call ();
  call ();
  call ();
  Engine.run engine;
  Alcotest.(check (list string)) "state persists across ecalls" [ "1"; "2"; "3" ] !got

let test_enclave_metering () =
  let engine, platform = setup () in
  let cost = { Cost_model.free with Cost_model.ecall_transition_us = 2.0; copy_per_byte_us = 1.0 } in
  let enclave =
    make_enclave ~cost platform ~program:(fun env -> fun _ -> Enclave.charge env 10.0)
  in
  let thread = Resource.create engine ~name:"t" in
  let done_at = ref nan in
  Enclave.ecall enclave ~thread ~payload:"abcd" ~on_done:(fun _ -> done_at := Engine.now engine) ();
  Engine.run engine;
  (* 2 (transition) + 4 (copy-in) + 10 (charge) + 0 (no outputs) *)
  checkf "metered duration" 16.0 !done_at;
  checki "ecall counted" 1 (Enclave.ecall_count enclave);
  checkf "total time" 16.0 (Enclave.ecall_total_us enclave)

let test_enclave_thread_serializes () =
  let engine, platform = setup () in
  let cost = { Cost_model.free with Cost_model.ecall_transition_us = 10.0 } in
  let enclave = make_enclave ~cost platform ~program:(fun _ -> fun _ -> ()) in
  let thread = Resource.create engine ~name:"t" in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Enclave.ecall enclave ~thread ~payload:"" ~on_done:(fun _ ->
        done_at := Engine.now engine :: !done_at) ()
  done;
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "serialized on the thread" [ 10.0; 20.0; 30.0 ]
    (List.rev !done_at)

let test_enclave_crash_and_restart () =
  let engine, platform = setup () in
  let program env =
    let n = ref 0 in
    fun _ ->
      incr n;
      Enclave.emit env (string_of_int !n)
  in
  let enclave = make_enclave platform ~program in
  let thread = Resource.create engine ~name:"t" in
  let got = ref [] in
  let call () =
    Enclave.ecall enclave ~thread ~payload:"" ~on_done:(fun outs -> got := !got @ outs) ()
  in
  call ();
  Engine.run engine;
  Enclave.crash enclave;
  checkb "crashed" true (Enclave.is_crashed enclave);
  call ();
  Engine.run engine;
  Alcotest.(check (list string)) "crashed enclave silent" [ "1" ] !got;
  Enclave.restart enclave ~program;
  checkb "running again" false (Enclave.is_crashed enclave);
  call ();
  Engine.run engine;
  Alcotest.(check (list string)) "fresh state after restart" [ "1"; "1" ] !got

let test_enclave_subvert () =
  let engine, platform = setup () in
  let enclave = make_enclave platform ~program:(fun env -> echo_program env) in
  let thread = Resource.create engine ~name:"t" in
  Enclave.subvert enclave (fun env -> fun _ -> Enclave.emit env "evil");
  checkb "marked subverted" true (Enclave.is_subverted enclave);
  let got = ref [] in
  Enclave.ecall enclave ~thread ~payload:"hi" ~on_done:(fun outs -> got := outs) ();
  Engine.run engine;
  Alcotest.(check (list string)) "adversarial behavior" [ "evil" ] !got

let test_enclave_seal_env () =
  let engine, platform = setup () in
  let out = ref [] in
  let enclave =
    make_enclave platform ~program:(fun env ->
        fun payload ->
          if payload = "seal" then Enclave.emit env (Enclave.seal env "secret-state")
          else
            match Enclave.unseal env payload with
            | Ok pt -> Enclave.emit env ("recovered:" ^ pt)
            | Error e -> Enclave.emit env ("error:" ^ e))
  in
  let thread = Resource.create engine ~name:"t" in
  Enclave.ecall enclave ~thread ~payload:"seal" ~on_done:(fun outs -> out := outs) ();
  Engine.run engine;
  let sealed = List.hd !out in
  checkb "sealed is not plaintext" false (String.equal sealed "secret-state");
  Enclave.ecall enclave ~thread ~payload:sealed ~on_done:(fun outs -> out := outs) ();
  Engine.run engine;
  Alcotest.(check (list string)) "unsealed" [ "recovered:secret-state" ] !out

let test_enclave_counter_scoped () =
  let engine, platform = setup () in
  let out = ref [] in
  let program env =
    fun _ -> Enclave.emit env (Int64.to_string (Enclave.counter_increment env "seq"))
  in
  let enclave = make_enclave platform ~program in
  let thread = Resource.create engine ~name:"t" in
  Enclave.ecall enclave ~thread ~payload:"" ~on_done:(fun o -> out := !out @ o) ();
  Enclave.ecall enclave ~thread ~payload:"" ~on_done:(fun o -> out := !out @ o) ();
  Engine.run engine;
  Alcotest.(check (list string)) "monotonic" [ "1"; "2" ] !out

let test_enclave_quote_verifies () =
  let engine, platform = setup () in
  let out = ref [] in
  let enclave =
    make_enclave platform ~program:(fun env -> fun _ -> Enclave.emit env (Enclave.quote env))
  in
  let thread = Resource.create engine ~name:"t" in
  Enclave.ecall enclave ~thread ~payload:"" ~on_done:(fun o -> out := o) ();
  Engine.run engine;
  match Attestation.decode (List.hd !out) with
  | Error e -> Alcotest.fail e
  | Ok quote ->
    checkb "quote verifies" true
      (Attestation.verify ~expected_measurement:(meas "test-enclave") quote);
    Alcotest.(check string) "report data is the enclave public key"
      (Splitbft_util.Hex.encode (Enclave.public_key enclave))
      (Splitbft_util.Hex.encode quote.Attestation.report_data)

let test_cost_model_modes () =
  let d = Cost_model.default in
  let sim = Cost_model.simulation_mode d in
  checkf "sim zeroes ecall transitions" 0.0 sim.Cost_model.ecall_transition_us;
  checkf "sim zeroes ocall transitions" 0.0 sim.Cost_model.ocall_transition_us;
  checkb "sim keeps crypto costs" true (sim.Cost_model.verify_us = d.Cost_model.verify_us)

(* Two pool tasks on two workers, the first ten times as long: plain
   tasks hand over their outputs as they finish, in-order ones in issue
   order, and neither makes a worker wait. *)
let test_pool_in_order () =
  let delivered ~in_order =
    let engine, platform = setup () in
    let program env payload =
      Enclave.pool_run ~in_order env (fun () ->
          Enclave.charge env (if payload = "long" then 100.0 else 10.0);
          Enclave.emit env payload;
          ([], []))
    in
    let enclave =
      Enclave.create ~workers:2 platform ~name:"e" ~measurement:(meas "test-enclave")
        ~cost_model:Cost_model.free ~key_seed:"enclave-key" ~program
    in
    let thread = Resource.create engine ~name:"t" in
    let got = ref [] in
    List.iter
      (fun payload ->
        Enclave.ecall enclave ~thread ~payload
          ~on_done:(fun outs -> got := !got @ List.map (fun o -> (o, Engine.now engine)) outs)
          ())
      [ "long"; "short" ];
    Engine.run engine;
    !got
  in
  Alcotest.(check (list (pair string (float 1e-9)))) "plain: as they finish"
    [ ("short", 10.0); ("long", 100.0) ] (delivered ~in_order:false);
  Alcotest.(check (list (pair string (float 1e-9)))) "in order: issue order"
    [ ("long", 100.0); ("short", 100.0) ] (delivered ~in_order:true)

let suites =
  [ ( "tee",
      [ Alcotest.test_case "measurement identity" `Quick test_measurement_identity;
        Alcotest.test_case "monotonic counters" `Quick test_monotonic_counters;
        Alcotest.test_case "sealing key binding" `Quick test_sealing_key_binding;
        Alcotest.test_case "sealing roundtrip" `Quick test_sealing_roundtrip;
        Alcotest.test_case "attestation verify" `Quick test_attestation_verify;
        Alcotest.test_case "attestation tamper" `Quick test_attestation_tamper;
        Alcotest.test_case "attestation codec" `Quick test_attestation_codec;
        Alcotest.test_case "attestation fake platform" `Quick test_attestation_fake_platform;
        Alcotest.test_case "ecall outputs" `Quick test_enclave_ecall_outputs;
        Alcotest.test_case "closure state" `Quick test_enclave_state_isolated_in_closure;
        Alcotest.test_case "metering" `Quick test_enclave_metering;
        Alcotest.test_case "thread serializes" `Quick test_enclave_thread_serializes;
        Alcotest.test_case "crash and restart" `Quick test_enclave_crash_and_restart;
        Alcotest.test_case "subvert" `Quick test_enclave_subvert;
        Alcotest.test_case "seal from env" `Quick test_enclave_seal_env;
        Alcotest.test_case "scoped counter" `Quick test_enclave_counter_scoped;
        Alcotest.test_case "quote verifies" `Quick test_enclave_quote_verifies;
        Alcotest.test_case "cost model modes" `Quick test_cost_model_modes;
        Alcotest.test_case "pool hands over in order" `Quick test_pool_in_order ] ) ]
