module Ids = Splitbft_types.Ids
module Keys = Splitbft_types.Keys
module Enclave_identity = Splitbft_types.Enclave_identity
module Enclave = Splitbft_tee.Enclave
module Platform = Splitbft_tee.Platform

type t = {
  cfg : Config.t;
  platform : Platform.t;
  enclave_of : Ids.compartment -> Enclave.t;
  prep_probe : Preparation.probe;
  conf_probe : Confirmation.probe;
  exec_probe : Execution.probe;
  program_of : Ids.compartment -> Enclave.program;  (* to restart an enclave with *)
  broker : Broker.t;
  history : (Ids.seqno * string) list ref;  (* executed batches, newest first *)
}

let create ?(prep_byz = Preparation.Prep_honest) ?(conf_byz = Confirmation.Conf_honest)
    ?(exec_byz = Execution.Exec_honest) engine net (cfg : Config.t) ~app =
  if cfg.n < 4 then invalid_arg "Splitbft.Replica.create: need n >= 4";
  let platform = Platform.create engine ~id:cfg.id in
  let prep_program, prep_probe = Preparation.make ~byz:prep_byz cfg in
  let conf_program, conf_probe = Confirmation.make ~byz:conf_byz cfg in
  (* The oracle's history of executed batches, outside the enclave: each
     incarnation starts empty, and an accepted sealed image at seq s brings
     back the previous incarnation's entries through s. *)
  let history = ref [] and prior = ref [] in
  let report = function
    | Execution.Started -> prior := !history; history := []
    | Execution.Restored s -> history := List.filter (fun (q, _) -> q <= s) !prior
    | Execution.Executed (s, d) -> history := (s, d) :: !history
  in
  let exec_program, exec_probe = Execution.make ~byz:exec_byz ~report cfg ~app in
  let make_enclave compartment program =
    (* Only Execution hosts a worker pool: it is where application work
       parallelizes; protocol compartments stay single-threaded. *)
    let workers =
      match compartment with Ids.Execution -> cfg.exec_workers | _ -> 1
    in
    Enclave.create platform ~workers
      ~name:
        (Printf.sprintf "replica%d-%s" cfg.id (Ids.compartment_name compartment))
      ~measurement:(Enclave_identity.of_compartment compartment)
      ~cost_model:cfg.cost
      ~key_seed:(Keys.enclave_signing_seed cfg.id compartment)
      ~program
  in
  let prep = make_enclave Ids.Preparation prep_program in
  let conf = make_enclave Ids.Confirmation conf_program in
  let exec = make_enclave Ids.Execution exec_program in
  let enclave_of = function
    | Ids.Preparation -> prep
    | Ids.Confirmation -> conf
    | Ids.Execution -> exec
  in
  let program_of = function
    | Ids.Preparation -> prep_program
    | Ids.Confirmation -> conf_program
    | Ids.Execution -> exec_program
  in
  let broker = Broker.create engine net cfg ~enclave_of in
  { cfg;
    platform;
    enclave_of;
    prep_probe;
    conf_probe;
    exec_probe;
    program_of;
    broker;
    history }

let id t = t.cfg.id
let enclave t = t.enclave_of

let broker t = t.broker
let view t = t.exec_probe.Execution.view ()
let last_executed t = t.exec_probe.Execution.last_executed ()
let executed_count t = t.exec_probe.Execution.executed_total ()
let executed_log t = List.rev !(t.history)
let app_digest t = t.exec_probe.Execution.app_digest ()
let persisted t = Broker.persisted t.broker
let prep_probe t = t.prep_probe
let conf_probe t = t.conf_probe
let exec_probe t = t.exec_probe
let crash_host t =
  Broker.crash t.broker;
  (* The host's enclaves stop receiving ecalls with it; reset their pool
     backlog gauges so no dashboard sample shows the dead incarnation. *)
  List.iter (fun c -> Enclave.quiesce (enclave t c)) Ids.all_compartments
let host_crashed t = Broker.is_crashed t.broker
let set_env_fault t fault = Broker.set_fault t.broker fault
let crash_enclave t compartment = Enclave.crash (enclave t compartment)

let restart_enclave t compartment =
  Enclave.restart (enclave t compartment) ~program:(t.program_of compartment)

let restart_host t =
  (* Fresh enclave incarnations first (handlers cleared, programs re-armed),
     then the broker's recovery handshake feeds them their sealed state. *)
  List.iter (restart_enclave t) Ids.all_compartments;
  Broker.restart t.broker

let tamper_counter t compartment name =
  Enclave.tamper_counter (enclave t compartment) name

let recovery_alerts t = Broker.alerts t.broker
let recovered t = Broker.recovered t.broker

let ecall_stats t compartment =
  let e = enclave t compartment in
  (Enclave.ecall_count e, Enclave.ecall_total_us e, Enclave.ecall_durations e)

let reset_ecall_stats t = List.iter (fun c -> Enclave.reset_stats (enclave t c)) Ids.all_compartments
