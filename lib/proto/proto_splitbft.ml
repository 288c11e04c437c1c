(* SplitBFT (the paper's compartmentalized protocol) as a
   [Protocol_intf.PROTOCOL] instance.  All SplitBFT-only deployment knobs
   live here: broker threading, consensus lanes, the Execution worker pool,
   the storage layer, and per-replica byzantine-enclave placement. *)

module R = Splitbft_core.Replica
module Config = Splitbft_core.Config
module Ids = Splitbft_types.Ids
module Client = Splitbft_client.Client

type byz = {
  prep : Splitbft_core.Preparation.byz;
  conf : Splitbft_core.Confirmation.byz;
  exec : Splitbft_core.Execution.byz;
}

let honest_enclaves =
  { prep = Splitbft_core.Preparation.Prep_honest;
    conf = Splitbft_core.Confirmation.Conf_honest;
    exec = Splitbft_core.Execution.Exec_honest }

type Protocol_intf.witness += Splitbft of R.t

let make ?(threading = Config.Per_enclave) ?(lanes = 1)
    ?(exec_workers = 1) ?(segment_entries = 0)
    ?(byz = fun (_ : Ids.replica_id) -> honest_enclaves) () : Protocol_intf.t =
  (module struct
    let name = "splitbft"
    let confidential = true
    let default_n = 4
    let f_of_n = Ids.f_of_n

    type config = Config.t
    type node = R.t

    let config_of_shared (s : Protocol_intf.shared) ~id =
      { (Config.default ~n:s.n ~id) with
        Config.cost = s.cost;
        threading;
        batch_size = s.batch_size;
        batch_timeout_us = s.batch_timeout_us;
        checkpoint_interval = s.checkpoint_interval;
        suspect_timeout_us = s.suspect_timeout_us;
        lanes;
        exec_workers;
        segment_entries }

    let spawn ctx (cfg : config) ~app =
      let module C = (val ctx : Protocol_intf.CONTEXT) in
      let b = byz cfg.Config.id in
      R.create ~prep_byz:b.prep ~conf_byz:b.conf ~exec_byz:b.exec C.engine
        C.network cfg ~app

    let client_protocol ~n ~ready_quorum =
      Client.Splitbft { ready_quorum = Option.value ~default:n ready_quorum }

    let executed_log r =
      List.map (fun (seq, d) -> (Int64.of_int seq, d)) (R.executed_log r)
    let last_executed r = Int64.of_int (R.last_executed r)
    let executed_count = R.executed_count
    let app_digest = R.app_digest
    let view = R.view
    let persisted = R.persisted
    let crash_host = R.crash_host
    let restart_host = R.restart_host

    (* The Execution compartment holds the replicated state; rolling its
       counter back is the canonical attack. *)
    let tamper_checkpoint_counter r = R.tamper_counter r Ids.Execution "ckpt"

    (* The ledger counter also lives in Execution: segment seals bind to
       it the same way checkpoint seals bind to "ckpt". *)
    let tamper_ledger_counter r = R.tamper_counter r Ids.Execution "ledger"

    let followers : Protocol_intf.follower_support =
      if segment_entries > 0 then Protocol_intf.Follower_feed { sealed = true }
      else Protocol_intf.No_followers

    let recovered = R.recovered
    let recovery_alerts = R.recovery_alerts
    let reveal r = Splitbft r
  end)

let protocol = make ()

let replica_of (packed : Protocol_intf.packed) =
  match Protocol_intf.reveal packed with Splitbft r -> Some r | _ -> None
