type t = {
  ecall_transition_us : float;
  ocall_transition_us : float;
  copy_per_byte_us : float;
  sign_us : float;
  verify_us : float;
  client_auth_us : float;
  reply_auth_us : float;
  decrypt_request_us : float;
  serialize_per_byte_us : float;
  exec_op_us : float;
  ledger_block_us : float;
  seal_base_us : float;
  seal_per_byte_us : float;
  pbft_core_us : float;
  pbft_core_per_req_us : float;
  pbft_request_us : float;
  broker_dispatch_us : float;
  state_request_us : float;
  state_reply_us : float;
  state_entry_us : float;
  batch_fetch_us : float;
  batch_data_us : float;
}

let default =
  { ecall_transition_us = 2.3;
    ocall_transition_us = 2.3;
    copy_per_byte_us = 0.010;
    sign_us = 25.0;
    verify_us = 65.0;
    client_auth_us = 2.5;
    reply_auth_us = 1.0;
    decrypt_request_us = 0.5;
    serialize_per_byte_us = 0.004;
    exec_op_us = 1.0;
    ledger_block_us = 60.0;
    seal_base_us = 30.0;
    seal_per_byte_us = 0.15;
    pbft_core_us = 28.0;
    pbft_core_per_req_us = 0.15;
    pbft_request_us = 2.5;
    broker_dispatch_us = 0.5;
    state_request_us = 2.0;
    state_reply_us = 1.0;
    state_entry_us = 1.0;
    batch_fetch_us = 1.0;
    batch_data_us = 1.0 }

(* SGX simulation mode runs enclave code as a normal process: no hardware
   transitions and no EPC encryption premium on boundary copies. *)
let simulation_mode t =
  { t with ecall_transition_us = 0.0; ocall_transition_us = 0.0; copy_per_byte_us = 0.0 }

let free =
  { ecall_transition_us = 0.0;
    ocall_transition_us = 0.0;
    copy_per_byte_us = 0.0;
    sign_us = 0.0;
    verify_us = 0.0;
    client_auth_us = 0.0;
    reply_auth_us = 0.0;
    decrypt_request_us = 0.0;
    serialize_per_byte_us = 0.0;
    exec_op_us = 0.0;
    ledger_block_us = 0.0;
    seal_base_us = 0.0;
    seal_per_byte_us = 0.0;
    pbft_core_us = 0.0;
    pbft_core_per_req_us = 0.0;
    pbft_request_us = 0.0;
    broker_dispatch_us = 0.0;
    state_request_us = 0.0;
    state_reply_us = 0.0;
    state_entry_us = 0.0;
    batch_fetch_us = 0.0;
    batch_data_us = 0.0 }
