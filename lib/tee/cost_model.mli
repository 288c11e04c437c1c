(** Calibrated latency model for the simulated testbed.

    All constants are simulated microseconds on the paper's machines (Intel
    Xeon E-2288G, 3.7 GHz, SGX SDK 2.16).  The enclave-transition cost
    follows the ≈8640-cycle figure of Weisse et al. (HotCalls, ISCA'17)
    that the paper cites; signature costs follow ring's Ed25519 on that
    hardware class; the remaining constants are calibrated so that the
    per-compartment ecall times reproduce Figure 4 (≈841 µs total per
    unbatched request, Execution ≈343 µs; Preparation dominating in batched
    mode).  See EXPERIMENTS.md for the calibration against every paper
    artifact. *)

type t = {
  ecall_transition_us : float;
      (** full ecall enter+exit cost, paid once per ecall *)
  ocall_transition_us : float;  (** cost of one ocall issued from inside *)
  copy_per_byte_us : float;
      (** copying request/response data across the enclave boundary,
          including (de)serialization at the boundary *)
  sign_us : float;  (** Ed25519-class signature creation *)
  verify_us : float;  (** Ed25519-class signature verification *)
  client_auth_us : float;  (** HMAC verification of one client request *)
  reply_auth_us : float;  (** HMAC + encryption of one client reply *)
  decrypt_request_us : float;  (** AEAD open of one client request *)
  serialize_per_byte_us : float;
      (** protocol-message (de)serialization outside the copy path *)
  exec_op_us : float;  (** applying one operation to the application state *)
  ledger_block_us : float;
      (** forming and persistently writing one blockchain block (5
          requests); paid by both protocols — SplitBFT additionally pays
          the sealing and ocall costs *)
  seal_base_us : float;  (** fixed cost of sealing a block for persistence *)
  seal_per_byte_us : float;
  pbft_core_us : float;
      (** baseline PBFT: serial protocol-core handling of one message *)
  pbft_core_per_req_us : float;
      (** baseline PBFT: serial per-request bookkeeping inside a batch *)
  pbft_request_us : float;
      (** baseline PBFT: serial enqueue of one client request (batching is
          off the protocol core) *)
  broker_dispatch_us : float;
      (** SplitBFT untrusted broker: event-loop handling of one message *)
  state_request_us : float;
      (** Execution: handling one peer's [State_request] (looking up the
          certificate, the snapshot and the log suffix to serve) *)
  state_reply_us : float;  (** Execution: handling one [State_reply] *)
  state_entry_us : float;
      (** Execution: tallying one log-suffix entry of a [State_reply] *)
  batch_fetch_us : float;  (** Execution: handling one peer's [Batch_fetch] *)
  batch_data_us : float;  (** Execution: handling one [Batch_data] *)
}

val default : t

val simulation_mode : t -> t
(** SGX simulation mode: enclave code runs as a normal process, so the
    hardware transition costs and the EPC boundary-copy premium disappear;
    crypto and execution costs are unchanged.  Used for the §6
    overhead-decomposition experiment. *)

val free : t
(** All costs zero — for functional tests where timing is irrelevant. *)
