module Ids = Splitbft_types.Ids
module Keys = Splitbft_types.Keys
module Validation = Splitbft_types.Validation
module Signature = Splitbft_crypto.Signature

type threading = Per_enclave | Single_thread

type t = {
  n : int;
  id : Ids.replica_id;
  cost : Splitbft_tee.Cost_model.t;
  threading : threading;
  batch_size : int;
  batch_timeout_us : float;
  checkpoint_interval : int;
  watermark_window : int;
  suspect_timeout_us : float;
  viewchange_timeout_us : float;
  recovery_retry_us : float;
  lanes : int;
  exec_workers : int;
  inflight_ttl_us : float;
  segment_entries : int;
}

let default ~n ~id =
  { n;
    id;
    cost = Splitbft_tee.Cost_model.default;
    threading = Per_enclave;
    batch_size = 1;
    batch_timeout_us = 10_000.0;
    checkpoint_interval = 64;
    watermark_window = 1024;
    suspect_timeout_us = 500_000.0;
    viewchange_timeout_us = 1_000_000.0;
    recovery_retry_us = 150_000.0;
    lanes = 1;
    exec_workers = 1;
    inflight_ttl_us = 500_000.0;
    segment_entries = 0 }

let storage t = t.segment_entries > 0
let f t = Ids.f_of_n t.n
let quorum t = Ids.quorum ~n:t.n
let primary_of_view t view = Ids.primary_of_view ~n:t.n view

let enclave_public compartment i =
  let kp = Signature.derive ~seed:(Keys.enclave_signing_seed i compartment) in
  kp.Signature.public

let table compartment ~n =
  let publics = Array.init n (enclave_public compartment) in
  fun i -> if i >= 0 && i < n then Some publics.(i) else None

let prep_public ~n = table Ids.Preparation ~n
let conf_public ~n = table Ids.Confirmation ~n
let exec_public ~n = table Ids.Execution ~n
