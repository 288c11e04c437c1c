module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Enclave = Splitbft_tee.Enclave
module Signature = Splitbft_crypto.Signature
module Ckpt = Splitbft_consensus.Ckpt
module Sealed_image = Splitbft_consensus.Sealed_image

let charge_sign env count =
  Enclave.charge_crypto env ((Enclave.cost_model env).sign_us *. float_of_int count)

let sign_with env msg =
  charge_sign env 1;
  Signature.sign (Enclave.env_keypair env).Signature.secret msg

(* Every check in [Validation] and [View_change] looks up one key per
   signature, so charging one verification per lookup meters them all. *)
let metered env (lookup : Validation.key_lookup) id =
  Enclave.charge_crypto env (Enclave.cost_model env).verify_us;
  lookup id

(* Stale checkpoints are dropped before any crypto is charged. *)
let on_checkpoint env ~exec_lookup ckpt (ck : Message.checkpoint) ~on_stable =
  if ck.seq > Ckpt.last_stable ckpt && Validation.verify_checkpoint (metered env exec_lookup) ck
  then Ckpt.observe ckpt ck ~on_stable

(* ----- sealed checkpoints (§4–5, DESIGN.md §6a) -----

   Each compartment binds its image to its own "ckpt" counter (counter
   names are scoped by measurement).  The enclave bumps the counter inside
   the seal, but the untrusted host writes the blob asynchronously, so a
   crash can legitimately lose the newest seal: acceptance tolerates one
   slot.  A replayed blob is always at least two behind, so the tolerance
   never masks an attack; it costs at most one checkpoint interval of
   staleness, which state transfer repairs. *)

let seal_checkpoint env ~tag write body =
  let counter = Enclave.counter_increment env "ckpt" in
  let data = Sealed_image.seal ~counter ~seal:(Enclave.seal env) write body in
  Enclave.ocall env (Wire.encode_output (Wire.Out_persist { tag; data }))

let open_checkpoint env ~who ~tag records read =
  Sealed_image.check ~who ~slack:1 ~counter:(Enclave.counter_read env "ckpt")
    ~unseal:(Enclave.unseal env) (List.assoc_opt tag records) read
