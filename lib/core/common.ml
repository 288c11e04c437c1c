module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Enclave = Splitbft_tee.Enclave
module Signature = Splitbft_crypto.Signature
module Ckpt = Splitbft_consensus.Ckpt
module Sealed_image = Splitbft_consensus.Sealed_image

let charge_verify env count =
  Enclave.charge_crypto env
    ((Enclave.cost_model env).verify_us *. float_of_int count)

let charge_sign env count =
  Enclave.charge_crypto env ((Enclave.cost_model env).sign_us *. float_of_int count)

let sign_with env msg =
  charge_sign env 1;
  Signature.sign (Enclave.env_keypair env).Signature.secret msg

(* ----- metered verification -----

   Each helper charges one verification, then checks one signature.  The
   call sites order the cheap structural checks first, so a message that
   cannot change the outcome (stale, duplicate, already decided) is dropped
   before any crypto is charged. *)

let verify_signature env lookup ~sender ~bytes ~signature =
  charge_verify env 1;
  Validation.verify_with lookup sender bytes signature

let verify_preprepare env lookup (pp : Message.preprepare) ~digest =
  verify_signature env lookup ~sender:pp.sender
    ~bytes:
      (Message.signing_bytes_of_proposal ~view:pp.view ~seq:pp.seq ~digest
         ~sender:pp.sender)
    ~signature:pp.pp_sig

let verify_preprepare_digest env lookup (pd : Message.preprepare_digest) =
  verify_signature env lookup ~sender:pd.pd_sender
    ~bytes:(Message.preprepare_digest_signing_bytes pd)
    ~signature:pd.pd_sig

let verify_prepare env lookup (p : Message.prepare) =
  verify_signature env lookup ~sender:p.sender
    ~bytes:(Message.prepare_signing_bytes p) ~signature:p.p_sig

let verify_commit env lookup (c : Message.commit) =
  verify_signature env lookup ~sender:c.sender
    ~bytes:(Message.commit_signing_bytes c) ~signature:c.c_sig

let verify_checkpoint env lookup (ck : Message.checkpoint) =
  verify_signature env lookup ~sender:ck.sender
    ~bytes:(Message.checkpoint_signing_bytes ck) ~signature:ck.ck_sig

let verify_viewchange env lookup (vc : Message.viewchange) =
  verify_signature env lookup ~sender:vc.vc_sender
    ~bytes:(Message.viewchange_signing_bytes vc) ~signature:vc.vc_sig

let verify_newview env lookup (nv : Message.newview) =
  verify_signature env lookup ~sender:nv.nv_sender
    ~bytes:(Message.newview_signing_bytes nv) ~signature:nv.nv_sig

let verify_prepared_proof env ~f lookup (proof : Message.prepared_proof) =
  verify_preprepare_digest env lookup proof.proof_preprepare
  && List.for_all (verify_prepare env lookup) proof.proof_prepares
  && Validation.prepare_cert_complete ~f proof.proof_preprepare proof.proof_prepares

let verify_viewchange_deep env ~f ~vc_lookup ~ckpt_lookup ~proof_lookup
    (vc : Message.viewchange) =
  verify_viewchange env vc_lookup vc
  && List.for_all (verify_checkpoint env ckpt_lookup) vc.vc_checkpoint_proof
  && List.for_all (verify_prepared_proof env ~f proof_lookup) vc.vc_prepared
  && (vc.vc_last_stable = 0
     ||
     match
       Validation.checkpoint_quorum_seq ~quorum:((2 * f) + 1) vc.vc_checkpoint_proof
     with
     | Some seq -> seq >= vc.vc_last_stable
     | None -> false)

(* Stale checkpoints are dropped before any crypto is charged. *)
let on_checkpoint env ~exec_lookup ckpt (ck : Message.checkpoint) ~on_stable =
  if ck.seq > Ckpt.last_stable ckpt && verify_checkpoint env exec_lookup ck then
    Ckpt.observe ckpt ck ~on_stable

let newview_shallow_ok env ~f ~n ~prep_lookup ~conf_lookup (nv : Message.newview) =
  (* Confirmation/Execution verify the NewView and ViewChange signatures
     and the quorum, but not the embedded prepares (§4). *)
  let senders =
    List.map (fun (vc : Message.viewchange) -> vc.vc_sender) nv.nv_viewchanges
  in
  nv.nv_sender = Ids.primary_of_view ~n nv.nv_view
  && List.length nv.nv_viewchanges >= (2 * f) + 1
  && Validation.distinct_senders senders
  && verify_newview env prep_lookup nv
  && List.for_all
       (fun (vc : Message.viewchange) ->
         vc.vc_new_view = nv.nv_view && verify_viewchange env conf_lookup vc)
       nv.nv_viewchanges

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

let open_checkpoint env ~who blob read =
  Sealed_image.check ~who ~slack:1 ~counter:(Enclave.counter_read env "ckpt")
    ~unseal:(Enclave.unseal env) blob read
