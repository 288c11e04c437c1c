module Enclave_identity = Splitbft_types.Enclave_identity
module Measurement = Splitbft_tee.Measurement
module Kdf = Splitbft_crypto.Kdf
module Aead = Splitbft_crypto.Aead
module Sha256 = Splitbft_crypto.Sha256
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

type t = { seq : int; digest : string; ops : string }

(* ----- op-list payload ----- *)

let encode_ops ops = W.to_string (fun w () -> W.list w W.bytes ops) ()
let decode_ops blob = R.parse (fun r -> R.list r R.bytes) blob

(* ----- ledger feed channel -----

   Entries leave the Execution enclave with their operation payload
   AEAD-protected under a key derived from the Execution measurement —
   the same modelling license as the state-transfer channel
   ([Execution.transfer_key]): in a real deployment the key would be
   provisioned to attested followers; deriving it from public identity
   keeps the simulation honest about *who can read* without simulating
   the provisioning handshake.  Determinism matters here: the nonce is a
   pure function of the sequence number, so every honest replica seals
   byte-identical entries and followers can vouch on content. *)

let ledger_aad = "splitbft-ledger-entry"

let ledger_key =
  lazy
    (Aead.prepare
       (Kdf.derive ~ikm:"splitbft-ledger-feed"
          ~info:(Measurement.to_raw Enclave_identity.execution) ~length:32 ()))

let nonce_of ~tag seq =
  String.sub (Sha256.digest (Printf.sprintf "%s:%d" tag seq)) 0 Aead.nonce_size

let seal_ops ~seq blob =
  Aead.encrypt_with (Lazy.force ledger_key) ~nonce:(nonce_of ~tag:"ledger-nonce" seq)
    ~aad:ledger_aad blob

let open_ops ~seq blob =
  Aead.decrypt_with (Lazy.force ledger_key) ~nonce:(nonce_of ~tag:"ledger-nonce" seq)
    ~aad:ledger_aad blob

(* ----- content digest and hash chain ----- *)

let content_digest t =
  Sha256.digest
    (W.to_string
       (fun w () ->
         W.varint w t.seq;
         W.bytes w t.digest;
         W.bytes w t.ops)
       ())

let next_chain ~prev t = Sha256.digest (prev ^ content_digest t)

(* ----- on-disk / on-wire record ----- *)

let encode_record ~chain t =
  W.to_string
    (fun w () ->
      W.varint w t.seq;
      W.bytes w t.digest;
      W.bytes w t.ops;
      W.bytes w chain)
    ()

let decode_record s =
  R.parse
    (fun r ->
      let seq = R.varint r in
      let digest = R.bytes r in
      let ops = R.bytes r in
      let chain = R.bytes r in
      ({ seq; digest; ops }, chain))
    s

let seq_of_record s =
  match R.parse ~exact:false (fun r -> R.varint r) s with
  | Ok seq -> Some seq
  | Error _ -> None

(* ----- follower read channel -----

   Stale-bounded reads and their results travel client <-> follower under
   a second derived key, so a confidential protocol's read traffic leaks
   nothing to the untrusted network (the safety scanner's canary check
   covers follower replies like any other message). *)

let read_aad = "splitbft-follower-read"

let read_key =
  lazy
    (Aead.prepare
       (Kdf.derive ~ikm:"splitbft-follower-read"
          ~info:(Measurement.to_raw Enclave_identity.execution) ~length:32 ()))

let read_nonce ~dir ~client ~ts =
  String.sub
    (Sha256.digest (Printf.sprintf "fr-%s:%d:%Ld" dir client ts))
    0 Aead.nonce_size

let seal_read_op ~client ~ts op =
  Aead.encrypt_with (Lazy.force read_key) ~nonce:(read_nonce ~dir:"op" ~client ~ts)
    ~aad:read_aad op

let open_read_op ~client ~ts blob =
  Aead.decrypt_with (Lazy.force read_key) ~nonce:(read_nonce ~dir:"op" ~client ~ts)
    ~aad:read_aad blob

let seal_read_result ~client ~ts result =
  Aead.encrypt_with (Lazy.force read_key) ~nonce:(read_nonce ~dir:"res" ~client ~ts)
    ~aad:read_aad result

let open_read_result ~client ~ts blob =
  Aead.decrypt_with (Lazy.force read_key) ~nonce:(read_nonce ~dir:"res" ~client ~ts)
    ~aad:read_aad blob
