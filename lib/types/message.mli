(** Protocol messages shared by the PBFT baseline and SplitBFT, with binary
    codecs and signing helpers.

    Every inter-replica message carries the sender id and a signature over
    its {e signing bytes} (the encoding with the signature field blanked),
    matching the paper's setup: signatures between replicas/enclaves, HMACs
    between clients and the service.  Certificates (prepared proofs, view
    changes, new views) nest already-signed messages so their signatures
    remain individually verifiable — the transferable authentication that
    Clement et al. showed is required. *)

type request = {
  client : Ids.client_id;
  timestamp : int64;  (** client-chosen, strictly increasing per client *)
  payload : string;  (** operation; AEAD ciphertext in SplitBFT *)
  auth : string;  (** client authenticator (protocol-specific semantics) *)
}

type preprepare = {
  view : Ids.view;
  seq : Ids.seqno;
  batch : request list;
  sender : Ids.replica_id;
  pp_sig : string;
}

type preprepare_digest = {
  pd_view : Ids.view;
  pd_seq : Ids.seqno;
  pd_digest : string;  (** batch digest *)
  pd_sender : Ids.replica_id;
  pd_sig : string;
}
(** Digest form of a PrePrepare.  The PrePrepare signature covers (view,
    seq, batch digest, sender), so the same signature verifies on both
    forms; the digest form is what the Confirmation compartment receives
    ("this compartment only handles a hash of the request batch", §6) and
    what view-change certificates carry, as in PBFT. *)

type prepare = {
  view : Ids.view;
  seq : Ids.seqno;
  digest : string;  (** batch digest *)
  sender : Ids.replica_id;
  p_sig : string;
}

type commit = {
  view : Ids.view;
  seq : Ids.seqno;
  digest : string;
  sender : Ids.replica_id;
  c_sig : string;
}

type checkpoint = {
  seq : Ids.seqno;
  state_digest : string;
  sender : Ids.replica_id;
  ck_sig : string;
}

type reply = {
  view : Ids.view;
  timestamp : int64;
  client : Ids.client_id;
  sender : Ids.replica_id;
  result : string;  (** AEAD ciphertext in SplitBFT *)
  r_auth : string;  (** HMAC under the client's session key *)
}

type prepared_proof = {
  proof_preprepare : preprepare_digest;
  proof_prepares : prepare list;
}
(** A prepare certificate: one PrePrepare (digest form) plus 2f matching
    Prepares. *)

type viewchange = {
  vc_new_view : Ids.view;
  vc_last_stable : Ids.seqno;
  vc_checkpoint_proof : checkpoint list;
  vc_prepared : prepared_proof list;
  vc_sender : Ids.replica_id;
  vc_sig : string;
}

type newview = {
  nv_view : Ids.view;
  nv_viewchanges : viewchange list;
  nv_preprepares : preprepare_digest list;
  nv_sender : Ids.replica_id;
  nv_sig : string;
}

(** Client/Execution session establishment (attestation handshake). *)

type session_init = { si_client : Ids.client_id }

type session_quote = {
  sq_replica : Ids.replica_id;
  sq_quote : string;  (** encoded attestation quote *)
  sq_box_public : string;
  sq_nonce : string;
      (** freshness nonce, distinct per enclave incarnation — lets a client
          distinguish a recovered enclave (which must be re-provisioned)
          from a retransmitted quote of one it already trusts *)
  sq_sig : string;  (** signature by the enclave's protocol key *)
}

type session_key = {
  sk_client : Ids.client_id;
  sk_replica : Ids.replica_id;
  sk_box : string;  (** session key encrypted to the enclave's box key *)
}

type session_ack = {
  sa_replica : Ids.replica_id;
  sa_client : Ids.client_id;
  sa_auth : string;  (** HMAC under the session key, proving receipt *)
}

type batch_fetch = { bf_digest : string; bf_requester : Ids.replica_id }
(** Content-addressed recovery of a committed batch's body (the request
    retransmission/fetch of PBFT): a replica that committed a digest
    without holding the full requests asks its peers.  The response needs
    no signature — the receiver checks the digest. *)

type batch_data = { bd_batch : request list }

type state_request = { sr_requester : Ids.replica_id; sr_from : Ids.seqno }
(** Broadcast by a recovering replica: "send me everything from [sr_from]
    on".  PBFT's state-transfer request; in SplitBFT it is served by the
    Execution compartment. *)

type state_entry = { se_seq : Ids.seqno; se_digest : string; se_batch : request list }
(** One decided log slot.  Content-addressed: the receiver recomputes the
    batch digest, so entries need no signature — but it waits for [f + 1]
    repliers agreeing on (seq, digest) before installing. *)

type state_reply = {
  st_replier : Ids.replica_id;
  st_requester : Ids.replica_id;
  st_stable : Ids.seqno;  (** replier's last stable checkpoint (0 = none) *)
  st_proof : checkpoint list;  (** quorum certificate for [st_stable] *)
  st_snapshot : string;
      (** application snapshot at [st_stable], matching the certified state
          digest; AEAD-sealed to the Execution identity in SplitBFT, plain
          in the PBFT baseline; [""] when the requester is past the stable
          point and only needs log entries *)
  st_view : Ids.view;
  st_entries : state_entry list;  (** decided suffix above the stable point *)
}

(** Ledger follower protocol (read replicas off the consensus path). *)

type ledger_subscribe = { lsu_follower : int; lsu_from : Ids.seqno }
(** Sent by a follower to every replica host: "stream me committed ledger
    records from [lsu_from] on".  Handled by the untrusted broker — the
    ledger records it serves are already sealed and chain-verified, so
    subscription needs no enclave transition. *)

type ledger_feed = {
  lf_replica : Ids.replica_id;
  lf_tip : Ids.seqno;  (** highest entry this replica has appended *)
  lf_base : Ids.seqno;  (** compaction floor (0 = nothing compacted) *)
  lf_records : string list;  (** encoded ledger entry records, seq order *)
}
(** Entry records are unsigned but content-addressed: a follower installs a
    slot only once [f + 1] distinct replicas feed byte-identical entry
    content (the same vouching rule as {!state_entry}). *)

type read_request = { rr_client : Ids.client_id; rr_ts : int64; rr_op : string }
(** A stale-bounded read addressed to a follower.  [rr_op] is AEAD-protected
    under the follower read channel when the protocol is confidential. *)

type read_reply = {
  rd_follower : int;
  rd_client : Ids.client_id;
  rd_ts : int64;
  rd_seq : Ids.seqno;  (** applied prefix the read was served at *)
  rd_lag : int;  (** vouched cluster tip minus [rd_seq] at serve time *)
  rd_result : string;
}

type t =
  | Request of request
  | Preprepare of preprepare
  | Preprepare_digest of preprepare_digest
  | Prepare of prepare
  | Commit of commit
  | Checkpoint of checkpoint
  | Reply of reply
  | Viewchange of viewchange
  | Newview of newview
  | Session_init of session_init
  | Session_quote of session_quote
  | Session_key of session_key
  | Session_ack of session_ack
  | Batch_fetch of batch_fetch
  | Batch_data of batch_data
  | State_request of state_request
  | State_reply of state_reply
  | Ledger_subscribe of ledger_subscribe
  | Ledger_feed of ledger_feed
  | Read_request of read_request
  | Read_reply of read_reply

val tag : t -> int
val type_name : t -> string

(** {2 Digests} *)

val encode_batch : request list -> string
(** The bytes a batch's digest is computed over: a replica that keeps a
    batch in this form keeps what it hashed. *)

val decode_batch : string -> (request list, string) result
(** Inverse of {!encode_batch}; an [Error] on any other string. *)

val digest_of_encoded_batch : string -> string
(** [digest_of_encoded_batch (encode_batch b) = digest_of_batch b]. *)

val digest_of_batch : request list -> string

val empty_batch_digest : string
(** [digest_of_batch []], the digest of the no-op filler batch used to plug
    sequence-number gaps in a NewView. *)

val summarize : ?digest:string -> preprepare -> preprepare_digest
(** Digest form of a full PrePrepare (shares its signature).  [digest],
    when the caller already hashed the batch, is taken as its digest. *)

(** {2 Codec} *)

val encode : t -> string

val decode : string -> (t, string) result
(** Trailer-tolerant: accepts both plain encodings and encodings carrying
    a trace-context trailer (the context is dropped — use
    {!decode_traced} to see it). *)

val encode_traced : ?ctx:Splitbft_obs.Trace_ctx.t -> t -> string
(** [encode] plus an optional trace-context trailer
    ({!Splitbft_obs.Trace_ctx.append}); without [ctx] this {e is}
    [encode], byte for byte, so pre-tracing peers and persisted blobs
    stay compatible. *)

val decode_traced : string -> (t * Splitbft_obs.Trace_ctx.t option, string) result
(** Decodes a message and its trace context, if one rides on it.
    Encodings from before the trailer existed decode with [None]; a
    legacy message whose tail coincidentally matches the trailer magic
    is resolved by exact-parse fallback. *)

val decode_traced_with :
  (string -> ('a, string) result) ->
  string ->
  ('a * Splitbft_obs.Trace_ctx.t option, string) result
(** [decode_traced_with decode_exact s] is {!decode_traced} for any
    payload [decode_exact] parses exactly; the broker/enclave envelopes
    of [Wire] use it too. *)

val encode_into : Splitbft_codec.Writer.t -> t -> unit
(** Appends the encoding of the message to an existing writer; together
    with {!Splitbft_codec.Writer.nested} this lets containers embed a
    length-prefixed message without serializing it into a fresh buffer
    first. *)

val peek_tag : string -> int option
(** Message tag without a full decode (broker routing). *)

val encode_request : request -> string
val encode_request_into : Splitbft_codec.Writer.t -> request -> unit
val decode_request : string -> (request, string) result

(** {2 Signing bytes}

    The encoding of a message with its signature field blanked; what the
    sender signs and the receiver verifies. *)

val signing_bytes_of_proposal :
  view:Ids.view -> seq:Ids.seqno -> digest:string -> sender:Ids.replica_id -> string
(** Proposal signing bytes from an already-computed batch digest
    ({!preprepare_signing_bytes} re-hashes the batch to obtain it). *)

val preprepare_signing_bytes : preprepare -> string
val preprepare_digest_signing_bytes : preprepare_digest -> string
val prepare_signing_bytes : prepare -> string
val commit_signing_bytes : commit -> string
val checkpoint_signing_bytes : checkpoint -> string
val viewchange_signing_bytes : viewchange -> string
val newview_signing_bytes : newview -> string
val session_quote_signing_bytes : session_quote -> string

val request_auth_bytes : request -> string
(** Bytes covered by the client authenticator. *)

val reply_auth_bytes : reply -> string
(** Bytes covered by the reply HMAC. *)

val session_ack_auth_bytes : session_ack -> string

(** {2 Convenience} *)

val pp : Format.formatter -> t -> unit
(** One-line summary for traces. *)
