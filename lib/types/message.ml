module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Sha256 = Splitbft_crypto.Sha256
module Trace_ctx = Splitbft_obs.Trace_ctx

type request = {
  client : Ids.client_id;
  timestamp : int64;
  payload : string;
  auth : string;
}

type preprepare = {
  view : Ids.view;
  seq : Ids.seqno;
  batch : request list;
  sender : Ids.replica_id;
  pp_sig : string;
}

type prepare = {
  view : Ids.view;
  seq : Ids.seqno;
  digest : string;
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
  result : string;
  r_auth : string;
}

type preprepare_digest = {
  pd_view : Ids.view;
  pd_seq : Ids.seqno;
  pd_digest : string;
  pd_sender : Ids.replica_id;
  pd_sig : string;
}

type prepared_proof = {
  proof_preprepare : preprepare_digest;
  proof_prepares : prepare list;
}

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

type session_init = { si_client : Ids.client_id }

type session_quote = {
  sq_replica : Ids.replica_id;
  sq_quote : string;
  sq_box_public : string;
  sq_nonce : string;
  sq_sig : string;
}

type session_key = {
  sk_client : Ids.client_id;
  sk_replica : Ids.replica_id;
  sk_box : string;
}

type session_ack = {
  sa_replica : Ids.replica_id;
  sa_client : Ids.client_id;
  sa_auth : string;
}

type batch_fetch = { bf_digest : string; bf_requester : Ids.replica_id }
type batch_data = { bd_batch : request list }

type state_request = { sr_requester : Ids.replica_id; sr_from : Ids.seqno }

type state_entry = { se_seq : Ids.seqno; se_digest : string; se_batch : request list }

type state_reply = {
  st_replier : Ids.replica_id;
  st_requester : Ids.replica_id;
  st_stable : Ids.seqno;
  st_proof : checkpoint list;
  st_snapshot : string;
  st_view : Ids.view;
  st_entries : state_entry list;
}

type ledger_subscribe = { lsu_follower : int; lsu_from : Ids.seqno }

type ledger_feed = {
  lf_replica : Ids.replica_id;
  lf_tip : Ids.seqno;
  lf_base : Ids.seqno;
  lf_records : string list;
}

type read_request = { rr_client : Ids.client_id; rr_ts : int64; rr_op : string }

type read_reply = {
  rd_follower : int;
  rd_client : Ids.client_id;
  rd_ts : int64;
  rd_seq : Ids.seqno;
  rd_lag : int;
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

let tag = function
  | Request _ -> 1
  | Preprepare _ -> 2
  | Preprepare_digest _ -> 13
  | Prepare _ -> 3
  | Commit _ -> 4
  | Checkpoint _ -> 5
  | Reply _ -> 6
  | Viewchange _ -> 7
  | Newview _ -> 8
  | Session_init _ -> 9
  | Session_quote _ -> 10
  | Session_key _ -> 11
  | Session_ack _ -> 12
  | Batch_fetch _ -> 14
  | Batch_data _ -> 15
  | State_request _ -> 16
  | State_reply _ -> 17
  | Ledger_subscribe _ -> 18
  | Ledger_feed _ -> 19
  | Read_request _ -> 20
  | Read_reply _ -> 21

let type_name = function
  | Request _ -> "request"
  | Preprepare _ -> "preprepare"
  | Preprepare_digest _ -> "preprepare-digest"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Checkpoint _ -> "checkpoint"
  | Reply _ -> "reply"
  | Viewchange _ -> "viewchange"
  | Newview _ -> "newview"
  | Session_init _ -> "session-init"
  | Session_quote _ -> "session-quote"
  | Session_key _ -> "session-key"
  | Session_ack _ -> "session-ack"
  | Batch_fetch _ -> "batch-fetch"
  | Batch_data _ -> "batch-data"
  | State_request _ -> "state-request"
  | State_reply _ -> "state-reply"
  | Ledger_subscribe _ -> "ledger-subscribe"
  | Ledger_feed _ -> "ledger-feed"
  | Read_request _ -> "read-request"
  | Read_reply _ -> "read-reply"

(* ----- request ----- *)

let write_request w (r : request) =
  W.varint w r.client;
  W.u64 w r.timestamp;
  W.bytes w r.payload;
  W.bytes w r.auth

let read_request r : request =
  let client = R.varint r in
  let timestamp = R.u64 r in
  let payload = R.bytes r in
  let auth = R.bytes r in
  { client; timestamp; payload; auth }

let encode_request_into = write_request
let encode_request req = W.to_string write_request req
let decode_request s = R.parse read_request s

let request_auth_bytes (r : request) =
  W.to_string
    (fun w () ->
      W.raw w "req-auth";
      W.varint w r.client;
      W.u64 w r.timestamp;
      W.bytes w r.payload)
    ()


(* A batch's digest is the SHA-256 of this encoding, so a replica that
   keeps the encoding keeps exactly what it hashed. *)
let batch_magic = "batch"

let encode_batch batch =
  let w = W.create () in
  W.raw w batch_magic;
  List.iter (write_request w) batch;
  W.contents w

let decode_batch s =
  R.parse
    (fun r ->
      if not (String.equal (R.raw r (String.length batch_magic)) batch_magic) then
        raise (R.Error "not a batch encoding");
      let rec go acc = if R.at_end r then List.rev acc else go (read_request r :: acc) in
      go [])
    s

let digest_of_encoded_batch = Sha256.digest
let digest_of_batch batch = digest_of_encoded_batch (encode_batch batch)

(* ----- preprepare ----- *)

let empty_batch_digest = digest_of_batch []

let write_preprepare w (pp : preprepare) =
  W.varint w pp.view;
  W.varint w pp.seq;
  W.list w write_request pp.batch;
  W.varint w pp.sender;
  W.bytes w pp.pp_sig

let read_preprepare r : preprepare =
  let view = R.varint r in
  let seq = R.varint r in
  let batch = R.list r read_request in
  let sender = R.varint r in
  let pp_sig = R.bytes r in
  { view; seq; batch; sender; pp_sig }

(* The signature covers the digest form, so it is valid on both the full
   and the summarized message. *)
let signing_bytes_of_proposal ~view ~seq ~digest ~sender =
  W.to_string
    (fun w () ->
      W.raw w "pp";
      W.varint w view;
      W.varint w seq;
      W.bytes w digest;
      W.varint w sender)
    ()

let preprepare_signing_bytes (pp : preprepare) =
  signing_bytes_of_proposal ~view:pp.view ~seq:pp.seq
    ~digest:(digest_of_batch pp.batch) ~sender:pp.sender

let preprepare_digest_signing_bytes (pd : preprepare_digest) =
  signing_bytes_of_proposal ~view:pd.pd_view ~seq:pd.pd_seq ~digest:pd.pd_digest
    ~sender:pd.pd_sender

let summarize ?digest (pp : preprepare) : preprepare_digest =
  { pd_view = pp.view;
    pd_seq = pp.seq;
    pd_digest = (match digest with Some d -> d | None -> digest_of_batch pp.batch);
    pd_sender = pp.sender;
    pd_sig = pp.pp_sig }

let write_preprepare_digest w (pd : preprepare_digest) =
  W.varint w pd.pd_view;
  W.varint w pd.pd_seq;
  W.bytes w pd.pd_digest;
  W.varint w pd.pd_sender;
  W.bytes w pd.pd_sig

let read_preprepare_digest r : preprepare_digest =
  let pd_view = R.varint r in
  let pd_seq = R.varint r in
  let pd_digest = R.bytes r in
  let pd_sender = R.varint r in
  let pd_sig = R.bytes r in
  { pd_view; pd_seq; pd_digest; pd_sender; pd_sig }

(* ----- prepare ----- *)

let write_prepare_core w (p : prepare) =
  W.varint w p.view;
  W.varint w p.seq;
  W.bytes w p.digest;
  W.varint w p.sender

let write_prepare w p =
  write_prepare_core w p;
  W.bytes w p.p_sig

let read_prepare r : prepare =
  let view = R.varint r in
  let seq = R.varint r in
  let digest = R.bytes r in
  let sender = R.varint r in
  let p_sig = R.bytes r in
  { view; seq; digest; sender; p_sig }

let prepare_signing_bytes p =
  W.to_string (fun w p -> W.raw w "p"; write_prepare_core w p) p

(* ----- commit ----- *)

let write_commit_core w (c : commit) =
  W.varint w c.view;
  W.varint w c.seq;
  W.bytes w c.digest;
  W.varint w c.sender

let write_commit w c =
  write_commit_core w c;
  W.bytes w c.c_sig

let read_commit r : commit =
  let view = R.varint r in
  let seq = R.varint r in
  let digest = R.bytes r in
  let sender = R.varint r in
  let c_sig = R.bytes r in
  { view; seq; digest; sender; c_sig }

let commit_signing_bytes c =
  W.to_string (fun w c -> W.raw w "c"; write_commit_core w c) c

(* ----- checkpoint ----- *)

let write_checkpoint_core w (ck : checkpoint) =
  W.varint w ck.seq;
  W.bytes w ck.state_digest;
  W.varint w ck.sender

let write_checkpoint w ck =
  write_checkpoint_core w ck;
  W.bytes w ck.ck_sig

let read_checkpoint r : checkpoint =
  let seq = R.varint r in
  let state_digest = R.bytes r in
  let sender = R.varint r in
  let ck_sig = R.bytes r in
  { seq; state_digest; sender; ck_sig }

let checkpoint_signing_bytes ck =
  W.to_string (fun w ck -> W.raw w "ck"; write_checkpoint_core w ck) ck

(* ----- reply ----- *)

let write_reply w (rp : reply) =
  W.varint w rp.view;
  W.u64 w rp.timestamp;
  W.varint w rp.client;
  W.varint w rp.sender;
  W.bytes w rp.result;
  W.bytes w rp.r_auth

let read_reply r : reply =
  let view = R.varint r in
  let timestamp = R.u64 r in
  let client = R.varint r in
  let sender = R.varint r in
  let result = R.bytes r in
  let r_auth = R.bytes r in
  { view; timestamp; client; sender; result; r_auth }

let reply_auth_bytes (rp : reply) =
  W.to_string
    (fun w () ->
      W.raw w "reply-auth";
      W.varint w rp.view;
      W.u64 w rp.timestamp;
      W.varint w rp.client;
      W.varint w rp.sender;
      W.bytes w rp.result)
    ()

(* ----- viewchange ----- *)

let write_prepared_proof w (p : prepared_proof) =
  write_preprepare_digest w p.proof_preprepare;
  W.list w write_prepare p.proof_prepares

let read_prepared_proof r : prepared_proof =
  let proof_preprepare = read_preprepare_digest r in
  let proof_prepares = R.list r read_prepare in
  { proof_preprepare; proof_prepares }

let write_viewchange_core w (vc : viewchange) =
  W.varint w vc.vc_new_view;
  W.varint w vc.vc_last_stable;
  W.list w write_checkpoint vc.vc_checkpoint_proof;
  W.list w write_prepared_proof vc.vc_prepared;
  W.varint w vc.vc_sender

let write_viewchange w vc =
  write_viewchange_core w vc;
  W.bytes w vc.vc_sig

let read_viewchange r : viewchange =
  let vc_new_view = R.varint r in
  let vc_last_stable = R.varint r in
  let vc_checkpoint_proof = R.list r read_checkpoint in
  let vc_prepared = R.list r read_prepared_proof in
  let vc_sender = R.varint r in
  let vc_sig = R.bytes r in
  { vc_new_view; vc_last_stable; vc_checkpoint_proof; vc_prepared; vc_sender; vc_sig }

let viewchange_signing_bytes vc =
  W.to_string (fun w vc -> W.raw w "vc"; write_viewchange_core w vc) vc

(* ----- newview ----- *)

let write_newview_core w (nv : newview) =
  W.varint w nv.nv_view;
  W.list w write_viewchange nv.nv_viewchanges;
  W.list w write_preprepare_digest nv.nv_preprepares;
  W.varint w nv.nv_sender

let write_newview w nv =
  write_newview_core w nv;
  W.bytes w nv.nv_sig

let read_newview r : newview =
  let nv_view = R.varint r in
  let nv_viewchanges = R.list r read_viewchange in
  let nv_preprepares = R.list r read_preprepare_digest in
  let nv_sender = R.varint r in
  let nv_sig = R.bytes r in
  { nv_view; nv_viewchanges; nv_preprepares; nv_sender; nv_sig }

let newview_signing_bytes nv =
  W.to_string (fun w nv -> W.raw w "nv"; write_newview_core w nv) nv

(* ----- session handshake ----- *)

let write_session_init w (s : session_init) = W.varint w s.si_client
let read_session_init r : session_init = { si_client = R.varint r }

let write_session_quote_core w (s : session_quote) =
  W.varint w s.sq_replica;
  W.bytes w s.sq_quote;
  W.bytes w s.sq_box_public;
  W.bytes w s.sq_nonce

let write_session_quote w s =
  write_session_quote_core w s;
  W.bytes w s.sq_sig

let read_session_quote r : session_quote =
  let sq_replica = R.varint r in
  let sq_quote = R.bytes r in
  let sq_box_public = R.bytes r in
  let sq_nonce = R.bytes r in
  let sq_sig = R.bytes r in
  { sq_replica; sq_quote; sq_box_public; sq_nonce; sq_sig }

let session_quote_signing_bytes s =
  W.to_string (fun w s -> W.raw w "sq"; write_session_quote_core w s) s

let write_session_key w (s : session_key) =
  W.varint w s.sk_client;
  W.varint w s.sk_replica;
  W.bytes w s.sk_box

let read_session_key r : session_key =
  let sk_client = R.varint r in
  let sk_replica = R.varint r in
  let sk_box = R.bytes r in
  { sk_client; sk_replica; sk_box }

let write_session_ack w (s : session_ack) =
  W.varint w s.sa_replica;
  W.varint w s.sa_client;
  W.bytes w s.sa_auth

let read_session_ack r : session_ack =
  let sa_replica = R.varint r in
  let sa_client = R.varint r in
  let sa_auth = R.bytes r in
  { sa_replica; sa_client; sa_auth }

let session_ack_auth_bytes (s : session_ack) =
  W.to_string
    (fun w () ->
      W.raw w "sa-auth";
      W.varint w s.sa_replica;
      W.varint w s.sa_client)
    ()

let write_batch_fetch w (b : batch_fetch) =
  W.bytes w b.bf_digest;
  W.varint w b.bf_requester

let read_batch_fetch r : batch_fetch =
  let bf_digest = R.bytes r in
  let bf_requester = R.varint r in
  { bf_digest; bf_requester }

let write_batch_data w (b : batch_data) = W.list w write_request b.bd_batch
let read_batch_data r : batch_data = { bd_batch = R.list r read_request }

(* ----- state transfer ----- *)

let write_state_request w (s : state_request) =
  W.varint w s.sr_requester;
  W.varint w s.sr_from

let read_state_request r : state_request =
  let sr_requester = R.varint r in
  let sr_from = R.varint r in
  { sr_requester; sr_from }

let write_state_entry w (e : state_entry) =
  W.varint w e.se_seq;
  W.bytes w e.se_digest;
  W.list w write_request e.se_batch

let read_state_entry r : state_entry =
  let se_seq = R.varint r in
  let se_digest = R.bytes r in
  let se_batch = R.list r read_request in
  { se_seq; se_digest; se_batch }

let write_state_reply w (s : state_reply) =
  W.varint w s.st_replier;
  W.varint w s.st_requester;
  W.varint w s.st_stable;
  W.list w write_checkpoint s.st_proof;
  W.bytes w s.st_snapshot;
  W.varint w s.st_view;
  W.list w write_state_entry s.st_entries

let read_state_reply r : state_reply =
  let st_replier = R.varint r in
  let st_requester = R.varint r in
  let st_stable = R.varint r in
  let st_proof = R.list r read_checkpoint in
  let st_snapshot = R.bytes r in
  let st_view = R.varint r in
  let st_entries = R.list r read_state_entry in
  { st_replier; st_requester; st_stable; st_proof; st_snapshot; st_view; st_entries }

(* ----- ledger followers (read replicas) ----- *)

let write_ledger_subscribe w (s : ledger_subscribe) =
  W.varint w s.lsu_follower;
  W.varint w s.lsu_from

let read_ledger_subscribe r : ledger_subscribe =
  let lsu_follower = R.varint r in
  let lsu_from = R.varint r in
  { lsu_follower; lsu_from }

let write_ledger_feed w (f : ledger_feed) =
  W.varint w f.lf_replica;
  W.varint w f.lf_tip;
  W.varint w f.lf_base;
  W.list w W.bytes f.lf_records

let read_ledger_feed r : ledger_feed =
  let lf_replica = R.varint r in
  let lf_tip = R.varint r in
  let lf_base = R.varint r in
  let lf_records = R.list r R.bytes in
  { lf_replica; lf_tip; lf_base; lf_records }

let write_read_request w (rr : read_request) =
  W.varint w rr.rr_client;
  W.u64 w rr.rr_ts;
  W.bytes w rr.rr_op

let read_read_request r : read_request =
  let rr_client = R.varint r in
  let rr_ts = R.u64 r in
  let rr_op = R.bytes r in
  { rr_client; rr_ts; rr_op }

let write_read_reply w (rd : read_reply) =
  W.varint w rd.rd_follower;
  W.varint w rd.rd_client;
  W.u64 w rd.rd_ts;
  W.varint w rd.rd_seq;
  W.varint w rd.rd_lag;
  W.bytes w rd.rd_result

let read_read_reply r : read_reply =
  let rd_follower = R.varint r in
  let rd_client = R.varint r in
  let rd_ts = R.u64 r in
  let rd_seq = R.varint r in
  let rd_lag = R.varint r in
  let rd_result = R.bytes r in
  { rd_follower; rd_client; rd_ts; rd_seq; rd_lag; rd_result }

(* ----- top-level ----- *)

let encode_into w msg =
  W.u8 w (tag msg);
  match msg with
  | Request x -> write_request w x
  | Preprepare x -> write_preprepare w x
  | Preprepare_digest x -> write_preprepare_digest w x
  | Prepare x -> write_prepare w x
  | Commit x -> write_commit w x
  | Checkpoint x -> write_checkpoint w x
  | Reply x -> write_reply w x
  | Viewchange x -> write_viewchange w x
  | Newview x -> write_newview w x
  | Session_init x -> write_session_init w x
  | Session_quote x -> write_session_quote w x
  | Session_key x -> write_session_key w x
  | Session_ack x -> write_session_ack w x
  | Batch_fetch x -> write_batch_fetch w x
  | Batch_data x -> write_batch_data w x
  | State_request x -> write_state_request w x
  | State_reply x -> write_state_reply w x
  | Ledger_subscribe x -> write_ledger_subscribe w x
  | Ledger_feed x -> write_ledger_feed w x
  | Read_request x -> write_read_request w x
  | Read_reply x -> write_read_reply w x

let encode msg = W.to_string encode_into msg

let decode_exact s =
  R.parse
    (fun r ->
      match R.u8 r with
      | 1 -> Request (read_request r)
      | 2 -> Preprepare (read_preprepare r)
      | 3 -> Prepare (read_prepare r)
      | 4 -> Commit (read_commit r)
      | 5 -> Checkpoint (read_checkpoint r)
      | 6 -> Reply (read_reply r)
      | 7 -> Viewchange (read_viewchange r)
      | 8 -> Newview (read_newview r)
      | 9 -> Session_init (read_session_init r)
      | 10 -> Session_quote (read_session_quote r)
      | 11 -> Session_key (read_session_key r)
      | 12 -> Session_ack (read_session_ack r)
      | 13 -> Preprepare_digest (read_preprepare_digest r)
      | 14 -> Batch_fetch (read_batch_fetch r)
      | 15 -> Batch_data (read_batch_data r)
      | 16 -> State_request (read_state_request r)
      | 17 -> State_reply (read_state_reply r)
      | 18 -> Ledger_subscribe (read_ledger_subscribe r)
      | 19 -> Ledger_feed (read_ledger_feed r)
      | 20 -> Read_request (read_read_request r)
      | 21 -> Read_reply (read_read_reply r)
      | t -> raise (R.Error (Printf.sprintf "unknown message tag %d" t)))
    s

(* ----- optional trace context (backward-compatible trailer) -----

   The context rides [Trace_ctx.trailer_len] bytes after the message's
   normal encoding, so pre-tracing encodings (and sealed/persisted
   blobs) remain valid and [encode] itself is byte-stable.  Stripping
   keys on a two-byte magic suffix, which can collide with the tail of a
   legacy message; the exact-parse fallback below resolves that case
   correctly (the stripped prefix of a real legacy message cannot also
   be a complete valid encoding, since every encoding is parsed to
   exhaustion). *)

let encode_traced ?ctx msg = Trace_ctx.append ctx (encode msg)

let untraced decode_exact s = Result.map (fun v -> (v, None)) (decode_exact s)

let decode_traced_with decode_exact s =
  match Trace_ctx.strip s with
  | body, (Some _ as ctx) -> (
    match decode_exact body with
    | Ok v -> Ok (v, ctx)
    | Error _ -> untraced decode_exact s)
  | _, None -> untraced decode_exact s

let decode_traced s = decode_traced_with decode_exact s

(* Trailer-tolerant: every legacy call site keeps working when handed a
   traced payload, it just does not see the context. *)
let decode s = Result.map fst (decode_traced s)

let peek_tag s = if String.length s = 0 then None else Some (Char.code s.[0])

let pp ppf msg =
  match msg with
  | Request r -> Format.fprintf ppf "request(c=%d ts=%Ld)" r.client r.timestamp
  | Preprepare pp' ->
    Format.fprintf ppf "preprepare(v=%d n=%d |b|=%d from %d)" pp'.view pp'.seq
      (List.length pp'.batch) pp'.sender
  | Preprepare_digest pd ->
    Format.fprintf ppf "preprepare-digest(v=%d n=%d from %d)" pd.pd_view pd.pd_seq
      pd.pd_sender
  | Prepare p -> Format.fprintf ppf "prepare(v=%d n=%d from %d)" p.view p.seq p.sender
  | Commit c -> Format.fprintf ppf "commit(v=%d n=%d from %d)" c.view c.seq c.sender
  | Checkpoint ck -> Format.fprintf ppf "checkpoint(n=%d from %d)" ck.seq ck.sender
  | Reply r -> Format.fprintf ppf "reply(c=%d ts=%Ld from %d)" r.client r.timestamp r.sender
  | Viewchange vc ->
    Format.fprintf ppf "viewchange(v'=%d stable=%d from %d)" vc.vc_new_view vc.vc_last_stable
      vc.vc_sender
  | Newview nv ->
    Format.fprintf ppf "newview(v=%d |pp|=%d from %d)" nv.nv_view
      (List.length nv.nv_preprepares) nv.nv_sender
  | Session_init s -> Format.fprintf ppf "session-init(c=%d)" s.si_client
  | Session_quote s -> Format.fprintf ppf "session-quote(from %d)" s.sq_replica
  | Session_key s -> Format.fprintf ppf "session-key(c=%d r=%d)" s.sk_client s.sk_replica
  | Session_ack s -> Format.fprintf ppf "session-ack(c=%d r=%d)" s.sa_client s.sa_replica
  | Batch_fetch b ->
    Format.fprintf ppf "batch-fetch(%s from %d)" (Splitbft_util.Hex.short b.bf_digest)
      b.bf_requester
  | Batch_data b -> Format.fprintf ppf "batch-data(|b|=%d)" (List.length b.bd_batch)
  | State_request s ->
    Format.fprintf ppf "state-request(from=%d by %d)" s.sr_from s.sr_requester
  | State_reply s ->
    Format.fprintf ppf "state-reply(stable=%d |e|=%d from %d)" s.st_stable
      (List.length s.st_entries) s.st_replier
  | Ledger_subscribe s ->
    Format.fprintf ppf "ledger-subscribe(f=%d from=%d)" s.lsu_follower s.lsu_from
  | Ledger_feed f ->
    Format.fprintf ppf "ledger-feed(tip=%d base=%d |e|=%d from %d)" f.lf_tip f.lf_base
      (List.length f.lf_records) f.lf_replica
  | Read_request rr -> Format.fprintf ppf "read-request(c=%d ts=%Ld)" rr.rr_client rr.rr_ts
  | Read_reply rd ->
    Format.fprintf ppf "read-reply(c=%d seq=%d lag=%d from f%d)" rd.rd_client rd.rd_seq
      rd.rd_lag rd.rd_follower
