module Cost_model = Splitbft_tee.Cost_model
module Measurement = Splitbft_tee.Measurement
module Sha256 = Splitbft_crypto.Sha256
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader
module Ids = Splitbft_types.Ids
module Addr = Splitbft_types.Addr
module Message = Splitbft_types.Message
module State_machine = Splitbft_app.State_machine
module Quorum = Splitbft_consensus.Quorum
module Votes = Splitbft_consensus.Votes
module Catchup = Splitbft_consensus.Catchup
module Host = Splitbft_baseline.Host

let protocol_name = "minbft"

type config = {
  n : int;
  id : Ids.replica_id;
  cost : Cost_model.t;
  workers : int;
  batch_size : int;
  batch_timeout_us : float;
  checkpoint_interval : int;
  suspect_timeout_us : float;
  recovery_retry_us : float;
}

let default_config ~n ~id =
  { n;
    id;
    cost = Cost_model.default;
    workers = 4;
    batch_size = 1;
    batch_timeout_us = 10_000.0;
    checkpoint_interval = 64;
    suspect_timeout_us = 500_000.0;
    recovery_retry_us = 150_000.0 }

type byzantine_mode =
  | Honest
  | Faulty_tee_equivocate
  | Mute_commits
  | Corrupt_execution

(* An ordered-log entry: one Prepare accepted from the primary, in counter
   order. *)
type entry = {
  e_counter : int64;
  e_digest : string;
  e_batch : Message.request list;
  e_attesters : unit Quorum.t;  (* primary + commit senders *)
  mutable e_executed : bool;
}

type t = {
  cfg : config;
  f : int;
  host : Host.t;
  usig : Usig.t;
  app : State_machine.t;
  mutable view : Ids.view;
  windows : Usig.Window.w array;  (* per-sender counter windows *)
  holdback : (int * int64, Mmsg.t) Hashtbl.t;
  mutable order : entry list;  (* newest first; counter order when reversed *)
  by_counter : (int64, entry) Hashtbl.t;
  pending_commits : (int64, Mmsg.commit) Votes.t;
  mutable executed_upto : int;  (* executed prefix length of (rev order) *)
  mutable last_exec_counter : int64;
  mutable exec_index : int;  (* global execution position, across views *)
  mutable history : (int64 * string) list;
      (* the oracle's record of (exec index, digest), newest first: no
         protocol path reads it, and a restore cuts it at the restored
         index *)
  checkpoints : (int64, Mmsg.checkpoint) Votes.t;
  viewchanges : (Ids.view, unit) Votes.t;
  mutable byz : byzantine_mode;
  (* crash-recovery (sealed checkpoints + state transfer).  The USIG [t.usig]
     itself survives crashes: it is trusted hardware with its own
     persistence, and its counter keeps growing monotonically. *)
  snapshots : (int64, string) Hashtbl.t;  (* own snapshot at own checkpoint counters *)
  exec_index_at : (int64, int) Hashtbl.t;  (* counter -> exec index after executing it *)
  mutable stable_proof : (int64 * string * Mmsg.checkpoint list) option;
  sync : int64 Catchup.t;  (* heights are the primary's USIG counters *)
}

let primary t = t.view mod t.cfg.n
let is_primary t = primary t = t.cfg.id

(* Creating a UI crosses into the trusted subsystem. *)
let ui_create_cost t = t.cfg.cost.ecall_transition_us +. t.cfg.cost.sign_us
let ui_verify_cost t = t.cfg.cost.verify_us
let broadcast t ~cost msg = Host.broadcast t.host ~cost (Mmsg.encode msg)

(* ----- execution ----- *)

let rec try_execute t =
  (* While recovering, the normal path must not execute: a freshly admitted
     entry could jump ahead of gap entries still being state-transferred,
     misaligning execution indices across replicas. *)
  if Host.is_recovering t.host then ()
  else
  let entries = List.rev t.order in
  let rec loop i = function
    | [] -> ()
    | (e : entry) :: rest ->
      if i < t.executed_upto then loop (i + 1) rest
      else if (not e.e_executed) && Quorum.count e.e_attesters >= t.f + 1
      then begin
        e.e_executed <- true;
        t.executed_upto <- i + 1;
        t.last_exec_counter <- e.e_counter;
        t.exec_index <- t.exec_index + 1;
        t.history <- (Int64.of_int t.exec_index, e.e_digest) :: t.history;
        Hashtbl.replace t.exec_index_at e.e_counter t.exec_index;
        let replies =
          Host.execute t.host ~view:t.view e.e_batch ~result:(fun req ->
              match t.byz with
              | Corrupt_execution -> "CORRUPT"
              | Honest | Faulty_tee_equivocate | Mute_commits ->
                t.app.State_machine.apply req.payload)
        in
        Host.send_replies t.host replies
          ~cost:(t.cfg.cost.exec_op_us *. float_of_int (List.length e.e_batch));
        maybe_checkpoint t e.e_counter;
        loop (i + 1) rest
      end
  in
  loop 0 entries

and maybe_checkpoint t counter =
  if t.executed_upto mod t.cfg.checkpoint_interval = 0 then begin
    let snapshot = t.app.State_machine.snapshot () in
    let state_digest = Sha256.digest snapshot in
    (* Cache the snapshot so a Statereply can serve bytes matching the
       certified digest. *)
    Hashtbl.replace t.snapshots counter snapshot;
    let unsigned =
      { Mmsg.k_counter = counter;
        k_state_digest = state_digest;
        k_sender = t.cfg.id;
        k_ui = { Usig.counter = 0L; cert = "" } }
    in
    let k_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Checkpoint unsigned)) in
    let signed = { unsigned with Mmsg.k_ui } in
    (* Our own vote joins the certificate so a stable proof can be
       assembled from f+1 UI-signed checkpoints including ours. *)
    ignore (Votes.add t.checkpoints ~key:counter ~sender:t.cfg.id signed);
    broadcast t ~cost:(ui_create_cost t) (Mmsg.Checkpoint signed);
    (* The SplitBFT compartments' rollback defense, for the comparison
       rows. *)
    Host.seal_checkpoint t.host
      (fun w t ->
        W.varint w t.view;
        W.varint w t.exec_index;
        W.u64 w t.last_exec_counter;
        W.bytes w snapshot)
      t
  end

(* ----- prepare / commit ----- *)

let accept_prepare t (p : Mmsg.prepare) =
  let counter = p.p_ui.Usig.counter in
  if not (Hashtbl.mem t.by_counter counter) then begin
    let digest = Message.digest_of_batch p.p_batch in
    let e =
      { e_counter = counter;
        e_digest = digest;
        e_batch = p.p_batch;
        e_attesters = Quorum.create ();
        e_executed = false }
    in
    ignore (Quorum.add e.e_attesters ~sender:(primary t) ());
    Hashtbl.replace t.by_counter counter e;
    t.order <- e :: t.order;
    List.iter (Host.await t.host) p.p_batch;
    Host.refresh_suspect_timer t.host;
    (* Fold in commits that raced ahead of the prepare. *)
    let raced = Votes.get t.pending_commits counter in
    Votes.remove t.pending_commits counter;
    List.iter
      (fun (c : Mmsg.commit) ->
        if String.equal c.c_digest digest then
          ignore (Quorum.add e.e_attesters ~sender:c.c_sender ()))
      raced;
    if not (is_primary t) then begin
      match t.byz with
      | Mute_commits -> ()
      | Honest | Faulty_tee_equivocate | Corrupt_execution ->
        let commit =
          { Mmsg.c_view = t.view;
            c_primary_counter = counter;
            c_digest = digest;
            c_sender = t.cfg.id;
            c_ui = { Usig.counter = 0L; cert = "" } }
        in
        let signed =
          { commit with c_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Commit commit)) }
        in
        ignore (Quorum.add e.e_attesters ~sender:t.cfg.id ());
        broadcast t ~cost:(ui_create_cost t) (Mmsg.Commit signed)
    end;
    try_execute t
  end

let on_commit t (c : Mmsg.commit) =
  if c.c_view = t.view then begin
    match Hashtbl.find_opt t.by_counter c.c_primary_counter with
    | Some e ->
      if String.equal c.c_digest e.e_digest then begin
        ignore (Quorum.add e.e_attesters ~sender:c.c_sender ());
        try_execute t
      end
    | None ->
      ignore (Votes.add t.pending_commits ~key:c.c_primary_counter ~sender:c.c_sender c)
  end

let on_checkpoint t (k : Mmsg.checkpoint) =
  if Votes.add t.checkpoints ~key:k.k_counter ~sender:k.k_sender k then begin
    let all = Votes.get t.checkpoints k.k_counter in
    let matching =
      List.filter (fun (e : Mmsg.checkpoint) -> String.equal e.k_state_digest k.k_state_digest) all
    in
    if List.length matching >= t.f + 1 then begin
      (* Keep the newest f+1 certificate around: it is the proof served to
         recovering replicas alongside the matching snapshot. *)
      (match t.stable_proof with
      | Some (c, _, _) when Int64.compare c k.k_counter >= 0 -> ()
      | Some _ | None ->
        t.stable_proof <- Some (k.k_counter, k.k_state_digest, matching);
        Hashtbl.iter
          (fun c _ ->
            if Int64.compare c k.k_counter < 0 then Hashtbl.remove t.snapshots c)
          (Hashtbl.copy t.snapshots);
        Hashtbl.iter
          (fun c _ ->
            if Int64.compare c k.k_counter < 0 then Hashtbl.remove t.exec_index_at c)
          (Hashtbl.copy t.exec_index_at));
      (* Stable: trim executed entries below the checkpoint. *)
      t.order <-
        List.filter
          (fun (e : entry) ->
            (not e.e_executed) || Int64.compare e.e_counter k.k_counter > 0)
          t.order;
      Hashtbl.iter
        (fun counter (e : entry) ->
          if e.e_executed && Int64.compare counter k.k_counter <= 0 then
            Hashtbl.remove t.by_counter counter)
        (Hashtbl.copy t.by_counter);
      t.executed_upto <- List.length (List.filter (fun e -> e.e_executed) t.order)
    end
  end

(* ----- batching (primary) ----- *)

let flush_batch t =
  Host.propose_batches t.host ~ready:(fun () -> is_primary t) ~propose:(fun batch ->
      let make reqs =
        let unsigned =
          { Mmsg.p_view = t.view; p_batch = reqs; p_ui = { Usig.counter = 0L; cert = "" } }
        in
        { unsigned with
          Mmsg.p_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Prepare unsigned)) }
      in
      match t.byz with
      | Faulty_tee_equivocate when List.length batch > 0 ->
        (* Compromised USIG: assign the same counter to two conflicting
           Prepares and show each to half the backups. *)
        let p_a = make batch in
        let tampered =
          match batch with
          | [] -> []
          | first :: rest -> { first with Message.payload = first.payload ^ "\x00evil" } :: rest
        in
        Usig.tamper_set t.usig (Int64.sub p_a.Mmsg.p_ui.Usig.counter 1L);
        let p_b = make tampered in
        let pay_a = Mmsg.encode (Mmsg.Prepare p_a) in
        let pay_b = Mmsg.encode (Mmsg.Prepare p_b) in
        Host.spray t.host ~cost:(2.0 *. ui_create_cost t) (fun j ->
            [ (if j mod 2 = 1 then pay_a else pay_b) ])
      | Honest | Faulty_tee_equivocate | Mute_commits | Corrupt_execution ->
        let p = make batch in
        accept_prepare t p;
        broadcast t ~cost:(ui_create_cost t) (Mmsg.Prepare p))

(* ----- view change (simplified; see DESIGN.md) ----- *)

let enter_view t v =
  if v > t.view then begin
    t.view <- v;
    (* Requests ordered in the dead view may have been lost with it: let
       retransmissions be ordered again.  Execution deduplicates by
       timestamp, so a re-ordered request cannot execute twice. *)
    Host.reset_assignments t.host;
    t.order <- List.filter (fun (e : entry) -> e.e_executed) t.order;
    Votes.reset t.pending_commits;
    t.executed_upto <- List.length t.order;
    Host.refresh_suspect_timer t.host;
    if is_primary t then begin
      let nv = { Mmsg.n_view = v; n_sender = t.cfg.id; n_ui = { Usig.counter = 0L; cert = "" } } in
      let nv = { nv with Mmsg.n_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Newview nv)) } in
      broadcast t ~cost:(ui_create_cost t) (Mmsg.Newview nv);
      flush_batch t
    end
  end

let on_viewchange t (v : Mmsg.viewchange) =
  if Votes.add t.viewchanges ~key:v.v_new_view ~sender:v.v_sender () then begin
    if v.v_new_view > t.view && Votes.count t.viewchanges v.v_new_view >= t.f + 1 then
      enter_view t v.v_new_view
  end

let start_view_change t =
  let target = t.view + 1 in
  let vc = { Mmsg.v_new_view = target; v_sender = t.cfg.id; v_ui = { Usig.counter = 0L; cert = "" } } in
  let vc = { vc with Mmsg.v_ui = Usig.create_ui t.usig (Mmsg.signed_part (Mmsg.Viewchange vc)) } in
  ignore (Votes.add t.viewchanges ~key:target ~sender:t.cfg.id ());
  broadcast t ~cost:(ui_create_cost t) (Mmsg.Viewchange vc)

(* ----- dispatch with per-sender counter windows ----- *)

let sender_of t (msg : Mmsg.t) =
  match msg with
  | Mmsg.Prepare p -> p.Mmsg.p_view mod t.cfg.n
  | _ -> Mmsg.sender msg

let handle t (msg : Mmsg.t) =
  match msg with
  | Mmsg.Prepare p ->
    if p.p_view = t.view && not (is_primary t) then accept_prepare t p
  | Mmsg.Commit c -> on_commit t c
  | Mmsg.Checkpoint k -> on_checkpoint t k
  | Mmsg.Viewchange v -> on_viewchange t v
  | Mmsg.Newview n -> if n.n_view > t.view then enter_view t n.n_view
  | Mmsg.Statereq _ | Mmsg.Statereply _ -> ()
  (* dispatched around the USIG path in [on_payload]; never reach here *)

(* Process each sender's stream strictly in counter order; this is what
   makes the USIG's non-equivocation guarantee effective. *)
let rec admit_in_order t sender (msg : Mmsg.t) =
  let counter = (Mmsg.ui msg).Usig.counter in
  match Usig.Window.admit t.windows.(sender) counter with
  | `Next ->
    handle t msg;
    drain_holdback t sender
  | `Future -> Hashtbl.replace t.holdback (sender, counter) msg
  | `Seen -> ()  (* replayed or rolled-back identifier *)

and drain_holdback t sender =
  let next = Int64.add (Usig.Window.last t.windows.(sender)) 1L in
  match Hashtbl.find_opt t.holdback (sender, next) with
  | Some msg ->
    Hashtbl.remove t.holdback (sender, next);
    admit_in_order t sender msg
  | None -> ()

(* ----- state transfer (crash-recovery) ----- *)

(* Serve our checkpoint proof + snapshot + executed suffix to a recovering
   peer.  The snapshot is only offered when its digest matches the stable
   certificate and we know our execution index at that point — otherwise
   the requester recovers from suffix entries alone. *)
let on_state_request t (q : Mmsg.state_request) =
  if q.q_requester <> t.cfg.id && (not (Host.is_recovering t.host))
     && q.q_requester >= 0 && q.q_requester < t.cfg.n
  then begin
    let proof, stable_counter, snapshot, exec_prefix =
      match t.stable_proof with
      | Some (counter, digest, proof) -> (
        match (Hashtbl.find_opt t.snapshots counter, Hashtbl.find_opt t.exec_index_at counter) with
        | Some snap, Some prefix when String.equal (Sha256.digest snap) digest ->
          (proof, counter, snap, prefix)
        | _ -> ([], 0L, "", 0))
      | None -> ([], 0L, "", 0)
    in
    let entries =
      List.rev t.order
      |> List.filter (fun (e : entry) ->
             e.e_executed && Int64.compare e.e_counter stable_counter > 0)
      |> List.map (fun (e : entry) ->
             { Mmsg.t_counter = e.e_counter; t_digest = e.e_digest; t_batch = e.e_batch })
    in
    let windows =
      Array.to_list (Array.mapi (fun i w -> (i, Usig.Window.last w)) t.windows)
    in
    let reply =
      { Mmsg.s_replier = t.cfg.id;
        s_requester = q.q_requester;
        s_view = t.view;
        s_proof = proof;
        s_stable_counter = stable_counter;
        s_snapshot = snapshot;
        s_exec_prefix = exec_prefix;
        s_entries = entries;
        s_windows = windows }
    in
    Host.send t.host ~cost:0.0 (Addr.replica q.q_requester) (Mmsg.encode (Mmsg.Statereply reply))
  end

(* Keep [order] sorted newest-counter-first when recovery inserts below the
   live head. *)
let rec insert_sorted (e : entry) = function
  | [] -> [ e ]
  | (x : entry) :: rest as l ->
    if Int64.compare e.e_counter x.e_counter >= 0 then e :: l
    else x :: insert_sorted e rest

(* Apply a state-transferred entry: advances the execution index exactly as
   the live path would, so indices stay aligned with the rest of the
   cluster.  No client replies — peers already answered these requests. *)
let install_entry t ~counter ~digest ~(batch : Message.request list) =
  t.last_exec_counter <- counter;
  t.exec_index <- t.exec_index + 1;
  t.history <- (Int64.of_int t.exec_index, digest) :: t.history;
  Hashtbl.replace t.exec_index_at counter t.exec_index;
  Host.install t.host batch;
  match Hashtbl.find_opt t.by_counter counter with
  | Some e -> e.e_executed <- true
  | None ->
    let e =
      { e_counter = counter;
        e_digest = digest;
        e_batch = batch;
        e_attesters = Quorum.create ();
        e_executed = true }
    in
    Hashtbl.replace t.by_counter counter e;
    t.order <- insert_sorted e t.order

(* Reaching the vouched head means we hold the full executed prefix. *)
let finish_recovery_if_caught_up t =
  if Host.is_recovering t.host && Catchup.caught_up t.sync t.last_exec_counter then begin
    (match Catchup.vouched_view t.sync with
    | Some v when v > t.view -> t.view <- v
    | _ -> ());
    Catchup.reset t.sync;
    Host.end_recovery t.host;
    (* Re-derive the executed prefix length over the rebuilt order. *)
    let rec prefix n = function
      | (e : entry) :: rest when e.e_executed -> prefix (n + 1) rest
      | _ -> n
    in
    t.executed_upto <- prefix 0 (List.rev t.order);
    for s = 0 to t.cfg.n - 1 do
      if s <> t.cfg.id then drain_holdback t s
    done;
    Host.refresh_suspect_timer t.host;
    try_execute t
  end

let on_state_reply t (s : Mmsg.state_reply) =
  if Host.is_recovering t.host && s.s_requester = t.cfg.id && s.s_replier <> t.cfg.id
     && s.s_replier >= 0 && s.s_replier < t.cfg.n
  then begin
    (* 1. Snapshot install, when the f+1 UI-signed certificate checks out
       and it extends what the sealed checkpoint restored. *)
    if Int64.compare s.s_stable_counter t.last_exec_counter > 0 then begin
      let digest = Sha256.digest s.s_snapshot in
      let matching =
        List.filter
          (fun (k : Mmsg.checkpoint) ->
            Int64.equal k.k_counter s.s_stable_counter
            && String.equal k.k_state_digest digest)
          s.s_proof
      in
      let senders =
        List.sort_uniq compare (List.map (fun (k : Mmsg.checkpoint) -> k.k_sender) matching)
      in
      let certified =
        List.length senders >= t.f + 1
        && List.for_all
             (fun (k : Mmsg.checkpoint) ->
               Usig.verify_ui ~id:k.k_sender
                 ~msg:(Mmsg.signed_part (Mmsg.Checkpoint k))
                 k.k_ui)
             matching
      in
      if certified then
        match t.app.State_machine.restore s.s_snapshot with
        | Error _ -> ()
        | Ok () ->
          t.last_exec_counter <- s.s_stable_counter;
          t.exec_index <- s.s_exec_prefix;
          t.order <-
            List.filter
              (fun (e : entry) -> Int64.compare e.e_counter s.s_stable_counter > 0)
              t.order;
          Hashtbl.iter
            (fun c _ ->
              if Int64.compare c s.s_stable_counter <= 0 then Hashtbl.remove t.by_counter c)
            (Hashtbl.copy t.by_counter)
    end;
    (* 2. Install suffix entries once f+1 repliers vouch for their digest.
       Each reply lists entries counter-ascending, so installs happen in
       order. *)
    List.iter
      (fun (e : Mmsg.state_entry) ->
        if
          Int64.compare e.t_counter t.last_exec_counter > 0
          && Catchup.vote t.sync ~key:e.t_counter ~sender:s.s_replier ~digest:e.t_digest
               e.t_batch
        then install_entry t ~counter:e.t_counter ~digest:e.t_digest ~batch:e.t_batch)
      s.s_entries;
    (* 3. Fast-forward per-sender windows past counters the transfer covers
       (forward-only, so a lying replier can cost liveness, never safety). *)
    List.iter
      (fun (i, c) ->
        if i >= 0 && i < t.cfg.n && i <> t.cfg.id then
          Usig.Window.fast_forward t.windows.(i) c)
      s.s_windows;
    (* 4. The replier's slot: its head counter and view. *)
    Catchup.offer t.sync ~replier:s.s_replier ~view:s.s_view
      ~height:
        (List.fold_left
           (fun acc (e : Mmsg.state_entry) -> Int64.max acc e.t_counter)
           s.s_stable_counter s.s_entries);
    finish_recovery_if_caught_up t
  end

let mmsg_name = function
  | Mmsg.Prepare _ -> "prepare"
  | Mmsg.Commit _ -> "commit"
  | Mmsg.Checkpoint _ -> "checkpoint"
  | Mmsg.Viewchange _ -> "viewchange"
  | Mmsg.Newview _ -> "newview"
  | Mmsg.Statereq _ -> "statereq"
  | Mmsg.Statereply _ -> "statereply"

let on_payload t payload =
  let admit ctx ~name ~crypto ~verify handle =
    Host.admit t.host payload ~ctx ~name ~crypto ~core:t.cfg.cost.pbft_core_us ~verify handle
  in
  if Mmsg.is_minbft_payload payload then
    match Message.decode_traced_with Mmsg.decode payload with
    | Error _ -> ()
    | Ok (msg, ctx) -> (
      let sender = sender_of t msg in
      if sender >= 0 && sender < t.cfg.n && sender <> t.cfg.id then
        let name = mmsg_name msg in
        match msg with
        (* No UI of their own; certificates inside a Statereply are checked
           by [on_state_reply]. *)
        | Mmsg.Statereq q ->
          admit ctx ~name ~crypto:0.0 ~verify:(fun () -> true) (fun () -> on_state_request t q)
        | Mmsg.Statereply s ->
          admit ctx ~name ~crypto:0.0 ~verify:(fun () -> true) (fun () -> on_state_reply t s)
        | Mmsg.Prepare _ | Mmsg.Commit _ | Mmsg.Checkpoint _ | Mmsg.Viewchange _
        | Mmsg.Newview _ ->
          admit ctx ~name ~crypto:(ui_verify_cost t)
            ~verify:(fun () -> Usig.verify_ui ~id:sender ~msg:(Mmsg.signed_part msg) (Mmsg.ui msg))
            (fun () -> admit_in_order t sender msg))
  else
    match Message.decode_traced payload with
    | Ok (Message.Request r, ctx) ->
      admit ctx ~name:"request" ~crypto:t.cfg.cost.client_auth_us
        ~verify:(fun () -> Host.request_auth_ok t.host r)
        (fun () -> Host.on_request t.host ~proposer:(is_primary t) r)
    | Ok _ | Error _ -> ()

(* ----- construction ----- *)

let measurement =
  Measurement.of_source ~name:"minbft-replica" ~version:"1"
    ~code:"baseline minbft replica checkpoint state"

let create engine net cfg ~app =
  if cfg.n < 3 then invalid_arg "Minbft.Replica.create: need n >= 3";
  let rec t =
    lazy
      { cfg;
        f = Ids.f_of_n_hybrid cfg.n;
        host =
          Host.create engine net ~protocol:protocol_name ~n:cfg.n ~id:cfg.id ~cost:cfg.cost
            ~workers:cfg.workers ~batch_size:cfg.batch_size
            ~batch_timeout_us:cfg.batch_timeout_us ~suspect_timeout_us:cfg.suspect_timeout_us
            ~recovery_retry_us:cfg.recovery_retry_us ~measurement ~app
            ~receive:(fun payload -> on_payload (Lazy.force t) payload)
            ~flush:(fun () -> flush_batch (Lazy.force t))
            ~suspect:(fun () ->
              let t = Lazy.force t in
              start_view_change t;
              Host.refresh_suspect_timer t.host)
            ~state_request:(fun () -> Mmsg.encode (Mmsg.Statereq { Mmsg.q_requester = cfg.id }));
        usig = Usig.create ~id:cfg.id;
        app;
        view = 0;
        windows = Array.init cfg.n (fun _ -> Usig.Window.create ());
        holdback = Hashtbl.create 64;
        order = [];
        by_counter = Hashtbl.create 256;
        pending_commits = Votes.create ();
        executed_upto = 0;
        last_exec_counter = 0L;
        exec_index = 0;
        history = [];
        checkpoints = Votes.create ();
        viewchanges = Votes.create ();
        byz = Honest;
        snapshots = Hashtbl.create 8;
        exec_index_at = Hashtbl.create 64;
        stable_proof = None;
        sync = Catchup.create ~f:(Ids.f_of_n_hybrid cfg.n) ~compare:Int64.compare }
  in
  Lazy.force t

let id t = t.cfg.id
let view t = t.view
let executed_count t = Host.executed_count t.host
let last_executed_counter t = t.last_exec_counter
let executed_log t = List.rev t.history
let app_digest t = Host.app_digest t.host

(* Only the disk, the platform (hardware counters, sealing secret) and the
   USIG (trusted, persistent) survive a crash. *)
let crash t = Host.crash t.host
let is_crashed t = Host.is_crashed t.host
let set_byzantine t mode = t.byz <- mode

(* ----- restart with rollback-protected recovery ----- *)

let restart t =
  let prior = t.history in
  Host.restart t.host
    ~wipe:(fun () ->
      (* The process image is gone: wipe all volatile state back to
         genesis before consulting the sealed checkpoint. *)
      t.view <- 0;
      Array.iteri (fun i _ -> t.windows.(i) <- Usig.Window.create ()) t.windows;
      Hashtbl.reset t.holdback;
      t.order <- [];
      Hashtbl.reset t.by_counter;
      Votes.reset t.pending_commits;
      t.executed_upto <- 0;
      t.last_exec_counter <- 0L;
      t.exec_index <- 0;
      t.history <- [];
      Votes.reset t.checkpoints;
      Votes.reset t.viewchanges;
      Hashtbl.reset t.snapshots;
      Hashtbl.reset t.exec_index_at;
      t.stable_proof <- None;
      Catchup.reset t.sync)
    ~read:(fun r ->
      let view = R.varint r in
      let exec_index = R.varint r in
      let last_exec_counter = R.u64 r in
      ((view, exec_index, last_exec_counter), R.bytes r))
    ~restore:(fun (view, exec_index, last_exec_counter) _ ->
      t.view <- view;
      t.exec_index <- exec_index;
      t.last_exec_counter <- last_exec_counter;
      t.history <- List.filter (fun (i, _) -> i <= Int64.of_int exec_index) prior)

let is_recovering t = Host.is_recovering t.host
let recovered t = Host.recovered t.host
let recovery_alerts t = Host.recovery_alerts t.host
let persisted t = Host.persisted t.host
let tamper_counter t name = Host.tamper_counter t.host name
