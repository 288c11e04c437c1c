(* The rollback-protected ledger and its follower replicas.

   Four layers, mirroring the subsystem's structure: (1) the Ledger
   record stream driven directly — append/seal/compact/recover
   roundtrips; (2) the crash-consistency torture sweep — a crash armed
   at every write index of a segment-rotating, compacting run (clean and
   torn variants), recovery asserting no committed entry is lost and
   that rollbacks (served-back history, wiped counters, mid-stream
   corruption) are refused loudly; (3) QCheck properties — compaction
   never drops coverage above the certified checkpoint, and replaying
   base + surviving entries reproduces the exact pre-compaction state
   digest; (4) the live system — follower replicas serving vouched
   reads under the 95/5 mix, the ledger-counter rollback refusal through
   a real crash/tamper/restart, the detector's follower-straggler rule,
   the bench_gate regression semantics, and the storage-off
   bit-identity guarantee. *)

module H = Splitbft_harness
module Cluster = H.Cluster
module Workload = H.Workload
module Safety = H.Safety
module Detector = H.Detector
module Bench_gate = H.Bench_gate
module Proto = Splitbft_proto
module Ledger = Splitbft_storage.Ledger
module Entry = Splitbft_storage.Entry
module Disk = Splitbft_storage.Disk
module Follower = Splitbft_storage.Follower
module Sha256 = Splitbft_crypto.Sha256
module Registry = Splitbft_obs.Registry
module Json = Splitbft_obs.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ----- a trusted-services stand-in: reversible seal, counter ref ----- *)

let seal_prefix = "SEALED|"

let seal blob = seal_prefix ^ blob

let unseal blob =
  let p = String.length seal_prefix in
  if String.length blob >= p && String.sub blob 0 p = seal_prefix then
    Ok (String.sub blob p (String.length blob - p))
  else Error "not sealed"

let make_counter () =
  let c = ref 0L in
  ((fun () -> c := Int64.succ !c; !c), c)

let digest_of seq = Sha256.digest (Printf.sprintf "batch-%d" seq)
let ops_of seq = Printf.sprintf "ops-%d" seq

(* State model for the replay property: a running digest folded over the
   applied op payloads, the same shape the certified checkpoint pins. *)
let fold_state st ops = Sha256.digest (st ^ "|" ^ ops)

(* CI uploads these on failure (same pattern as the chaos/detect
   counterexamples): the surviving record stream of a failing torture
   case, and the flight recording of a failing live recovery, written
   under $STORAGE_ARTIFACT_DIR. *)
let artifact_dir () = Sys.getenv_opt "STORAGE_ARTIFACT_DIR"

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    ignore (Sys.command (Filename.quote_command "mkdir" [ "-p"; dir ]))

let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.init (String.length s) (String.get s)))

let dump_ledger_artifact ~name records =
  match artifact_dir () with
  | None -> ()
  | Some dir ->
    ensure_dir dir;
    let path = Filename.concat dir (name ^ ".ledger.txt") in
    (try
       let oc = open_out path in
       output_string oc "splitbft-ledger-dump v1\n";
       List.iter (fun (tag, data) -> Printf.fprintf oc "record %s %s\n" tag (hex data)) records;
       close_out oc;
       Printf.eprintf "storage: wrote failing record stream to %s\n%!" path
     with Sys_error e -> Printf.eprintf "storage: could not write artifact: %s\n%!" e)

let dump_flight_artifact ~name flight =
  match artifact_dir () with
  | None -> ()
  | Some dir ->
    ensure_dir dir;
    let path = Filename.concat dir (name ^ ".flight.txt") in
    (try
       Splitbft_obs.Flight.save ~path flight;
       Printf.eprintf "storage: wrote flight recording to %s\n%!" path
     with Sys_error e -> Printf.eprintf "storage: could not write artifact: %s\n%!" e)

(* ----- (1) ledger roundtrips ----- *)

let test_ledger_append_seal_recover () =
  let led = Ledger.create ~segment_entries:3 in
  let bump, counter = make_counter () in
  let records = ref [] in
  for seq = 1 to 8 do
    records :=
      !records
      @ Ledger.append led ~seal ~counter:bump ~seq ~digest:(digest_of seq)
          ~ops:(ops_of seq)
  done;
  checki "eight entries" 8 (Ledger.last_seq led);
  (* 8 entries over 3-entry segments: seals at 3 and 6, 2 open. *)
  checki "two sealed segments" 2 (List.length (Ledger.sealed_segments led));
  checki "records = entries + seals" 10 (List.length !records);
  match Ledger.recover ~segment_entries:3 ~counter:!counter ~unseal !records with
  | Error e -> Alcotest.failf "clean recovery refused: %s" e
  | Ok r ->
    checkb "no torn tail" false r.Ledger.torn_tail;
    checki "all entries back" 8 (List.length r.Ledger.entries);
    checks "chain continues" (Ledger.chain led) (Ledger.chain r.Ledger.ledger);
    checki "segments back" 2 (List.length (Ledger.sealed_segments r.Ledger.ledger));
    (* Appending past recovery continues the same chain. *)
    let recs = Ledger.append r.Ledger.ledger ~seal ~counter:bump ~seq:9 ~digest:(digest_of 9) ~ops:(ops_of 9) in
    checki "rotation at 9" 2 (List.length recs)

let test_ledger_append_idempotent () =
  let led = Ledger.create ~segment_entries:4 in
  let bump, _ = make_counter () in
  ignore (Ledger.append led ~seal ~counter:bump ~seq:1 ~digest:(digest_of 1) ~ops:(ops_of 1));
  checkb "duplicate skipped" true
    (Ledger.append led ~seal ~counter:bump ~seq:1 ~digest:(digest_of 1) ~ops:(ops_of 1) = []);
  checki "still one entry" 1 (Ledger.last_seq led)

let test_ledger_compact_drops_covered_only () =
  let led = Ledger.create ~segment_entries:3 in
  let bump, _ = make_counter () in
  for seq = 1 to 10 do
    ignore (Ledger.append led ~seal ~counter:bump ~seq ~digest:(digest_of seq) ~ops:(ops_of seq))
  done;
  (* Segments 1-3, 4-6, 7-9 sealed; stable=7 covers only the first two. *)
  let recs = Ledger.compact led ~stable:7 ~state_digest:"SD" ~seal ~counter:bump in
  checki "base + cut" 2 (List.length recs);
  checki "floor at covered boundary" 6 (Ledger.floor led);
  checki "uncovered segment kept" 1 (List.length (Ledger.sealed_segments led));
  checkb "nothing more to drop" true
    (Ledger.compact led ~stable:7 ~state_digest:"SD" ~seal ~counter:bump = [])

(* ----- (2) crash-consistency torture sweep ----- *)

(* One segment-rotating, compacting run driven through the crash-injecting
   Disk: 14 appends over 3-entry segments, a compaction (stable = 6)
   after seq 9.  Returns the surviving records, the platform counter at
   the crash, and the committed prefix (seqs whose entry record write
   returned true — the durability the recovery sweep must preserve). *)
let torture_run ~crash_at ~torn =
  let disk = Disk.create () in
  (match crash_at with
  | Some at -> Disk.arm_crash disk ~at ~torn
  | None -> ());
  let led = Ledger.create ~segment_entries:3 in
  let bump, counter = make_counter () in
  let committed = ref [] in
  let alive = ref true in
  (* An entry is durable once its own record write returns — a lost
     segment-seal write afterwards kills the host but not the entry. *)
  let persist recs =
    List.for_all
      (fun (tag, data) ->
        let ok = Disk.write disk ~tag data in
        (if ok && String.equal tag Ledger.entry_tag then
           match Entry.seq_of_record data with
           | Some s -> committed := s :: !committed
           | None -> ());
        ok)
      recs
  in
  let seq = ref 1 in
  while !alive && !seq <= 14 do
    let s = !seq in
    let recs = Ledger.append led ~seal ~counter:bump ~seq:s ~digest:(digest_of s) ~ops:(ops_of s) in
    if not (persist recs) then alive := false;
    if !alive && s = 9 then
      if not (persist (Ledger.compact led ~stable:6 ~state_digest:"SD@6" ~seal ~counter:bump))
      then alive := false;
    incr seq
  done;
  (Disk.records disk, !counter, List.rev !committed)

let torture_total_writes () =
  let disk = Disk.create () in
  let led = Ledger.create ~segment_entries:3 in
  let bump, _ = make_counter () in
  for s = 1 to 14 do
    List.iter (fun (tag, data) -> ignore (Disk.write disk ~tag data))
      (Ledger.append led ~seal ~counter:bump ~seq:s ~digest:(digest_of s) ~ops:(ops_of s));
    if s = 9 then
      List.iter (fun (tag, data) -> ignore (Disk.write disk ~tag data))
        (Ledger.compact led ~stable:6 ~state_digest:"SD@6" ~seal ~counter:bump)
  done;
  Disk.write_count disk

let test_torture_crash_every_write () =
  let total = torture_total_writes () in
  checkb "sweep is non-trivial" true (total >= 18);
  List.iter
    (fun torn ->
      for at = 0 to total - 1 do
        let records, counter, committed = torture_run ~crash_at:(Some at) ~torn in
        let where =
          Printf.sprintf "crash at write %d (%s)" at
            (match torn with None -> "clean" | Some k -> Printf.sprintf "torn %dB" k)
        in
        let slug =
          Printf.sprintf "torture-at%d-%s" at
            (match torn with None -> "clean" | Some k -> Printf.sprintf "torn%d" k)
        in
        match Ledger.recover ~segment_entries:3 ~counter ~unseal records with
        | Error e ->
          dump_ledger_artifact ~name:slug records;
          Alcotest.failf "%s: genuine crash refused: %s" where e
        | Ok r ->
          let recovered = List.map (fun e -> e.Entry.seq) r.Ledger.entries in
          let floor = Ledger.floor r.Ledger.ledger in
          if
            List.exists (fun s -> not (s <= floor || List.mem s recovered)) committed
            || List.exists (fun s -> not (List.mem s committed)) recovered
          then dump_ledger_artifact ~name:slug records;
          (* No committed entry lost: every durably persisted entry is
             either above the recovered floor and replayed, or below it
             and covered by the certified base. *)
          List.iter
            (fun s ->
              checkb
                (Printf.sprintf "%s: committed seq %d survives" where s)
                true
                (s <= floor || List.mem s recovered))
            committed;
          (* ... and nothing is invented. *)
          List.iter
            (fun s ->
              checkb
                (Printf.sprintf "%s: recovered seq %d was committed" where s)
                true (List.mem s committed))
            recovered
      done)
    [ None; Some 1; Some 7 ]

let test_torture_rollback_refused () =
  (* Full run, then the host serves back a prefix missing the two newest
     sealed artifacts: the counter binding must catch it. *)
  let records, counter, _ = torture_run ~crash_at:None ~torn:None in
  let upto tag_stop =
    let rec go acc = function
      | [] -> List.rev acc
      | (tag, _) :: _ when tag = tag_stop -> List.rev acc
      | r :: rest -> go (r :: acc) rest
    in
    go [] records
  in
  (* Everything before the 4-9 rotation: two counter bumps behind. *)
  let old = upto (Ledger.seal_tag 6) in
  (match Ledger.recover ~segment_entries:3 ~counter ~unseal old with
  | Ok _ -> Alcotest.fail "rolled-back ledger accepted"
  | Error e -> checkb "refusal names the rollback" true (contains ~sub:"rollback detected" e))

let test_torture_midstream_corruption_refused () =
  let records, counter, _ = torture_run ~crash_at:None ~torn:None in
  let flip_at i =
    List.mapi
      (fun j (tag, data) ->
        if i = j then
          (tag, String.mapi (fun k c -> if k = String.length data / 2 then Char.chr (Char.code c lxor 0x40) else c) data)
        else (tag, data))
      records
  in
  (* Flip a byte inside an entry record above the compaction floor and
     before the tail: that is live history and must be refused. *)
  (match Ledger.recover ~segment_entries:3 ~counter ~unseal (flip_at (List.length records - 2)) with
  | Ok _ -> Alcotest.fail "mid-stream corruption accepted"
  | Error e -> checkb "refused as tampering" true (contains ~sub:"tampered" e));
  (* A flip below the floor hits history the certified base already
     covers — recovery skips it rather than refusing. *)
  match Ledger.recover ~segment_entries:3 ~counter ~unseal (flip_at 2) with
  | Ok r -> checki "floor unchanged" 6 (Ledger.floor r.Ledger.ledger)
  | Error e -> Alcotest.failf "covered corruption refused: %s" e

let test_torture_torn_tail_truncated () =
  (* Torn final record: recovery succeeds, flags the truncation, and the
     torn entry (whose write never returned) is simply absent. *)
  let total = torture_total_writes () in
  let records, counter, committed = torture_run ~crash_at:(Some (total - 1)) ~torn:(Some 5) in
  match Ledger.recover ~segment_entries:3 ~counter ~unseal records with
  | Error e -> Alcotest.failf "torn tail refused: %s" e
  | Ok r ->
    checkb "torn tail detected" true r.Ledger.torn_tail;
    let last_committed = List.fold_left max 0 committed in
    checkb "committed prefix intact" true
      (List.for_all
         (fun s -> s <= Ledger.floor r.Ledger.ledger || List.exists (fun e -> e.Entry.seq = s) r.Ledger.entries)
         committed);
    checkb "torn entry truncated" true
      (not (List.exists (fun e -> e.Entry.seq > last_committed) r.Ledger.entries))

(* ----- (3) QCheck: compaction coverage and replay ----- *)

(* Host-side GC, exactly the broker's rule: on a cut marker drop entry
   records at or below the cut and seal headers ending at or below it;
   keep the newest base/cut only. *)
let gc_records records =
  let cut =
    List.fold_left
      (fun acc (tag, data) ->
        if String.equal tag Ledger.cut_tag then
          max acc (Option.value ~default:0 (int_of_string_opt data))
        else acc)
      0 records
  in
  let newest_base =
    List.fold_left
      (fun acc (tag, data) ->
        if String.equal tag Ledger.base_tag then Some data else acc)
      None records
  in
  let kept =
    List.filter
      (fun (tag, data) ->
        if String.equal tag Ledger.entry_tag then
          match Entry.seq_of_record data with Some s -> s > cut | None -> true
        else
          match Ledger.seal_tag_seq tag with
          | Some last -> last > cut
          | None -> false (* bases and cuts re-appended below *))
      records
  in
  (match newest_base with Some b -> [ (Ledger.base_tag, b) ] | None -> [])
  @ (if cut > 0 then [ (Ledger.cut_tag, string_of_int cut) ] else [])
  @ kept

let ledger_shape =
  QCheck.(triple (int_range 1 6) (int_range 0 48) (int_range 0 56))

(* Append [n] entries through a fresh ledger, tracking the model state
   digest, then compact at [stable].  Returns the full record stream,
   the platform counter, and the model's final state digest. *)
let drive ~segment_entries ~n ~stable =
  let led = Ledger.create ~segment_entries in
  let bump, counter = make_counter () in
  let records = ref [] in
  let state = ref "init" in
  let state_at_stable = ref "init" in
  for seq = 1 to n do
    records :=
      !records
      @ Ledger.append led ~seal ~counter:bump ~seq ~digest:(digest_of seq) ~ops:(ops_of seq);
    state := fold_state !state (ops_of seq);
    if seq = stable then state_at_stable := !state
  done;
  if stable > n then state_at_stable := !state;
  let base = Ledger.compact led ~stable ~state_digest:!state_at_stable ~seal ~counter:bump in
  (led, !records @ base, !counter, !state)

let prop_compaction_never_drops_uncovered =
  QCheck.Test.make ~name:"compaction keeps every segment above the stable checkpoint"
    ~count:300 ledger_shape (fun (segment_entries, n, stable) ->
      let led, records, counter, _ = drive ~segment_entries ~n ~stable in
      if Ledger.floor led > stable then
        QCheck.Test.fail_reportf "floor %d above stable %d" (Ledger.floor led) stable;
      List.iter
        (fun sg ->
          if sg.Ledger.sg_last <= stable then
            QCheck.Test.fail_reportf "segment ending at %d survived compaction at stable %d"
              sg.Ledger.sg_last stable)
        (Ledger.sealed_segments led);
      (* After host-side GC, every entry above the stable checkpoint is
         still recoverable: compaction (plus the GC it licenses) never
         touches them. *)
      match Ledger.recover ~segment_entries ~counter ~unseal (gc_records records) with
      | Error e -> QCheck.Test.fail_reportf "post-GC recovery refused: %s" e
      | Ok r ->
        let got = List.map (fun e -> e.Entry.seq) r.Ledger.entries in
        for s = stable + 1 to n do
          if not (List.mem s got) then
            QCheck.Test.fail_reportf "entry %d above stable %d lost (se=%d n=%d)" s stable
              segment_entries n
        done;
        true)

let prop_replay_reproduces_state_digest =
  QCheck.Test.make
    ~name:"replaying base + surviving entries reproduces the pre-compaction state digest"
    ~count:300 ledger_shape (fun (segment_entries, n, stable) ->
      let _, records, counter, final_state = drive ~segment_entries ~n ~stable in
      match Ledger.recover ~segment_entries ~counter ~unseal (gc_records records) with
      | Error e -> QCheck.Test.fail_reportf "post-GC recovery refused: %s" e
      | Ok r ->
        (* Start from the certified digest the base recorded (the state at
           [rec_stable]) and apply only the surviving entries past it —
           exactly what a recovering Execution or bootstrapping follower
           does. *)
        let start, from =
          if Ledger.floor r.Ledger.ledger > 0 then
            (r.Ledger.rec_state_digest, r.Ledger.rec_stable)
          else ("init", 0)
        in
        let replayed =
          List.fold_left
            (fun st (e : Entry.t) -> if e.seq > from then fold_state st e.ops else st)
            start r.Ledger.entries
        in
        if not (String.equal replayed final_state) then
          QCheck.Test.fail_reportf "replay diverged (se=%d n=%d stable=%d)" segment_entries
            n stable;
        true)

(* ----- (4) the live system ----- *)

let storage_proto ?(segment_entries = 8) () = Proto.Proto_splitbft.make ~segment_entries ()

let storage_params ?(followers = 2) ?(seed = 91L) () =
  { (Cluster.default_params (storage_proto ())) with
    Cluster.checkpoint_interval = 16;
    seed;
    followers }

let reads_spec =
  { Workload.Reads.default_spec with
    Workload.Reads.clients = 4;
    warmup_us = 100_000.0;
    duration_us = 300_000.0 }

let test_followers_serve_vouched_reads () =
  let c = Cluster.create (storage_params ()) in
  let scanner = Safety.install_scanner c in
  let r = Workload.Reads.run c reads_spec in
  checkb "reads served" true (r.Workload.Reads.reads_ok > 0);
  checkb "writes committed" true (r.Workload.Reads.writes_ok > 0);
  checki "no wrong reads" 0 r.Workload.Reads.wrong_reads;
  checkb "followers applied entries" true
    (List.for_all (fun fo -> Follower.entries_applied fo > 0) (Cluster.followers c));
  checkb "follower logs consistent" true
    (Safety.check_followers c ~honest:[ 0; 1; 2; 3 ] = Safety.Followers_ok);
  (* The sealed feed and read channel must not leak plaintext. *)
  checki "no canary on the wire" 0 (Safety.network_leaks scanner);
  checki "no canary in storage" 0 (Safety.storage_leaks c ~honest_hosts:[ 0; 1; 2; 3 ])

let test_pbft_plaintext_followers () =
  (* The follower capability is protocol-generic: PBFT publishes a
     plaintext host-level feed, no enclaves involved. *)
  let params =
    { (Cluster.default_params Proto.Proto_pbft.protocol) with
      Cluster.seed = 92L;
      followers = 1 }
  in
  let c = Cluster.create params in
  let r = Workload.Reads.run c reads_spec in
  checkb "reads served" true (r.Workload.Reads.reads_ok > 0);
  checki "no wrong reads" 0 r.Workload.Reads.wrong_reads;
  checkb "follower consistent" true
    (Safety.check_followers c ~honest:[ 0; 1; 2; 3 ] = Safety.Followers_ok)

let test_followers_rejected_without_feed () =
  (* MinBFT publishes no feed; asking for followers is a deployment error. *)
  let params =
    { (Cluster.default_params Proto.Proto_minbft.protocol) with Cluster.followers = 1 }
  in
  checkb "refused" true
    (match Cluster.create params with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* ... as is SplitBFT with the ledger disabled. *)
  let params =
    { (Cluster.default_params Proto.Proto_splitbft.protocol) with Cluster.followers = 1 }
  in
  checkb "refused without ledger" true
    (match Cluster.create params with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ledger_counter_rollback_refused () =
  (* Commit through the ledger, crash a host, wipe its ledger counter,
     restart: the In_ledger recovery handshake must refuse the now
     unbindable sealed segments, halt, and alert — the PR-3 path. *)
  let c = Cluster.create (storage_params ~followers:0 ~seed:93L ()) in
  ignore
    (Workload.run c
       { Workload.default_spec with
         Workload.clients = 2;
         warmup_us = 0.0;
         duration_us = 500_000.0 });
  let n3 = Cluster.node c 3 in
  checkb "ledger records persisted" true
    (List.exists (fun (tag, _) -> Ledger.is_ledger_tag tag) (Cluster.persisted_of n3));
  Cluster.crash_host c 3;
  Cluster.tamper_ledger_counter c 3;
  Cluster.restart_host c 3;
  let e = Cluster.engine c in
  Cluster.run c ~until_us:(Splitbft_sim.Engine.now e +. 400_000.0);
  checkb "restart refused" false (Cluster.recovered_of n3);
  let alerts = Cluster.recovery_alerts_of n3 in
  checkb "alert raised" true (alerts <> []);
  checkb "alert names the ledger" true (List.exists (contains ~sub:"ledger") alerts)

let test_ledger_crash_recover_clean () =
  (* Without tampering, a crashed host replays its persisted ledger and
     rejoins; the second-phase In_ledger handshake must not refuse. *)
  let flight = Splitbft_obs.Flight.create () in
  let c = Cluster.create ~flight (storage_params ~followers:1 ~seed:94L ()) in
  ignore
    (Workload.run c
       { Workload.default_spec with
         Workload.clients = 2;
         warmup_us = 0.0;
         duration_us = 400_000.0 });
  Cluster.crash_host c 2;
  Cluster.restart_host c 2;
  ignore
    (Workload.run c
       { Workload.default_spec with
         Workload.clients = 2;
         warmup_us = 0.0;
         duration_us = 400_000.0 });
  let n2 = Cluster.node c 2 in
  if not (Cluster.recovered_of n2) || Cluster.recovery_alerts_of n2 <> [] then begin
    dump_flight_artifact ~name:"crash-recover" flight;
    dump_ledger_artifact ~name:"crash-recover"
      (List.filter (fun (tag, _) -> Ledger.is_ledger_tag tag) (Cluster.persisted_of n2))
  end;
  checkb "recovered" true (Cluster.recovered_of n2);
  checkb "no refusal" true (Cluster.recovery_alerts_of n2 = []);
  checkb "follower still consistent" true
    (Safety.check_followers c ~honest:[ 0; 1; 2; 3 ] = Safety.Followers_ok)

let test_detector_follower_straggler () =
  (* A follower whose vouched-tip lag exceeds the bound must raise the
     follower-straggler alert.  Stop the follower (freezing its gauges),
     then report a lag beyond the bound the way the live follower would,
     and let the detector sample it. *)
  let c = Cluster.create (storage_params ~followers:1 ~seed:95L ()) in
  let d = Detector.attach c in
  ignore
    (Workload.run c
       { Workload.default_spec with
         Workload.clients = 2;
         warmup_us = 0.0;
         duration_us = 300_000.0 });
  checkb "healthy follower: no alert" true
    (not (List.mem "follower-straggler" (Detector.fired d)));
  let fo = Cluster.follower c 0 in
  Follower.stop fo;
  let g =
    Registry.gauge (Cluster.obs c)
      ~labels:[ ("follower", string_of_int (Follower.fid fo)) ]
      "follower.lag"
  in
  Registry.set g (float_of_int ((Cluster.params c).Cluster.follower_lag_bound + 100));
  let e = Cluster.engine c in
  Cluster.run c ~until_us:(Splitbft_sim.Engine.now e +. 600_000.0);
  checkb "straggler alert fired" true (List.mem "follower-straggler" (Detector.fired d));
  checkb "accuses the follower" true
    (List.mem "follower-straggler" (Detector.fired_at d ~replica:(Follower.fid fo)))

let test_storage_off_bit_identical () =
  (* segment_entries = 0 must be indistinguishable from the pre-ledger
     protocol: same executed history, same metrics snapshot, and not a
     single ledger record persisted. *)
  let run proto =
    let c =
      Cluster.create { (Cluster.default_params proto) with Cluster.seed = 96L }
    in
    ignore
      (Workload.run c
         { Workload.default_spec with
           Workload.clients = 2;
           warmup_us = 0.0;
           duration_us = 300_000.0 });
    let logs = List.map Cluster.executed_log_of (Cluster.nodes c) in
    let persisted = List.concat_map Cluster.persisted_of (Cluster.nodes c) in
    (logs, Json.to_string (Registry.to_json (Cluster.obs c)), persisted)
  in
  let logs_off, obs_off, persisted_off = run (Proto.Proto_splitbft.make ~segment_entries:0 ()) in
  let logs_def, obs_def, _ = run Proto.Proto_splitbft.protocol in
  checkb "ledger fully disabled" true
    (not (List.exists (fun (tag, _) -> Ledger.is_ledger_tag tag) persisted_off));
  checkb "same executed history" true (logs_off = logs_def);
  checks "bit-identical metrics snapshot" obs_def obs_off

(* ----- bench_gate: the missing-metric hard failure ----- *)

let doc_of artifacts = Json.Obj [ ("artifacts", Json.Obj artifacts) ]

let point ?tput ?ecall ?p99 label =
  let f name v = Option.map (fun x -> (name, Json.Float x)) v in
  Json.Obj
    (("label", Json.Str label)
    :: List.filter_map Fun.id
         [ f "throughput_ops" tput; f "ecall_us_per_request" ecall; f "p99_latency_us" p99 ])

let gate ~baseline ~current =
  match
    Bench_gate.check ~baseline_name:"base.json" ~current_name:"cur.json" ~baseline ~current ()
  with
  | Error e -> Alcotest.failf "gate errored: %s" e
  | Ok report -> report

let test_gate_clean_pass () =
  let doc =
    doc_of
      [ ("hotpath",
         Json.List
           [ point ~tput:1000.0 ~ecall:5.0 "batch200"; point ~tput:990.0 "batch200-detect" ]) ]
  in
  let r = gate ~baseline:doc ~current:doc in
  checki "no failures" 0 r.Bench_gate.failures;
  checkb "checked" true (r.Bench_gate.checked > 0)

let test_gate_regression_fails () =
  let baseline = doc_of [ ("lanes", Json.List [ point ~tput:1000.0 "l4w4b200" ]) ] in
  let current = doc_of [ ("lanes", Json.List [ point ~tput:500.0 "l4w4b200" ]) ] in
  let r = gate ~baseline ~current in
  checki "one failure" 1 r.Bench_gate.failures

let test_gate_missing_point_fails () =
  let baseline = doc_of [ ("lanes", Json.List [ point ~tput:1000.0 "l4w4b200" ]) ] in
  let current = doc_of [ ("lanes", Json.List [ point ~tput:1000.0 "other" ]) ] in
  let r = gate ~baseline ~current in
  checkb "missing point is a failure" true (r.Bench_gate.failures >= 1);
  checkb "reported as missing" true
    (List.exists
       (fun row -> row.Bench_gate.r_verdict = Bench_gate.Missing_point)
       r.Bench_gate.rows)

let test_gate_missing_metric_fails () =
  (* The regression this PR fixes: a metric the baseline gates that the
     current run no longer reports must be a hard failure. *)
  let baseline =
    doc_of [ ("lanes", Json.List [ point ~tput:1000.0 ~p99:800.0 "l4w4b200" ]) ]
  in
  let current = doc_of [ ("lanes", Json.List [ point ~tput:1000.0 "l4w4b200" ]) ] in
  let r = gate ~baseline ~current in
  checkb "missing metric is a failure" true (r.Bench_gate.failures >= 1);
  checkb "reported as missing metric" true
    (List.exists
       (fun row ->
         match row.Bench_gate.r_verdict with Bench_gate.Missing_metric _ -> true | _ -> false)
       r.Bench_gate.rows)

let test_gate_detect_twin_missing_fails () =
  (* ... and so must the silently-dropped detectors-on twin, which the
     old fallthrough waved through. *)
  let baseline = doc_of [] in
  let current = doc_of [ ("hotpath", Json.List [ point ~tput:1000.0 "batch200" ]) ] in
  let r = gate ~baseline ~current in
  checkb "missing twin is a failure" true (r.Bench_gate.failures >= 1);
  checkb "names the twin" true
    (List.exists
       (fun row ->
         match row.Bench_gate.r_verdict with
         | Bench_gate.Missing_metric what -> contains ~sub:"batch200-detect" what
         | _ -> false)
       r.Bench_gate.rows)

let test_gate_storage_scale () =
  let current ratio =
    doc_of
      [ ("storage",
         Json.List [ point ~tput:10_000.0 "reads-f4"; point ~tput:ratio "read-scale-f4-vs-f0" ]) ]
  in
  let r = gate ~baseline:(doc_of []) ~current:(current 3.5) in
  checki "scale >= 2 passes" 0 r.Bench_gate.failures;
  let r = gate ~baseline:(doc_of []) ~current:(current 1.5) in
  checkb "scale < 2 fails" true (r.Bench_gate.failures >= 1);
  (* A storage artifact without the ratio row is the same silent-pass
     shape as the detect twin: hard failure. *)
  let no_ratio = doc_of [ ("storage", Json.List [ point ~tput:10_000.0 "reads-f4" ]) ] in
  let r = gate ~baseline:(doc_of []) ~current:no_ratio in
  checkb "missing ratio row fails" true (r.Bench_gate.failures >= 1)

let test_gate_fig3a_claim () =
  let current c10 c150 =
    doc_of
      [ ("fig3a",
         Json.List
           (List.map
              (fun (label, tput) ->
                Json.Obj
                  [ ("label", Json.Str label); ("splitbft_throughput_ops", Json.Float tput) ])
              [ ("kvs-c10", c10); ("kvs-c150", c150) ])) ]
  in
  let r = gate ~baseline:(doc_of []) ~current:(current 4000.0 3900.0) in
  checki "150 clients at 97.5% of 10 passes" 0 r.Bench_gate.failures;
  let r = gate ~baseline:(doc_of []) ~current:(current 4000.0 3700.0) in
  checki "150 clients at 92.5% of 10 fails" 1 r.Bench_gate.failures;
  let r = gate ~baseline:(doc_of []) ~current:(doc_of [ ("fig3a", Json.List []) ]) in
  checki "missing points fail" 1 r.Bench_gate.failures

let suites =
  [ ( "storage",
      [ Alcotest.test_case "ledger roundtrip" `Quick test_ledger_append_seal_recover;
        Alcotest.test_case "append idempotent" `Quick test_ledger_append_idempotent;
        Alcotest.test_case "compact covered only" `Quick test_ledger_compact_drops_covered_only;
        Alcotest.test_case "torture: crash every write" `Quick test_torture_crash_every_write;
        Alcotest.test_case "torture: rollback refused" `Quick test_torture_rollback_refused;
        Alcotest.test_case "torture: corruption refused" `Quick
          test_torture_midstream_corruption_refused;
        Alcotest.test_case "torture: torn tail" `Quick test_torture_torn_tail_truncated;
        QCheck_alcotest.to_alcotest prop_compaction_never_drops_uncovered;
        QCheck_alcotest.to_alcotest prop_replay_reproduces_state_digest;
        Alcotest.test_case "followers serve reads" `Quick test_followers_serve_vouched_reads;
        Alcotest.test_case "pbft plaintext followers" `Quick test_pbft_plaintext_followers;
        Alcotest.test_case "followers need a feed" `Quick test_followers_rejected_without_feed;
        Alcotest.test_case "ledger rollback refused" `Quick test_ledger_counter_rollback_refused;
        Alcotest.test_case "ledger crash recovery" `Quick test_ledger_crash_recover_clean;
        Alcotest.test_case "follower straggler alert" `Quick test_detector_follower_straggler;
        Alcotest.test_case "storage off bit-identical" `Quick test_storage_off_bit_identical;
        Alcotest.test_case "gate clean pass" `Quick test_gate_clean_pass;
        Alcotest.test_case "gate regression" `Quick test_gate_regression_fails;
        Alcotest.test_case "gate missing point" `Quick test_gate_missing_point_fails;
        Alcotest.test_case "gate missing metric" `Quick test_gate_missing_metric_fails;
        Alcotest.test_case "gate missing detect twin" `Quick test_gate_detect_twin_missing_fails;
        Alcotest.test_case "gate storage scale" `Quick test_gate_storage_scale;
        Alcotest.test_case "gate fig3a claim" `Quick test_gate_fig3a_claim ] ) ]
