module Engine = Splitbft_sim.Engine
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs
module Stats = Splitbft_util.Stats
module Rng = Splitbft_util.Rng
module Zipf = Splitbft_util.Zipf
module Lru = Splitbft_util.Lru.Make (Splitbft_util.Htbl.Int)

type spec = {
  clients : int;
  window : int;
  warmup_us : float;
  duration_us : float;
  payload_size : int;
  ready_quorum : int option;
}

let default_spec =
  { clients = 10;
    window = 1;
    warmup_us = 500_000.0;
    duration_us = 2_000_000.0;
    payload_size = 10;
    ready_quorum = None }

type result = {
  throughput_ops : float;
  mean_latency_us : float;
  p50_latency_us : float;
  p99_latency_us : float;
  completed : int;
  completed_total : int;
  wrong_results : int;
  clients_ready : int;
}

let canary = "S3CRET"

(* A [payload_size]-byte value carrying the canary prefix. *)
let value ~payload_size ~client ~i =
  let base = Printf.sprintf "%s%d:%d" canary client i in
  if String.length base >= payload_size then String.sub base 0 payload_size
  else base ^ String.make (payload_size - String.length base) 'x'

let op_for (cluster : Cluster.t) ~client ~i ~payload_size =
  match (Cluster.params cluster).Cluster.app with
  | Cluster.App_kvs ->
    (* PUT updating a bounded key set, as in the paper's evaluation. *)
    ( Kvs.encode_op (Kvs.Put (Printf.sprintf "key-%d-%d" client (i mod 64),
                              value ~payload_size ~client ~i)),
      `Expect Kvs.ok )
  | Cluster.App_ledger -> (value ~payload_size ~client ~i, `Any)
  | Cluster.App_counter -> (Splitbft_app.Counter_app.increment_op, `Any)

let run ?(at_warmup = fun () -> ()) cluster spec =
  let engine = Cluster.engine cluster in
  let clients =
    Cluster.make_clients cluster ~count:spec.clients ~window:spec.window
      ?ready_quorum:spec.ready_quorum ()
  in
  let t_warm = Engine.now engine +. spec.warmup_us in
  let t_end = t_warm +. spec.duration_us in
  let lat = Stats.create () in
  let completed_in_window = ref 0 in
  let completed_total = ref 0 in
  let wrong = ref 0 in
  let ready = ref 0 in
  List.iteri
    (fun ci client ->
      let i = ref 0 in
      let rec next () =
        incr i;
        let op, expect = op_for cluster ~client:ci ~i:!i ~payload_size:spec.payload_size in
        Client.submit client ~op ~on_result:(fun ~latency_us ~result ->
            incr completed_total;
            let now = Engine.now engine in
            (match expect with
            | `Expect e ->
              if not (String.equal result e) then incr wrong
            | `Any -> if String.equal result "CORRUPT" then incr wrong);
            if now >= t_warm && now < t_end then begin
              incr completed_in_window;
              Stats.add lat latency_us
            end;
            next ())
      in
      Client.start client ~on_ready:(fun () ->
          incr ready;
          for _ = 1 to spec.window do
            next ()
          done))
    clients;
  ignore (Engine.schedule engine ~delay:(t_warm -. Engine.now engine) ~label:"warmup-end"
            at_warmup);
  Engine.run ~until:t_end engine;
  List.iter Client.stop clients;
  let reg = Engine.obs engine in
  let module Registry = Splitbft_obs.Registry in
  Registry.set_summary reg "workload.latency_us" lat;
  let set name v = Registry.set (Registry.gauge reg name) v in
  let throughput = float_of_int !completed_in_window /. (spec.duration_us /. 1_000_000.0) in
  set "workload.throughput_ops" throughput;
  set "workload.completed" (float_of_int !completed_in_window);
  set "workload.completed_total" (float_of_int !completed_total);
  set "workload.wrong_results" (float_of_int !wrong);
  set "workload.clients_ready" (float_of_int !ready);
  { throughput_ops = throughput;
    mean_latency_us = Stats.mean lat;
    p50_latency_us = Stats.median lat;
    p99_latency_us = Stats.percentile lat 99.0;
    completed = !completed_in_window;
    completed_total = !completed_total;
    wrong_results = !wrong;
    clients_ready = !ready }

(* ===== read-heavy mix against follower replicas =====

   The read-scaling experiment: closed-loop drivers issue a Zipfian
   95/5 read/write mix.  Writes always take the quorum path through a
   protocol-matched client.  Reads go to the follower replicas
   (round-robin, one outstanding read per driver, retried on loss) when
   the cluster has any — or through the same consensus client when it
   does not, which is the 0-follower baseline the scaling ratio is
   measured against.  Read throughput counts only reads actually served
   from follower state; STALE/REFUSED replies are tallied separately. *)

module Reads = struct
  module Message = Splitbft_types.Message
  module Addr = Splitbft_types.Addr
  module Network = Splitbft_sim.Network
  module Proto = Splitbft_proto.Protocol_intf
  module Follower = Splitbft_storage.Follower
  module Entry = Splitbft_storage.Entry

  type spec = {
    clients : int;
    warmup_us : float;
    duration_us : float;
    read_ratio : float;
    zipf_s : float;
    keyspace : int;
    payload_size : int;
    read_retry_us : float;
    ready_quorum : int option;
  }

  let default_spec =
    { clients = 8;
      warmup_us = 300_000.0;
      duration_us = 1_000_000.0;
      read_ratio = 0.95;
      zipf_s = 0.99;
      keyspace = 256;
      payload_size = 10;
      read_retry_us = 100_000.0;
      ready_quorum = None }

  type result = {
    read_ops : float;  (** served reads per second inside the window *)
    write_ops : float;
    reads_ok : int;
    writes_ok : int;
    stale_reads : int;
    refused_reads : int;
    wrong_reads : int;
    rd_mean_latency_us : float;
    rd_p99_latency_us : float;
  }

  (* Read drivers answer at their own client addresses, disjoint from the
     consensus clients' ids (0 .. clients-1). *)
  let read_client_base = 500

  let run ?(at_warmup = fun () -> ()) cluster spec =
    let engine = Cluster.engine cluster in
    let net = Cluster.network cluster in
    let followers = Array.of_list (Cluster.followers cluster) in
    let nf = Array.length followers in
    let sealed =
      match Proto.followers (Cluster.params cluster).Cluster.protocol with
      | Proto.Follower_feed { sealed } -> sealed
      | Proto.No_followers -> false
    in
    let writers =
      Cluster.make_clients cluster ~count:spec.clients ~window:1
        ?ready_quorum:spec.ready_quorum ()
    in
    let t_warm = Engine.now engine +. spec.warmup_us in
    let t_end = t_warm +. spec.duration_us in
    let rlat = Stats.create () in
    let reads_ok = ref 0 and writes_ok = ref 0 in
    let stale = ref 0 and refused = ref 0 and wrong = ref 0 in
    let in_window () =
      let now = Engine.now engine in
      now >= t_warm && now < t_end
    in
    let note_read ~latency_us outcome =
      (match outcome with
      | `Ok -> if in_window () then begin incr reads_ok; Stats.add rlat latency_us end
      | `Stale -> incr stale
      | `Refused -> incr refused
      | `Wrong -> incr wrong)
    in
    List.iteri
      (fun ci writer ->
        let rid = read_client_base + ci in
        let rng =
          Rng.of_key (Engine.seed engine) ~domain:"reads-driver"
            ~stream:(Int64.of_int ci)
        in
        let zipf = Zipf.create ~s:spec.zipf_s ~n:spec.keyspace () in
        let ts = ref 0L in
        let i = ref 0 in
        (* (outstanding ts, issue time, continuation) of the in-flight
           follower read; replies for any other ts are stale duplicates. *)
        let pending = ref None in
        let issue_read ~key k =
          ts := Int64.add !ts 1L;
          let my_ts = !ts in
          let plain = Kvs.encode_op (Kvs.Get key) in
          let op =
            if sealed then Entry.seal_read_op ~client:rid ~ts:my_ts plain else plain
          in
          let issued_at = Engine.now engine in
          pending := Some (my_ts, issued_at, k);
          let payload =
            Message.encode
              (Message.Read_request { rr_client = rid; rr_ts = my_ts; rr_op = op })
          in
          (* Round-robin over the followers; a retry moves to the next one,
             so one dead follower only costs latency, not liveness. *)
          let rec send attempt =
            let fo = followers.((ci + Int64.to_int my_ts + attempt) mod nf) in
            Network.send net ~src:(Addr.client rid)
              ~dst:(Addr.follower (Follower.fid fo))
              payload;
            ignore
              (Engine.schedule engine ~delay:spec.read_retry_us ~label:"reads:retry"
                 (fun () ->
                   match !pending with
                   | Some (ts', _, _)
                     when Int64.equal ts' my_ts && Engine.now engine < t_end ->
                     send (attempt + 1)
                   | _ -> ()))
          in
          send 0
        in
        Network.register net (Addr.client rid) (fun ~src:_ payload ->
            match Message.decode payload with
            | Ok (Message.Read_reply rd) -> (
              match !pending with
              | Some (ts', issued_at, k) when Int64.equal rd.rd_ts ts' ->
                pending := None;
                let latency_us = Engine.now engine -. issued_at in
                let outcome =
                  if String.equal rd.rd_result Follower.stale_result then `Stale
                  else if String.equal rd.rd_result Follower.bad_op_result then
                    `Refused
                  else if sealed then
                    match Entry.open_read_result ~client:rid ~ts:ts' rd.rd_result with
                    | Ok _ -> `Ok
                    | Error _ -> `Wrong
                  else `Ok
                in
                note_read ~latency_us outcome;
                if Engine.now engine < t_end then k ()
              | _ -> ())
            | Ok _ | Error _ -> ());
        let rec step () =
          if Engine.now engine < t_end then begin
            incr i;
            let is_read = Rng.float rng 1.0 < spec.read_ratio in
            let key = Printf.sprintf "key-%d" (Zipf.sample zipf rng) in
            if is_read && nf > 0 then issue_read ~key step
            else if is_read then
              (* 0-follower baseline: the read takes the full quorum path. *)
              Client.submit writer ~op:(Kvs.encode_op (Kvs.Get key))
                ~on_result:(fun ~latency_us ~result ->
                  note_read ~latency_us
                    (if String.equal result "CORRUPT" then `Wrong else `Ok);
                  step ())
            else
              Client.submit writer
                ~op:
                  (Kvs.encode_op
                     (Kvs.Put
                        (key, value ~payload_size:spec.payload_size ~client:ci ~i:!i)))
                ~on_result:(fun ~latency_us:_ ~result ->
                  if String.equal result Kvs.ok && in_window () then incr writes_ok;
                  step ())
          end
        in
        Client.start writer ~on_ready:step)
      writers;
    ignore
      (Engine.schedule engine ~delay:(t_warm -. Engine.now engine)
         ~label:"reads:warmup-end" at_warmup);
    Engine.run ~until:t_end engine;
    List.iter Client.stop writers;
    List.iteri
      (fun ci _ -> Network.unregister net (Addr.client (read_client_base + ci)))
      writers;
    let per_sec c = float_of_int c /. (spec.duration_us /. 1e6) in
    let reg = Engine.obs engine in
    let module Registry = Splitbft_obs.Registry in
    Registry.set_summary reg "reads.latency_us" rlat;
    let set name v = Registry.set (Registry.gauge reg name) v in
    set "reads.read_ops" (per_sec !reads_ok);
    set "reads.write_ops" (per_sec !writes_ok);
    set "reads.stale" (float_of_int !stale);
    set "reads.refused" (float_of_int !refused);
    set "reads.wrong" (float_of_int !wrong);
    { read_ops = per_sec !reads_ok;
      write_ops = per_sec !writes_ok;
      reads_ok = !reads_ok;
      writes_ok = !writes_ok;
      stale_reads = !stale;
      refused_reads = !refused;
      wrong_reads = !wrong;
      rd_mean_latency_us = Stats.mean rlat;
      rd_p99_latency_us = Stats.percentile rlat 99.0 }
end

(* ===== open-loop traffic generation =====

   Closed-loop clients resubmit on completion, so offered load tracks
   service capacity and latency never shows queueing.  The open-loop
   generator schedules arrivals from a time-varying arrival process
   regardless of completions: each arrival is stamped, multiplexed onto a
   bounded pool of real (attested) client connections, and its latency is
   measured from ARRIVAL to reply — client-side queueing included — which
   is what makes the saturation knee visible as a latency explosion.

   Simulated identities model millions of distinct end users behind the
   connection pool (the gateway deployment: many users, few attested
   sessions).  Per-identity state is keyed RNG + an op counter, held in a
   bounded LRU so memory never grows with the identity space; an evicted
   identity that returns is re-derived from [Rng.of_key] and continues a
   statistically identical stream. *)

module Open_loop = struct
  type arrival =
    | Poisson
    | Bursty of { peak_factor : float; period_us : float; duty : float }

  type spec = {
    arrival : arrival;
    rate_ops : float;
    warmup_us : float;
    duration_us : float;
    connections : int;
    window : int;
    identities : int;
    identity_cache : int;
    zipf_s : float;
    keyspace : int;
    read_ratio : float;
    payload_size : int;
    ready_quorum : int option;
  }

  let default_spec =
    { arrival = Poisson;
      rate_ops = 2_000.0;
      warmup_us = 500_000.0;
      duration_us = 2_000_000.0;
      connections = 16;
      window = 16;
      identities = 100_000;
      identity_cache = 4_096;
      zipf_s = 0.99;
      keyspace = 4_096;
      read_ratio = 0.5;
      payload_size = 10;
      ready_quorum = None }

  type result = {
    offered_ops : float;
    achieved_ops : float;
    ol_mean_latency_us : float;
    ol_p50_latency_us : float;
    ol_p95_latency_us : float;
    ol_p99_latency_us : float;
    arrivals : int;
    ol_completed : int;
    ol_completed_total : int;
    ol_wrong_results : int;
    backlog_peak : int;
    live_identities_peak : int;
    distinct_identities : int;
    identity_words_peak : int;
  }

  (* ----- pure generator (drivable without a cluster, for tests) ----- *)

  type identity_state = { id_rng : Rng.t; mutable id_ops : int }

  type gen = {
    g_spec : spec;
    g_seed : int64;
    g_app : Cluster.app_kind;
    arrivals_rng : Rng.t;  (* arrival process + identity selection *)
    zipf : Zipf.t;
    idents : identity_state Lru.t;
    mutable live_identities_peak : int;
  }

  let gen ?(app = Cluster.App_kvs) ~seed spec =
    if spec.identities <= 0 then invalid_arg "Open_loop.gen: identities";
    if spec.rate_ops <= 0.0 then invalid_arg "Open_loop.gen: rate_ops";
    (match spec.arrival with
    | Poisson -> ()
    | Bursty { peak_factor; period_us; duty } ->
      if duty <= 0.0 || duty >= 1.0 || period_us <= 0.0 || peak_factor *. duty >= 1.0
      then invalid_arg "Open_loop.gen: bursty shape");
    { g_spec = spec;
      g_seed = seed;
      g_app = app;
      arrivals_rng = Rng.of_key seed ~domain:"openloop-arrivals" ~stream:0L;
      zipf = Zipf.create ~s:spec.zipf_s ~n:spec.keyspace ();
      idents = Lru.create ~capacity:(max 1 spec.identity_cache);
      live_identities_peak = 0 }

  (* Offered rate at virtual time [t].  The bursty process is a square wave
     with the requested mean: [peak_factor * rate] for the [duty] fraction
     of each period, and the complementary low rate otherwise — a
     compressed diurnal cycle. *)
  let rate_at spec t =
    match spec.arrival with
    | Poisson -> spec.rate_ops
    | Bursty { peak_factor; period_us; duty } ->
      let phase = Float.rem t period_us /. period_us in
      if phase < duty then spec.rate_ops *. peak_factor
      else spec.rate_ops *. (1.0 -. (peak_factor *. duty)) /. (1.0 -. duty)

  let interarrival g ~now =
    Rng.exponential g.arrivals_rng ~mean:(1e6 /. rate_at g.g_spec now)

  let identity_state g identity =
    match Lru.find g.idents identity with
    | Some st -> st
    | None ->
      (* Keyed derivation: the identity's op stream depends only on
         (seed, identity) — independent of the connection count and of
         every other identity.  An evicted identity that returns restarts
         that same deterministic stream from the beginning (fresh-session
         semantics): bounded memory, no eviction-history dependence. *)
      let st =
        { id_rng = Rng.of_key g.g_seed ~domain:"identity" ~stream:(Int64.of_int identity);
          id_ops = 0 }
      in
      Lru.add g.idents identity st;
      if Lru.length g.idents > g.live_identities_peak then
        g.live_identities_peak <- Lru.length g.idents;
      st

  (* One arrival: (identity, encoded op, expected result). *)
  let next g =
    let spec = g.g_spec in
    let identity = Rng.int g.arrivals_rng spec.identities in
    let st = identity_state g identity in
    st.id_ops <- st.id_ops + 1;
    let op, expect =
      match g.g_app with
      | Cluster.App_kvs ->
        let key = Printf.sprintf "key-%d" (Zipf.sample g.zipf st.id_rng) in
        if Rng.float st.id_rng 1.0 < spec.read_ratio then
          (Kvs.encode_op (Kvs.Get key), `Any)
        else
          ( Kvs.encode_op
              (Kvs.Put (key, value ~payload_size:spec.payload_size ~client:identity ~i:st.id_ops)),
            `Expect Kvs.ok )
      | Cluster.App_ledger ->
        (value ~payload_size:spec.payload_size ~client:identity ~i:st.id_ops, `Any)
      | Cluster.App_counter -> (Splitbft_app.Counter_app.increment_op, `Any)
    in
    (identity, op, expect)

  let live_identities g = Lru.length g.idents
  let live_identities_peak g = g.live_identities_peak
  let distinct_identities g = Lru.misses g.idents

  let identity_words g = Obj.reachable_words (Obj.repr g.idents)

  (* Digest over the first [n] arrivals of the generator's virtual trace
     (inter-arrival gap, identity, op bytes) — the regression pin for
     reproducible workload generation. *)
  let fingerprint ~seed ?app spec ~n =
    let g = gen ?app ~seed spec in
    let buf = Buffer.create (n * 32) in
    let clock = ref 0.0 in
    for _ = 1 to n do
      let dt = interarrival g ~now:!clock in
      clock := !clock +. dt;
      let identity, op, _ = next g in
      Buffer.add_string buf (Printf.sprintf "%.6f:%d:%s;" dt identity op)
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  (* ----- driving a cluster ----- *)

  let run ?(at_warmup = fun () -> ()) cluster spec =
    let engine = Cluster.engine cluster in
    let g =
      gen ~app:(Cluster.params cluster).Cluster.app
        ~seed:(Engine.seed engine) spec
    in
    let clients =
      Array.of_list
        (Cluster.make_clients cluster ~count:spec.connections ~window:spec.window
           ?ready_quorum:spec.ready_quorum ())
    in
    let t_warm = Engine.now engine +. spec.warmup_us in
    let t_end = t_warm +. spec.duration_us in
    let lat = Stats.create () in
    let arrivals_in_window = ref 0 in
    let completed_in_window = ref 0 in
    let completed_total = ref 0 in
    let submitted = ref 0 in
    let wrong = ref 0 in
    let backlog_peak = ref 0 in
    let words_peak = ref 0 in
    let sample_words () =
      let w = identity_words g in
      if w > !words_peak then words_peak := w
    in
    let arrive () =
      let arrived_at = Engine.now engine in
      let identity, op, expect = next g in
      if arrived_at >= t_warm && arrived_at < t_end then incr arrivals_in_window;
      incr submitted;
      if !submitted mod 4096 = 0 then sample_words ();
      let backlog = !submitted - !completed_total in
      if backlog > !backlog_peak then backlog_peak := backlog;
      let conn = clients.(identity mod spec.connections) in
      (* Latency from ARRIVAL, not from dispatch: when every connection
         window is full the op waits in the client queue, and that wait is
         the open-loop signal. *)
      Client.submit conn ~op ~on_result:(fun ~latency_us:_ ~result ->
          incr completed_total;
          let now = Engine.now engine in
          (match expect with
          | `Expect e -> if not (String.equal result e) then incr wrong
          | `Any -> if String.equal result "CORRUPT" then incr wrong);
          if now >= t_warm && now < t_end then begin
            incr completed_in_window;
            Stats.add lat (now -. arrived_at)
          end)
    in
    (* Arrivals start once the connection pool is ready (the attestation
       handshake completes well inside the warmup) and stop at the end of
       the measurement window. *)
    let ready = ref 0 in
    let rec schedule_next () =
      let now = Engine.now engine in
      let dt = interarrival g ~now in
      if now +. dt < t_end then
        ignore
          (Engine.schedule engine ~delay:dt ~label:"openloop:arrival" (fun () ->
               arrive ();
               schedule_next ()))
    in
    Array.iter
      (fun c ->
        Client.start c ~on_ready:(fun () ->
            incr ready;
            if !ready = spec.connections then schedule_next ()))
      clients;
    ignore
      (Engine.schedule engine ~delay:(t_warm -. Engine.now engine)
         ~label:"openloop:warmup-end" at_warmup);
    Engine.run ~until:t_end engine;
    Array.iter Client.stop clients;
    sample_words ();
    let offered = float_of_int !arrivals_in_window /. (spec.duration_us /. 1e6) in
    let achieved = float_of_int !completed_in_window /. (spec.duration_us /. 1e6) in
    let reg = Engine.obs engine in
    let module Registry = Splitbft_obs.Registry in
    Registry.set_summary reg "openloop.latency_us" lat;
    let set name v = Registry.set (Registry.gauge reg name) v in
    set "openloop.offered_ops" offered;
    set "openloop.achieved_ops" achieved;
    set "openloop.arrivals" (float_of_int !arrivals_in_window);
    set "openloop.completed" (float_of_int !completed_in_window);
    set "openloop.wrong_results" (float_of_int !wrong);
    set "openloop.backlog_peak" (float_of_int !backlog_peak);
    set "openloop.live_identities_peak" (float_of_int (live_identities_peak g));
    set "openloop.identity_words_peak" (float_of_int !words_peak);
    { offered_ops = offered;
      achieved_ops = achieved;
      ol_mean_latency_us = Stats.mean lat;
      ol_p50_latency_us = Stats.median lat;
      ol_p95_latency_us = Stats.percentile lat 95.0;
      ol_p99_latency_us = Stats.percentile lat 99.0;
      arrivals = !arrivals_in_window;
      ol_completed = !completed_in_window;
      ol_completed_total = !completed_total;
      ol_wrong_results = !wrong;
      backlog_peak = !backlog_peak;
      live_identities_peak = live_identities_peak g;
      distinct_identities = distinct_identities g;
      identity_words_peak = !words_peak }
end
