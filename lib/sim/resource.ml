module Registry = Splitbft_obs.Registry

(* The two float accumulators live in an all-float record, so a submit
   stores them unboxed instead of allocating a box per field. *)
type times = {
  mutable free_at : float;
  mutable busy : float;
}

type t = {
  engine : Engine.t;
  name : string;
  label : string;  (* the label of this server's completion events *)
  times : times;
  c_busy_us : Registry.counter;
  c_jobs : Registry.counter;
  g_queue_us : Registry.gauge;
}

let create engine ~name =
  let obs = Engine.obs engine in
  let labels = [ ("resource", name) ] in
  { engine;
    name;
    label = "cpu:" ^ name;
    times = { free_at = 0.0; busy = 0.0 };
    c_busy_us = Registry.counter obs ~labels "resource.busy_us";
    c_jobs = Registry.counter obs ~labels "resource.jobs";
    g_queue_us = Registry.gauge obs ~labels "resource.queue_us" }

(* [earliest] lifts the job's start time past data dependencies the server
   itself does not know about (e.g. a conflicting write still in flight on
   a sibling worker); the server still serializes its own jobs. *)
let submit_after t ~earliest ~cost callback =
  if cost < 0.0 then invalid_arg (t.name ^ ": negative job cost");
  let now = Engine.now t.engine in
  let start = Float.max earliest (Float.max now t.times.free_at) in
  let finish = start +. cost in
  t.times.free_at <- finish;
  t.times.busy <- t.times.busy +. cost;
  Registry.add_f t.c_busy_us cost;
  Registry.incr t.c_jobs;
  Registry.set t.g_queue_us (finish -. now);
  ignore (Engine.schedule t.engine ~delay:(finish -. now) ~label:t.label callback)

let submit t ~cost callback = submit_after t ~earliest:0.0 ~cost callback

let free_at t = t.times.free_at
let busy_time t = t.times.busy

(* Crash-path gauge reset: a crashed host's resources are abandoned (their
   queued callbacks are cancelled by the owner), but the queue-depth gauge
   would otherwise keep the dead incarnation's last value — the restarted
   host re-registers the same (name, labels) gauge and only overwrites it
   on its first submit, so a dashboard sampled in between reads stale
   backlog.  Cumulative counters (busy time, the [resource.jobs]
   counter) are left alone: they are totals across incarnations by
   design. *)
let quiesce t =
  t.times.free_at <- Engine.now t.engine;
  Registry.set t.g_queue_us 0.0

module Pool = struct
  type pool = { servers : t array }

  let create engine ~name ~workers =
    if workers <= 0 then invalid_arg "Resource.Pool.create: workers must be positive";
    let servers =
      Array.init workers (fun i -> create engine ~name:(Printf.sprintf "%s[%d]" name i))
    in
    { servers }

  (* Earliest-available dispatch approximates a work-stealing pool: a new
     job starts as soon as any worker is free. *)
  let submit p ~cost callback =
    let best = ref p.servers.(0) in
    Array.iter (fun s -> if s.times.free_at < !best.times.free_at then best := s) p.servers;
    submit !best ~cost callback
end
