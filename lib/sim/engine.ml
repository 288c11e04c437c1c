module Registry = Splitbft_obs.Registry

exception Stop

(* Scheduling class, consulted only by the model checker (free-running
   [run]/[step] ignore it).  [Choice] marks an event whose firing order is
   a genuine scheduling decision — a network delivery, a timer, a fault
   injection point — tagged with the host it affects and, when known, the
   consensus lane ([-1] = unknown/wildcard).  Everything else ([Internal])
   is deterministic computation that a controlled scheduler drains to
   quiescence between choices. *)
type event_class = Internal | Choice of { host : int; lane : int }

(* [dead] covers both cancellation and firing, so a late [cancel] on an
   event that already ran cannot corrupt the live count.  The event's time
   is kept only in the queue's [times] array: a float field here would be
   a separate boxed block per event. *)
type event = {
  seq : int;
  label : string;
  cls : event_class;
  fp : string;
  action : unit -> unit;
  mutable dead : bool;
  owner : t;
}

and t = {
  (* The event queue: a binary min-heap on (time, seq) held in parallel
     arrays, so sifting compares unboxed floats and ints without touching
     the event records.  Slots at and above [size] hold [vacant]. *)
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable events : event array;
  mutable size : int;
  vacant : event;  (* filler for empty slots; never scheduled *)
  seed : int64;
  root_rng : Splitbft_util.Rng.t;
  obs : Registry.t;
  tracer : Splitbft_obs.Tracer.t option;
  flight : Splitbft_obs.Flight.t option;
  g_live : Registry.gauge;
  c_fired : Registry.counter;
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;
  mutable live : int;  (* scheduled, not fired, not cancelled *)
}

type handle = event

let create ?(seed = 1L) ?obs ?tracer ?flight () =
  let obs = match obs with Some r -> r | None -> Registry.create () in
  let g_live = Registry.gauge obs "sim.events_live" in
  let c_fired = Registry.counter obs "sim.events_fired" in
  let root_rng = Splitbft_util.Rng.create seed in
  let rec t =
    { times = Float.Array.create 0;
      seqs = [||];
      events = [||];
      size = 0;
      vacant;
      seed;
      root_rng;
      obs;
      tracer;
      flight;
      g_live;
      c_fired;
      clock = 0.0;
      next_seq = 0;
      fired = 0;
      live = 0 }
  and vacant =
    { seq = -1; label = ""; cls = Internal; fp = ""; action = ignore; dead = true;
      owner = t }
  in
  t

let now t = t.clock
let seed t = t.seed
let rng t = t.root_rng
let obs t = t.obs
let tracer t = t.tracer
let flight t = t.flight

let flight_record t ~host ~kind ~detail =
  match t.flight with
  | None -> ()
  | Some f -> Splitbft_obs.Flight.record f ~at:t.clock ~host ~kind ~detail

(* --- The heap ---------------------------------------------------------
   Each sift moves a hole instead of swapping, and compares (time, seq)
   inline: the annotations keep the comparisons monomorphic. *)

let grow t =
  let cap = Array.length t.events in
  let cap' = max 16 (2 * cap) in
  let times = Float.Array.create cap' and seqs = Array.make cap' 0 in
  let events = Array.make cap' t.vacant in
  Float.Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.events 0 events 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.events <- events

let push t ev time =
  if t.size = Array.length t.events then grow t;
  let seq : int = ev.seq in
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt : float = Float.Array.unsafe_get t.times p in
    if time < pt || (time = pt && seq < Array.unsafe_get t.seqs p) then begin
      Float.Array.unsafe_set t.times !i pt;
      Array.unsafe_set t.seqs !i (Array.unsafe_get t.seqs p);
      Array.unsafe_set t.events !i (Array.unsafe_get t.events p);
      i := p
    end
    else continue := false
  done;
  Float.Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.events !i ev;
  t.size <- t.size + 1

(* Places the entry (time, seq, ev) in the hole at [i0] of the first [n]
   slots and sifts it down: the smaller child moves up until the entry is
   no larger than both children. *)
let sift_down t i0 n time seq ev =
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let lt : float = Float.Array.unsafe_get t.times l in
      let c =
        if r < n then
          let rt : float = Float.Array.unsafe_get t.times r in
          if rt < lt || (rt = lt && Array.unsafe_get t.seqs r < Array.unsafe_get t.seqs l)
          then r
          else l
        else l
      in
      let ct : float = Float.Array.unsafe_get t.times c and cs = Array.unsafe_get t.seqs c in
      if ct < time || (ct = time && cs < seq) then begin
        Float.Array.unsafe_set t.times !i ct;
        Array.unsafe_set t.seqs !i cs;
        Array.unsafe_set t.events !i (Array.unsafe_get t.events c);
        i := c
      end
      else continue := false
    end
  done;
  Float.Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.events !i ev

(* Removes the root of a non-empty heap: the last entry sifts down from
   the root, and its old slot is cleared so a fired event is not kept
   alive by the array. *)
let pop_root t =
  let n = t.size - 1 in
  t.size <- n;
  let time : float = Float.Array.unsafe_get t.times n and seq : int = Array.unsafe_get t.seqs n in
  let ev = Array.unsafe_get t.events n in
  Array.unsafe_set t.events n t.vacant;
  if n > 0 then sift_down t 0 n time seq ev

(* Drops every dead entry: the live ones are packed to the front in their
   current order, the vacated slots are cleared so the dropped events (and
   the closures they captured) can be collected, and the heap is rebuilt
   bottom-up.  (time, seq) is a total order, so the pop order does not
   depend on the layout. *)
let compact t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.events.(i) in
    if not ev.dead then begin
      Float.Array.set t.times !n (Float.Array.get t.times i);
      t.seqs.(!n) <- t.seqs.(i);
      t.events.(!n) <- ev;
      incr n
    end
  done;
  Array.fill t.events !n (t.size - !n) t.vacant;
  t.size <- !n;
  for i = (!n / 2) - 1 downto 0 do
    sift_down t i !n (Float.Array.get t.times i) t.seqs.(i) t.events.(i)
  done

let schedule ?(cls = Internal) ?(fp = "") t ~delay ~label action =
  if delay < 0.0 then invalid_arg (Printf.sprintf "Engine.schedule %s: negative delay" label);
  (* NaN would break the heap order: every comparison with it is false. *)
  if Float.is_nan delay then invalid_arg (Printf.sprintf "Engine.schedule %s: NaN delay" label);
  let ev =
    { seq = t.next_seq; label; cls; fp; action; dead = false; owner = t }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Registry.set t.g_live (float_of_int t.live);
  push t ev (t.clock +. delay);
  ev

let cancel ev =
  if not ev.dead then begin
    ev.dead <- true;
    (* The event stays in the heap and is skipped when popped; the live
       count is settled here, eagerly.  Every live event is queued, so
       [size - live] entries are dead: once they are the majority of a
       large heap, they are dropped in one pass.  That is O(size) at most
       once per [size / 2] cancels. *)
    let t = ev.owner in
    t.live <- t.live - 1;
    Registry.set t.g_live (float_of_int t.live);
    if t.size >= 1024 && 2 * t.live < t.size then compact t
  end

let live t = t.live
let pending t = t.live

let fire t ev time =
  ev.dead <- true;
  t.clock <- time;
  t.fired <- t.fired + 1;
  t.live <- t.live - 1;
  Registry.set t.g_live (float_of_int t.live);
  Registry.incr t.c_fired;
  ev.action ()

let step t =
  let rec next () =
    if t.size = 0 then false
    else begin
      let ev = t.events.(0) and time = Float.Array.get t.times 0 in
      pop_root t;
      if ev.dead then next ()
      else begin
        fire t ev time;
        true
      end
    end
  in
  next ()

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue do
    if !budget <= 0 || t.size = 0 then continue := false
    else begin
      let ev = t.events.(0) and time = Float.Array.get t.times 0 in
      if ev.dead then pop_root t
      else
        match until with
        | Some horizon when time > horizon ->
          t.clock <- horizon;
          continue := false
        | _ ->
          pop_root t;
          decr budget;
          (try fire t ev time with Stop -> continue := false)
    end
  done;
  match until with
  | Some horizon when t.clock < horizon && t.size = 0 -> t.clock <- horizon
  | _ -> ()

let events_processed t = t.fired

(* --- Controlled (model-checking) mode ------------------------------- *)

let live_events t =
  let rec collect i acc =
    if i < 0 then acc
    else
      let ev = t.events.(i) in
      collect (i - 1) (if ev.dead then acc else ev :: acc)
  in
  List.sort (fun a b -> Int.compare a.seq b.seq) (collect (t.size - 1) [])

let class_of ev = ev.cls
let label_of ev = ev.label
let seq_of ev = ev.seq
let fp_of ev = ev.fp
let is_live ev = not ev.dead

(* Fire [ev] regardless of its position in the time order.  The clock
   only moves forward ([max]): a controlled scheduler may legitimately
   fire a later-timestamped delivery before an earlier one, and actions
   scheduled from inside the fired action must not land in the past.  A
   live event is always queued, so the scan for its time terminates; it is
   O(n), like the [live_events] call that found the event. *)
let fire_forced t ev =
  if ev.dead then invalid_arg (Printf.sprintf "Engine.fire_forced %s: dead event" ev.label);
  let rec time_at i = if t.events.(i) == ev then Float.Array.get t.times i else time_at (i + 1) in
  let time = time_at 0 in
  ev.dead <- true;
  t.clock <- Float.max t.clock time;
  t.fired <- t.fired + 1;
  t.live <- t.live - 1;
  Registry.set t.g_live (float_of_int t.live);
  Registry.incr t.c_fired;
  ev.action ()
