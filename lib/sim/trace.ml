module Tracer = Splitbft_obs.Tracer

type entry = { time : float; label : string; detail : string }

(* Fixed-size ring: [head] is the slot the next record lands in, [length]
   the number of live entries (≤ capacity).  Recording is O(1); the
   fingerprint folds every entry ever recorded, so eviction never changes
   it — same semantics the determinism tests relied on with the old
   drop-oldest-half list. *)
type t = {
  capacity : int;
  ring : entry array;
  mutable head : int;
  mutable length : int;
  mutable hash : int64;
  tracer : Tracer.t option;
  pid : int;
}

let nil = { time = 0.0; label = ""; detail = "" }

let create ?(capacity = 100_000) ?tracer ?(pid = 0) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  { capacity;
    ring = Array.make capacity nil;
    head = 0;
    length = 0;
    hash = 0xcbf29ce484222325L;
    tracer;
    pid }

let fnv_prime = 0x100000001b3L

let fold_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let record t ~time ~label detail =
  t.hash <-
    fold_string (fold_string (fold_string t.hash (string_of_float time)) label) detail;
  t.ring.(t.head) <- { time; label; detail };
  t.head <- (t.head + 1) mod t.capacity;
  if t.length < t.capacity then t.length <- t.length + 1;
  match t.tracer with
  | None -> ()
  | Some tracer ->
    (* Mirror the debug log as structured instants so it lands in the
       same Trace Event export as the causal spans. *)
    Tracer.instant tracer ~name:label ~cat:"sim.trace" ~pid:t.pid ~tid:"debug"
      ~detail ~at:time ()

let entries t =
  (* Oldest first: the oldest live entry sits at [head] once the ring has
     wrapped, at 0 before. *)
  let start = if t.length < t.capacity then 0 else t.head in
  List.init t.length (fun i -> t.ring.((start + i) mod t.capacity))

let length t = t.length
let fingerprint t = Printf.sprintf "%016Lx" t.hash
