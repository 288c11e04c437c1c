(* Sample collection with a bounded reservoir.

   Count / total / mean / min / max / stddev come from exact running
   accumulators regardless of how many samples were observed; order
   statistics (percentiles) come from the sample store, which switches
   from exact to uniform reservoir sampling (algorithm R) once [cap]
   observations have been seen, so unbounded runs hold bounded memory.
   The reservoir's RNG is its own deterministic xorshift64* stream — it
   must not perturb (or be perturbed by) the simulation's seeded RNGs. *)

(* The running moments, in an all-float record so [add] stores them
   unboxed instead of allocating a box per field. *)
type moments = {
  mutable sum : float;
  mutable sumsq : float;
  mutable mn : float;
  mutable mx : float;
}

type t = {
  cap : int;
  mutable samples : float array;
  mutable size : int;  (* live entries in [samples] *)
  mutable sorted : bool;
  mutable n : int;  (* observations ever *)
  m : moments;
  mutable rng : int64;
}

let default_cap = 65536

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Stats.create: cap < 1";
  { cap;
    samples = [||];
    size = 0;
    sorted = true;
    n = 0;
    m = { sum = 0.0; sumsq = 0.0; mn = infinity; mx = neg_infinity };
    rng = 0x9E3779B97F4A7C15L }

let cap t = t.cap

let rand_below t bound =
  let x = t.rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rng <- x;
  Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int bound))

let store t i x =
  let alloc = Array.length t.samples in
  if i >= alloc then begin
    let data = Array.make (Stdlib.min t.cap (Stdlib.max 64 (2 * alloc))) 0.0 in
    Array.blit t.samples 0 data 0 t.size;
    t.samples <- data
  end;
  t.samples.(i) <- x;
  t.sorted <- false

let add t x =
  let m = t.m in
  t.n <- t.n + 1;
  m.sum <- m.sum +. x;
  m.sumsq <- m.sumsq +. (x *. x);
  if x < m.mn then m.mn <- x;
  if x > m.mx then m.mx <- x;
  if t.size < t.cap then begin
    store t t.size x;
    t.size <- t.size + 1
  end
  else begin
    (* Reservoir: keep each of the n observations with probability cap/n. *)
    let j = rand_below t t.n in
    if j < t.cap then store t j x
  end

let count t = t.n
let total t = t.m.sum
let mean t = if t.n = 0 then nan else t.m.sum /. float_of_int t.n
let min t = if t.n = 0 then nan else t.m.mn
let max t = if t.n = 0 then nan else t.m.mx
let is_empty t = t.n = 0
let mean_opt t = if t.n = 0 then None else Some (t.m.sum /. float_of_int t.n)
let min_opt t = if t.n = 0 then None else Some t.m.mn
let max_opt t = if t.n = 0 then None else Some t.m.mx

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.size in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.size;
    t.sorted <- true
  end

let percentile t p =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (Float.floor rank) in
    let lo = Stdlib.max 0 (Stdlib.min (t.size - 1) lo) in
    let hi = Stdlib.min (t.size - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    t.samples.(lo) +. (frac *. (t.samples.(hi) -. t.samples.(lo)))
  end

let median t = percentile t 50.0
let percentile_opt t p = if t.size = 0 then None else Some (percentile t p)

(* Total-window guard for code paths that feed JSON/records: an empty
   window yields 0 rather than letting nan propagate into snapshots. *)
let percentile_or0 t p = if t.size = 0 then 0.0 else percentile t p
let mean_or0 t = if t.n = 0 then 0.0 else t.m.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let n = float_of_int t.n in
    let var = (t.m.sumsq -. (t.m.sum *. t.m.sum /. n)) /. (n -. 1.0) in
    sqrt (Float.max 0.0 var)

let merge a b =
  let t = create ~cap:(Stdlib.max a.cap b.cap) () in
  for i = 0 to a.size - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.size - 1 do
    add t b.samples.(i)
  done;
  (* The reservoir above holds both sample sets; the exact moments are
     the sums of the inputs' exact moments, not of their reservoirs. *)
  t.n <- a.n + b.n;
  t.m.sum <- a.m.sum +. b.m.sum;
  t.m.sumsq <- a.m.sumsq +. b.m.sumsq;
  t.m.mn <- Stdlib.min a.m.mn b.m.mn;
  t.m.mx <- Stdlib.max a.m.mx b.m.mx;
  t

let pp_summary ppf t =
  if is_empty t then Format.fprintf ppf "n=0 (no samples)"
  else
    Format.fprintf ppf "n=%d mean=%.2f p50=%.2f p99=%.2f min=%.2f max=%.2f"
      (count t) (mean t) (median t) (percentile t 99.0) (min t) (max t)
