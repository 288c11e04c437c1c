module Stats = Splitbft_util.Stats

type labels = (string * string) list

type counter = { mutable cv : float }
type gauge = { mutable gv : float }

type histogram = {
  bounds : float array;  (* ascending upper bounds; +inf bucket is implicit *)
  counts : int array;    (* length = Array.length bounds + 1 *)
  hsum : Float.Array.t;  (* one cell, so [observe] stores the sum unboxed *)
  mutable hcount : int;
}

type value =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Summary of Stats.t ref

type metric = { name : string; labels : labels; value : value }

type t = {
  table : (string, metric) Hashtbl.t;
  mutable rev_metrics : metric list;  (* registration order, newest first *)
}

let create () = { table = Hashtbl.create 64; rev_metrics = [] }

let normalize labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels =
  let buf = Buffer.create 32 in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Summary _ -> "summary"

let register t ~name ~labels ~make ~cast =
  let labels = normalize labels in
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some m -> (
    match cast m.value with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Registry: %s already registered as a %s" name
           (kind_name m.value)))
  | None ->
    let value = make () in
    let m = { name; labels; value } in
    Hashtbl.replace t.table k m;
    t.rev_metrics <- m :: t.rev_metrics;
    (match cast value with Some v -> v | None -> assert false)

(* ----- counters ----- *)

let counter t ?(labels = []) name =
  register t ~name ~labels
    ~make:(fun () -> Counter { cv = 0.0 })
    ~cast:(function Counter c -> Some c | _ -> None)

let incr c = c.cv <- c.cv +. 1.0
let add c n = c.cv <- c.cv +. float_of_int n
let add_f c x = c.cv <- c.cv +. x
let counter_value c = c.cv

(* ----- gauges ----- *)

let gauge t ?(labels = []) name =
  register t ~name ~labels
    ~make:(fun () -> Gauge { gv = 0.0 })
    ~cast:(function Gauge g -> Some g | _ -> None)

let set g x = g.gv <- x
let gauge_value g = g.gv

(* ----- histograms ----- *)

let default_buckets =
  [ 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0;
    1_000.0; 2_000.0; 5_000.0; 10_000.0; 20_000.0; 50_000.0;
    100_000.0; 200_000.0; 500_000.0; 1_000_000.0; 5_000_000.0 ]

let histogram t ?(buckets = default_buckets) ?(labels = []) name =
  let make () =
    let sorted = List.sort_uniq compare buckets in
    if sorted = [] then invalid_arg "Registry.histogram: empty bucket list";
    let bounds = Array.of_list sorted in
    Histogram
      { bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        hsum = Float.Array.make 1 0.0;
        hcount = 0 }
  in
  register t ~name ~labels ~make
    ~cast:(function Histogram h -> Some h | _ -> None)

let observe h x =
  (* First bucket whose upper bound covers [x]; the trailing slot is +inf. *)
  let n = Array.length h.bounds in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if x <= h.bounds.(mid) then find lo mid else find (mid + 1) hi
  in
  let i = find 0 n in
  h.counts.(i) <- h.counts.(i) + 1;
  Float.Array.set h.hsum 0 (Float.Array.get h.hsum 0 +. x);
  h.hcount <- h.hcount + 1

let histogram_count h = h.hcount
let histogram_sum h = Float.Array.get h.hsum 0

(* ----- summaries ----- *)

let summary t ?cap ?(labels = []) name =
  let r =
    register t ~name ~labels
      ~make:(fun () -> Summary (ref (Stats.create ?cap ())))
      ~cast:(function Summary r -> Some r | _ -> None)
  in
  !r

let set_summary t ?(labels = []) name stats =
  let r =
    register t ~name ~labels
      ~make:(fun () -> Summary (ref stats))
      ~cast:(function Summary r -> Some r | _ -> None)
  in
  r := stats

(* ----- introspection ----- *)

let metrics t = List.rev t.rev_metrics

let fold_value = function
  | Counter c -> c.cv
  | Gauge g -> g.gv
  | Histogram h -> float_of_int h.hcount
  | Summary r -> float_of_int (Stats.count !r)

let fold t ~init ~f =
  List.fold_left
    (fun acc m ->
      f acc ~name:m.name ~labels:m.labels ~kind:(kind_name m.value)
        ~value:(fold_value m.value))
    init (metrics t)

let read t ?(labels = []) name =
  match Hashtbl.find_opt t.table (key name (normalize labels)) with
  | Some m -> Some (fold_value m.value)
  | None -> None

let sum t ~prefix =
  let is_prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  fold t ~init:0.0 ~f:(fun acc ~name ~labels:_ ~kind:_ ~value ->
      if is_prefix name then acc +. value else acc)

(* ----- snapshot ----- *)

let num x = if Float.is_finite x then Json.Float x else Json.Null

let json_of_metric m =
  let base =
    [ ("name", Json.Str m.name);
      ("type", Json.Str (kind_name m.value));
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) m.labels)) ]
  in
  let body =
    match m.value with
    | Counter c -> [ ("value", num c.cv) ]
    | Gauge g -> [ ("value", num g.gv) ]
    | Histogram h ->
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i n ->
               let le =
                 if i < Array.length h.bounds then num h.bounds.(i)
                 else Json.Str "inf"
               in
               Json.Obj [ ("le", le); ("count", Json.Int n) ])
             h.counts)
      in
      [ ("count", Json.Int h.hcount); ("sum", num (Float.Array.get h.hsum 0));
        ("buckets", Json.List buckets) ]
    | Summary r ->
      let s = !r in
      [ ("count", Json.Int (Stats.count s));
        ("sum", num (Stats.total s));
        ("mean", num (Stats.mean s));
        ("min", num (Stats.min s));
        ("max", num (Stats.max s));
        ("p50", num (Stats.percentile s 50.0));
        ("p90", num (Stats.percentile s 90.0));
        ("p99", num (Stats.percentile s 99.0)) ]
  in
  Json.Obj (base @ body)

let to_json t =
  Json.Obj
    [ ("schema", Json.Str "splitbft.metrics/v1");
      ("metrics", Json.List (List.map json_of_metric (metrics t))) ]

let to_json_string t = Json.to_string (to_json t)

let write_file t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json_string t);
      output_char oc '\n')
