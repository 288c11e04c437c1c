type addr = int

type config = {
  base_delay_us : float;
  jitter_mean_us : float;
  drop_probability : float;
  bandwidth_bytes_per_us : float;
}

let default_config =
  { base_delay_us = 50.0;
    jitter_mean_us = 10.0;
    drop_probability = 0.0;
    bandwidth_bytes_per_us = 5000.0 }

type action = Deliver | Drop | Delay of float

module Registry = Splitbft_obs.Registry
module Addr_tbl = Splitbft_util.Htbl.Int
module Link_tbl = Splitbft_util.Htbl.Int_pair

(* Per-link counters and the delivery event label, built on the link's
   first message so the send path never formats a string. *)
type link = { msgs : Registry.counter; bytes : Registry.counter; label : string }

type t = {
  engine : Engine.t;
  config : config;
  rng : Splitbft_util.Rng.t;
  handlers : (src:addr -> string -> unit) Addr_tbl.t;
  mutable groups : int Addr_tbl.t option; (* partition group per addr *)
  mutable filter : (src:addr -> dst:addr -> string -> action) option;
  mutable tap : (src:addr -> dst:addr -> string -> unit) option;
  mutable taps : (src:addr -> dst:addr -> string -> unit) list;  (* reverse order *)
  mutable lane_hint : (dst:addr -> string -> int) option;
  mutable sent : int;
  mutable delivered : int;
  mutable bytes : int;
  c_sent : Registry.counter;
  c_delivered : Registry.counter;
  c_bytes : Registry.counter;
  c_dropped : Registry.counter;
  links : link Link_tbl.t;
}

let create engine config =
  let obs = Engine.obs engine in
  { engine;
    config;
    rng = Splitbft_util.Rng.split (Engine.rng engine);
    handlers = Addr_tbl.create 32;
    groups = None;
    filter = None;
    tap = None;
    taps = [];
    lane_hint = None;
    sent = 0;
    delivered = 0;
    bytes = 0;
    c_sent = Registry.counter obs "net.messages_sent";
    c_delivered = Registry.counter obs "net.messages_delivered";
    c_bytes = Registry.counter obs "net.bytes_sent";
    c_dropped = Registry.counter obs "net.messages_dropped";
    links = Link_tbl.create 64 }

let link t src dst =
  match Link_tbl.find_opt t.links (src, dst) with
  | Some l -> l
  | None ->
    let labels =
      [ ("src", string_of_int src); ("dst", string_of_int dst) ]
    in
    let obs = Engine.obs t.engine in
    let l =
      { msgs = Registry.counter obs ~labels "net.link.messages";
        bytes = Registry.counter obs ~labels "net.link.bytes";
        label = String.concat "" [ "net:"; string_of_int src; "->"; string_of_int dst ] }
    in
    Link_tbl.replace t.links (src, dst) l;
    l

let register t addr handler = Addr_tbl.replace t.handlers addr handler
let unregister t addr = Addr_tbl.remove t.handlers addr

let partition t groups =
  let table = Addr_tbl.create 16 in
  List.iteri (fun i group -> List.iter (fun a -> Addr_tbl.replace table a i) group) groups;
  t.groups <- Some table

let heal t = t.groups <- None
let set_filter t filter = t.filter <- filter
let set_tap t tap = t.tap <- tap
let add_tap t tap = t.taps <- tap :: t.taps
let set_lane_hint t hint = t.lane_hint <- hint

let same_side t src dst =
  match t.groups with
  | None -> true
  | Some table ->
    (* Unlisted addresses share the implicit group -1. *)
    let side a = match Addr_tbl.find_opt table a with Some g -> g | None -> -1 in
    side src = side dst

let model_delay t size =
  let c = t.config in
  let serialization =
    if c.bandwidth_bytes_per_us > 0.0 then float_of_int size /. c.bandwidth_bytes_per_us
    else 0.0
  in
  c.base_delay_us +. Splitbft_util.Rng.exponential t.rng ~mean:c.jitter_mean_us +. serialization

let send t ~src ~dst payload =
  (match t.tap with None -> () | Some tap -> tap ~src ~dst payload);
  (match t.taps with
  | [] -> ()
  | taps -> List.iter (fun tap -> tap ~src ~dst payload) (List.rev taps));
  let size = String.length payload in
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  Registry.incr t.c_sent;
  Registry.add t.c_bytes size;
  let link = link t src dst in
  Registry.incr link.msgs;
  Registry.add link.bytes size;
  let dropped_randomly =
    t.config.drop_probability > 0.0
    && Splitbft_util.Rng.float t.rng 1.0 < t.config.drop_probability
  in
  if (not (same_side t src dst)) || dropped_randomly then Registry.incr t.c_dropped
  else begin
    let verdict =
      match t.filter with
      | None -> Deliver
      | Some f -> f ~src ~dst payload
    in
    match verdict with
    | Drop -> Registry.incr t.c_dropped
    | Deliver | Delay _ ->
      let extra = match verdict with Delay d -> d | Deliver | Drop -> 0.0 in
      let delay = model_delay t size +. extra in
      let lane = match t.lane_hint with None -> -1 | Some hint -> hint ~dst payload in
      ignore
        (Engine.schedule t.engine
           ~cls:(Engine.Choice { host = dst; lane })
           ~fp:payload ~delay ~label:link.label
           (fun () ->
             match Addr_tbl.find_opt t.handlers dst with
             | None -> ()
             | Some handler ->
               t.delivered <- t.delivered + 1;
               Registry.incr t.c_delivered;
               handler ~src payload))
  end

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let bytes_sent t = t.bytes
