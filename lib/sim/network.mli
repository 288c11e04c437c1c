(** Simulated message-passing network.

    Matches the paper's model (§2.1): unreliable — may discard, reorder and
    delay messages, but not indefinitely.  Delays are base latency plus
    exponential jitter plus a bandwidth term; independent per-message jitter
    yields reordering.  Partitions and an adversary filter support the
    fault-injection experiments. *)

type addr = int

type config = {
  base_delay_us : float;  (** propagation delay *)
  jitter_mean_us : float; (** mean of the exponential jitter term *)
  drop_probability : float;
  bandwidth_bytes_per_us : float; (** serialization term; [0.] disables *)
}

val default_config : config
(** 40 GbE datacenter-flavoured defaults: 50 µs base delay, 10 µs jitter,
    no drops, 5000 bytes/µs (= 40 Gb/s). *)

type action =
  | Deliver
  | Drop
  | Delay of float (** extra µs on top of the modelled delay *)

type t

val create : Engine.t -> config -> t

val register : t -> addr -> (src:addr -> string -> unit) -> unit
(** Installs the receive handler for [addr]; replaces any previous one. *)

val unregister : t -> addr -> unit
(** Messages to an unregistered address are silently dropped (a crashed
    host). *)

val send : t -> src:addr -> dst:addr -> string -> unit

val partition : t -> addr list list -> unit
(** Installs a partition: messages flow only within a group.  Addresses not
    listed form an implicit final group. *)

val heal : t -> unit
(** Removes any partition. *)

val set_filter : t -> (src:addr -> dst:addr -> string -> action) option -> unit
(** Adversary hook consulted for every message after partition and random
    drops; [None] removes it. *)

val set_tap : t -> (src:addr -> dst:addr -> string -> unit) option -> unit
(** Passive observer invoked on every send attempt (before drops and
    filters) — the confidentiality checker scans payloads here.  One
    slot: installing replaces any previous [set_tap] observer (the
    {!add_tap} list is untouched). *)

val add_tap : t -> (src:addr -> dst:addr -> string -> unit) -> unit
(** Appends an additional passive observer; all added taps fire (in
    registration order) after the {!set_tap} slot on every send attempt,
    before drops and filters.  Taps cannot be removed — attach them for
    the life of the simulation (the anomaly detector's wire observer
    lives here, coexisting with the safety scanner's slot). *)

val add_delivery_tap : t -> (src:addr -> dst:addr -> string -> unit) -> unit
(** Appends a passive observer of deliveries: it fires (in registration
    order) when a message reaches a registered handler, just before the
    handler runs.  Dropped messages and messages to unregistered addresses
    never reach it.  The detector counts delivered Prepares here. *)
