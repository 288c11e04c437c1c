(** Deterministic discrete-event simulation engine.

    Time is a [float] count of simulated microseconds.  Events scheduled at
    equal times fire in scheduling order (a monotonically increasing
    sequence number breaks ties), so a run is a pure function of the seed
    and the scheduled actions — the property every experiment and
    regression test in this repository relies on.

    The queue is a binary min-heap on exactly (time, sequence number),
    held in parallel arrays (times, sequence numbers, events).  A fired or
    popped event leaves no reference behind in the arrays, so its action
    and whatever that captured can be collected at once.  A cancelled event
    stays queued, dead, until it reaches the top or until dead entries
    outnumber live ones in a queue of at least 1024 entries; then every
    dead entry is dropped in one pass and the heap is rebuilt, which
    leaves the (time, sequence number) order, and so every run, as it
    was. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

type event_class =
  | Internal
      (** Deterministic follow-on computation (resource completions, ecall
          hand-offs).  A controlled scheduler drains these to quiescence
          between scheduling decisions; free-running [run] treats them like
          any other event. *)
  | Choice of { host : int; lane : int }
      (** A genuine scheduling decision: a network delivery, a timer
          firing, a crash/restart point.  [host] is the simulated host the
          event acts on (its [Sim.Network] address), [lane] the consensus
          lane when statically known, [-1] for "any lane on that host".
          Two [Choice] events on different hosts — or on the same host but
          distinct non-negative lanes — commute; the model checker's
          partial-order reduction relies on exactly this. *)

val create :
  ?seed:int64 ->
  ?obs:Splitbft_obs.Registry.t ->
  ?tracer:Splitbft_obs.Tracer.t ->
  ?flight:Splitbft_obs.Flight.t ->
  unit ->
  t
(** Fresh engine with virtual time 0.  [seed] (default 1) drives {!rng}.
    [obs] (default: a fresh registry) is the metrics registry this
    simulation reports into; every component reachable from the engine
    (network, resources, enclaves, brokers) records there.  [tracer]
    (default: none — tracing off, zero overhead) attaches a causal trace
    recorder that the same components consult for per-request spans.
    [flight] (default: none) attaches a bounded flight recorder the same
    components append structured events to; like the tracer it is a pure
    in-memory side effect, so an attached recorder leaves metrics, RNG
    and schedules byte-identical. *)

val now : t -> float
(** Current virtual time in microseconds. *)

val obs : t -> Splitbft_obs.Registry.t
(** The simulation's metrics registry. *)

val tracer : t -> Splitbft_obs.Tracer.t option
(** The simulation's causal trace recorder, when one was attached.
    Instrumentation sites match on [None] first, so a run without a
    tracer pays nothing. *)

val flight : t -> Splitbft_obs.Flight.t option
(** The simulation's flight recorder, when one was attached. *)

val flight_record : t -> host:int -> kind:string -> detail:string -> unit
(** Appends an event stamped with the current virtual time to the flight
    recorder; no-op (and no allocation beyond the arguments) when none is
    attached. *)

val rng : t -> Splitbft_util.Rng.t
(** The engine's root generator.  Components that need independent streams
    should [Rng.split] it at setup time. *)

val seed : t -> int64
(** The seed {!create} was given.  Components whose randomness must not
    depend on setup order (e.g. clients, simulated identities) derive
    their stream with [Rng.of_key (Engine.seed e) ~domain ~stream]
    instead of splitting {!rng}. *)

val schedule :
  ?cls:event_class -> ?fp:string -> t -> delay:float -> label:string -> (unit -> unit) -> handle
(** Schedules [action] to run [delay] µs from now.  Raises
    [Invalid_argument] unless [delay >= 0] (a NaN delay is rejected too: it
    has no place in the time order).  [label]
    appears in traces and error reports.  [cls] (default {!Internal})
    classifies the event for controlled scheduling; [fp] (default [""]) is
    an opaque payload fingerprint folded into the model checker's state
    hash so that "same message still in flight" states collide. *)

val cancel : handle -> unit
(** Cancelling a fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of scheduled, non-cancelled events — an O(1) read of the
    engine's live-event counter (decremented on fire and on cancel, never
    by walking the heap). *)

val live : t -> int
(** Synonym of {!pending}: the exact live-event counter, exposed for the
    metrics layer ([sim.events_live]). *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Processes events in time order until the queue is empty, virtual time
    would pass [until], or [max_events] have fired.  When stopped by
    [until], virtual time is advanced to [until] exactly. *)

val step : t -> bool
(** Processes a single event; [false] when the queue is empty. *)

val events_processed : t -> int

(** {2 Controlled (model-checking) mode}

    A model checker drives the engine one event at a time instead of
    calling {!run}: it reads {!live_events}, partitions them by
    {!class_of}, picks one [Choice] to fire with {!fire_forced}, then
    drains [Internal] events (again via {!fire_forced}, in time order) to
    quiescence.  Free-running {!run}/{!step} ignore the classification
    entirely, so existing callers are unaffected. *)

val live_events : t -> handle list
(** All scheduled, non-cancelled events, sorted by scheduling sequence
    number (a stable, seed-independent canonical order).  O(n) snapshot. *)

val class_of : handle -> event_class
val label_of : handle -> string

val seq_of : handle -> int
(** Scheduling sequence number — the canonical order key for {!live_events}. *)

val fp_of : handle -> string

val is_live : handle -> bool
(** [false] once fired or cancelled. *)

val fire_forced : t -> handle -> unit
(** Fires [ev] now, regardless of its position in the time order.  The
    clock advances to the later of now and the event's scheduled time —
    never backwards.  Raises [Invalid_argument] if the event is dead.
    O(n) in the number of queued events. *)

exception Stop
(** An event's action may raise [Stop] to end {!run} early (remaining
    events stay queued). *)
