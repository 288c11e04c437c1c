(** FIFO service resources modelling serial CPU contexts.

    A {!t} serves submitted jobs one at a time in submission order; a job's
    completion callback fires when its service time has elapsed.  One
    resource models a single-threaded execution context: an enclave's ecall
    thread in SplitBFT, or the serial protocol core of the PBFT baseline.
    {!Pool} models a work-stealing worker pool (the baseline's 4 tokio
    workers) as [k] identical servers with earliest-available dispatch. *)

type t

val create : Engine.t -> name:string -> t

val submit : t -> cost:float -> (unit -> unit) -> unit
(** Enqueues a job with service time [cost] µs; the callback runs at its
    completion time. *)

val submit_after : t -> earliest:float -> cost:float -> (unit -> unit) -> unit
(** Like {!submit}, but the job cannot start before virtual time
    [earliest] — used to model data dependencies on work running on a
    sibling resource (e.g. a conflicting write in the execution pool). *)

val free_at : t -> float
(** Virtual time at which all currently queued work completes. *)

val busy_time : t -> float
(** Cumulative service time performed. *)

val quiesce : t -> unit
(** Crash-path reset: marks the resource idle as of now and zeroes its
    [resource.queue_us] gauge so a dashboard never reads a dead
    incarnation's backlog.  Cumulative counters ([busy_time], the
    [resource.jobs] counter) are preserved — they are totals across incarnations.  Call when the
    owning host crashes or restarts. *)

module Pool : sig
  type pool

  val create : Engine.t -> name:string -> workers:int -> pool
  val submit : pool -> cost:float -> (unit -> unit) -> unit
end
