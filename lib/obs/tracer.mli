(** Causal trace recorder: per-request traces of parent-linked spans with
    per-span cost attribution, exported as Chrome Trace Event JSON.

    A {e trace} is one causal story — normally a client request's journey
    client → broker → compartments → reply; view changes, recovery and
    orphaned enclave transitions get synthetic root traces of their own.
    A {e span} is one timed hop inside a trace, stamped with virtual time
    ([Engine.now]) at both ends and carrying accumulated cost arguments
    (enclave transitions, copied bytes, per-category compute time).

    The recorder is deliberately dumb and cheap: opening a span is an
    array write, finishing is a field write, and all structure (trees,
    JSON) is built at export.  Instrumentation sites receive the tracer
    as an [option] from the engine and skip everything when it is absent,
    so a run without tracing pays nothing. *)

type t

type span = private {
  id : int;
  trace : int64;
  parent : int option;
  name : string;
  cat : string;
  pid : int;  (** process lane: replica id or client address *)
  tid : string;  (** thread lane within the process, symbolic *)
  mutable start : float;
  mutable dur : float;  (** negative while the span is open *)
  mutable args : (string * float) list;
}

val create :
  ?sample_every:int -> ?record_orphans:bool -> ?capacity:int -> unit -> t
(** [sample_every] (default 1): head-sample one client trace in N
    (decided on the request timestamp, so retransmits stay stable);
    slow, view-change and recovery traces are always sampled regardless.
    [record_orphans] (default true): give enclave transitions that occur
    outside any sampled trace (checkpoints, session plumbing) synthetic
    root spans, so span cost totals reconcile exactly with the registry's
    aggregate counters.  [capacity] (default 2^20) bounds stored spans;
    excess records are counted in {!dropped}, never resized past it. *)

val sample_every : t -> int
val record_orphans : t -> bool

(** {2 Trace ids} *)

val client_trace : client:int -> ts:int64 -> int64
(** Deterministic client-root trace id ([(client << 32) lor ts]):
    retransmissions of the same request join the original trace. *)

val sampled_ts : t -> int64 -> bool
(** Head-sampling decision for a client request timestamp. *)

val fresh_forced_trace : t -> int64
(** Synthetic root for always-sampled events (view change, recovery,
    slow request promoted at first retransmit). *)

val fresh_orphan_trace : t -> int64
(** Synthetic root for an enclave transition outside any sampled trace. *)

(** {2 Recording} *)

val open_span :
  t ->
  ?parent:int ->
  trace:int64 ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:string ->
  at:float ->
  unit ->
  int
(** Returns the span id (to parent children and build wire contexts), or
    [-1] if capacity is exhausted ([finish]/[add_arg] on [-1] are
    no-ops). *)

val finish : t -> int -> at:float -> unit
(** Idempotent: only the first finish sets the duration. *)

val set_start : t -> int -> at:float -> unit
(** Retroactive start adjustment (promoting a slow request's root at its
    first retransmission to cover the original send). *)

val add_arg : t -> int -> string -> float -> unit
(** Accumulates [v] into the span's [key] argument (adds if present). *)

(** {2 Inspection (trace analyzer)} *)

val span_count : t -> int
val dropped : t -> int
val iter_spans : t -> (span -> unit) -> unit
val spans : t -> span list

(** {2 Export} *)

val to_json : ?process_name:(int -> string) -> t -> Json.t
(** Chrome Trace Event Format: ["X"] complete events (ts/dur in µs of
    virtual time) and ["M"] process/thread-name metadata;
    span args carry the trace id, span id, parent id and cost
    attribution, which is what the analyzer and the CI validator read
    back. *)

val write_file : ?process_name:(int -> string) -> t -> path:string -> unit
