(** Simulated SGX enclave: an isolated, single-threaded program reachable
    only through metered ecalls.

    The program is a factory that receives the enclave environment once and
    returns the ecall handler; compartment state lives in the closure, so
    it is unreachable from outside by construction — the isolation property
    SGX provides in hardware.  Every ecall is charged on the calling thread
    resource: transition cost + copy-in + the handler's explicit charges +
    copy-out (see {!Cost_model}); outputs are delivered to the caller at
    the ecall's completion time.

    Fault injection mirrors the paper's model: an enclave can {b crash}
    (ecalls return nothing) or be {b subverted} (its handler replaced by an
    adversarial program that retains access to the enclave's own keys —
    i.e. a byzantine enclave can equivocate but still cannot forge other
    enclaves' signatures). *)

type t

type env
(** Capabilities available to the program inside the enclave. *)

type handler = string -> unit
(** Processes one ecall payload; effects leave via {!emit}/{!ocall}. *)

type program = env -> handler
(** Called once per (re)start; state lives in the returned closure. *)

val create :
  ?workers:int ->
  Platform.t ->
  name:string ->
  measurement:Measurement.t ->
  cost_model:Cost_model.t ->
  key_seed:string ->
  program:program ->
  t
(** The enclave's protocol keypair derives deterministically from
    [key_seed].  [workers] (default 1) sizes the in-enclave worker pool used by
    {!pool_run}; at 1 there is no pool and {!pool_run} degenerates to
    running its task inline, reproducing single-threaded cost accounting
    exactly. *)

val name : t -> string
val measurement : t -> Measurement.t
val platform : t -> Platform.t

val public_key : t -> Splitbft_crypto.Signature.public
(** The enclave's protocol signing public key (also embedded in its
    attestation quotes as report data). *)

val ecall :
  t ->
  thread:Splitbft_sim.Resource.t ->
  ?ctx:Splitbft_obs.Trace_ctx.t ->
  payload:string ->
  on_done:(string list -> unit) ->
  unit ->
  unit
(** Asynchronous ecall: occupies [thread] for the metered duration, then
    invokes [on_done outputs].  On a crashed enclave only the transition
    cost is paid and [on_done []] fires.

    When the engine has a tracer, the transition records a span —
    parented on [ctx] when given, an orphan root otherwise (if the
    tracer records orphans) — carrying the Figure-4 cost attribution as
    span arguments: transition count/time, copied bytes/time, and the
    handler's charges split by category (crypto/exec/seal/io/other).
    Outputs are stamped with the span's context, so downstream effects
    parent on this transition. *)

(** {2 Fault injection} *)

val crash : t -> unit
val is_crashed : t -> bool

val restart : t -> program:program -> unit
(** Reboot with a fresh program instance (recovery re-populates state via
    {!unseal}); clears the crashed flag and any subversion. *)

val quiesce : t -> unit
(** Crash-path gauge reset: zeroes the worker pool's [tee.pool_backlog_us]
    gauge and its workers' queue gauges (see {!Splitbft_sim.Resource.quiesce})
    without tearing the enclave down, so a dashboard sampled while the
    host is down never reads the dead incarnation's backlog.  No-op for a
    pool-less enclave; {!restart} performs the same reset itself. *)

val subvert : t -> program -> unit
(** Replaces the running handler with an adversarial program sharing the
    same [env] (same keys, sealing, counters). *)

val is_subverted : t -> bool

val tamper_counter : t -> string -> unit
(** Fault injection: wipe the named monotonic counter (scoped to this
    enclave's measurement, as {!counter_increment} scopes it) — the
    rollback attack a malicious host mounts against sealed state.  A
    subsequent recovery must detect the mismatch and refuse the blob. *)

(** {2 Accounting (Figure 4)} *)

val ecall_count : t -> int
val ecall_total_us : t -> float
val ecall_durations : t -> Splitbft_util.Stats.t
val reset_stats : t -> unit

(** {2 Environment API (used by programs)} *)

val charge : env -> float -> unit
(** Adds compute time to the current ecall (attributed to the catch-all
    "other" category in traces). *)

val charge_crypto : env -> float -> unit
(** [charge], attributed to signature/MAC/AEAD work. *)

val charge_exec : env -> float -> unit
(** [charge], attributed to application execution. *)

val charge_io : env -> float -> unit
(** [charge], attributed to storage/ledger work performed outside. *)

val cost_model : env -> Cost_model.t

val emit : env -> string -> unit
(** Queues an output returned to the caller when the ecall completes
    (copy-out is charged; no extra transition — it rides the ecall
    return). *)

val ocall : env -> ?cost:float -> string -> unit
(** Like {!emit} but modelling a mid-ecall ocall: charges the ocall
    transition plus [cost] (work performed outside). *)

(** {2 Worker pool}

    A pool of in-enclave worker threads (SGX enclaves may host multiple
    trusted threads; each is a serial {!Splitbft_sim.Resource.t} named
    ["<enclave>-w<i>"]).  {!pool_run} executes a task's state transition
    immediately — in issue order, so results are bit-identical to serial
    execution — but moves its metered cost and its emitted outputs onto
    the earliest-available worker, no earlier than the finish time of any
    conflicting task (per the read/write footprint the task returns).
    Deferred outputs reach the ecall caller's [on_done] when the worker
    finishes.  Metered as [tee.pool_tasks] / [tee.pool_conflict_waits] /
    [tee.pool_backlog_us]. *)

val pool_size : t -> int
(** Number of workers (1 when the enclave has no pool). *)

val pool_run : ?in_order:bool -> env -> (unit -> string list * string list) -> unit
(** [pool_run env task] runs [task] now; [task] returns its [(reads,
    writes)] key footprint.  Only callable from inside an ecall handler.
    Without a pool: equivalent to [ignore (task ())].  With [~in_order:true]
    the task's outputs leave no earlier than those of the previous
    in-order task, so such tasks hand over their outputs in issue order;
    the worker itself does not wait. *)

val env_keypair : env -> Splitbft_crypto.Signature.keypair
val env_platform_id : env -> int
val env_measurement : env -> Measurement.t
val env_now : env -> float
val env_rng : env -> Splitbft_util.Rng.t

val seal : env -> string -> string
(** Seals under this enclave's sealing key (charges sealing cost). *)

val unseal : env -> string -> (string, string) result

val counter_increment : env -> string -> int64
(** Monotonic counter scoped to this enclave's measurement. *)

val counter_read : env -> string -> int64

val quote : env -> string
(** Encoded attestation quote whose report data is this enclave's protocol
    public key. *)
