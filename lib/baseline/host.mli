(** The untrusted replica shell of the PBFT and MinBFT baselines.

    Figure 3 and Table 1 compare protocols only if every baseline runs on
    the same substrate, so the two baselines share one host.  It owns:
    - the incarnation: an epoch bumped by every crash and restart, so work
      queued in one incarnation never runs in the next;
    - client admission: the authenticator check, the reply cache, the
      awaited requests behind the suspect timer, and one FIFO batch queue;
    - sending, under the trace context of the message being handled;
    - the pool → core handling pipeline and its span;
    - the batch, suspect and recovery timers;
    - the disk (one entry per tag) and the counter-bound sealed checkpoint
      image on it;
    - crash, and the half of restart that does not know the protocol.

    A protocol supplies what differs: decoding and its verify and core
    costs (through {!admit}), its handler, its primary and view-entry rules,
    how it proposes a batch, its state request, and its own state wipe and
    restore.  Each protocol keeps its own state record, which holds a [t]
    (DESIGN.md §6d). *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message

type t

val create :
  Splitbft_sim.Engine.t ->
  Splitbft_sim.Network.t ->
  protocol:string ->
  n:int ->
  id:Ids.replica_id ->
  cost:Splitbft_tee.Cost_model.t ->
  workers:int ->
  batch_size:int ->
  batch_timeout_us:float ->
  suspect_timeout_us:float ->
  recovery_retry_us:float ->
  measurement:Splitbft_tee.Measurement.t ->
  app:Splitbft_app.State_machine.t ->
  receive:(string -> unit) ->
  flush:(unit -> unit) ->
  suspect:(unit -> unit) ->
  state_request:(unit -> string) ->
  t
(** Builds the platform (sealing key, monotonic counters), the worker pool
    and the serial core of replica [id] of [protocol], and registers
    [receive] for its address.  [flush] proposes queued requests: the batch
    timer and a full queue call it.  [suspect] runs under a fresh
    ["suspect"] root when the suspect timer fires with requests still
    awaited.  [state_request] is the encoded request a recovering replica
    broadcasts. *)

(** {2 Handling} *)

val admit :
  t ->
  string ->
  ctx:Splitbft_obs.Trace_ctx.t option ->
  name:string ->
  crypto:float ->
  core:float ->
  verify:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [admit h payload ~ctx ~name ~crypto ~core ~verify handle] runs one
    decoded message: its verification ([crypto], then [verify]) and the
    payload's serialization on the pool, then [core] on the serial core,
    then [handle] under a span ["<protocol>:<name>"] that is the current
    trace context.  A message that fails [verify] is dropped, and so is one
    whose incarnation ended before it reached the core. *)

val forced : t -> name:string -> (unit -> unit) -> unit
(** Runs [f] under a fresh always-sampled root: causality the replica
    starts itself (suspicion, a stalled view change, recovery). *)

(** {2 Sending}

    Every send runs on the pool and costs [cost] plus the payload's
    serialization; {!send} and {!broadcast} append the current trace
    context. *)

val send : t -> cost:float -> Splitbft_sim.Network.addr -> string -> unit
val broadcast : t -> cost:float -> string -> unit

val spray : t -> cost:float -> (Ids.replica_id -> string list) -> unit
(** [spray h ~cost payloads] sends [payloads j] to each peer [j], in order,
    at [cost] alone and without a trace context: a byzantine replica's
    split sends. *)

(** {2 Clients} *)

val request_auth_ok : t -> Message.request -> bool
(** The client's authenticator entry for this replica checks out. *)

val on_request : t -> proposer:bool -> Message.request -> unit
(** A request executed before gets its cached reply again.  Any other is
    awaited (arming the suspect timer) and, at a [proposer], queued once
    unless already assigned in this view; a full queue calls [flush]. *)

val executed : t -> Message.request -> bool

val await : t -> Message.request -> unit
(** Awaits a request the primary proposed. *)

val note_assigned : t -> Message.request -> unit

val reset_assignments : t -> unit
(** View entry: requests assigned in the dead view may be ordered again,
    except those still queued. *)

val refresh_suspect_timer : t -> unit
(** Tracks the oldest awaited request: re-armed on progress, so a loaded
    but progressing replica never suspects its primary. *)

val execute :
  t -> view:Ids.view -> result:(Message.request -> string) -> Message.request list ->
  Message.reply list
(** Executes the batch's requests not executed before, in order, with
    [result]: each leaves the awaited set and is recorded with its reply.
    Returns the replies, oldest first. *)

val send_replies : t -> cost:float -> Message.reply list -> unit
(** Execution occupies the core for [cost]; then the replies go out through
    the pool, in the trace of the message that committed them. *)

val install : t -> Message.request list -> unit
(** Executes a state-transferred batch: like {!execute}, but peers already
    answered its requests, so it caches and sends no reply. *)

(** {2 Batching} *)

val propose_batches :
  t -> ready:(unit -> bool) -> propose:(Message.request list -> unit) -> unit
(** While requests are queued and [ready ()] holds, [propose]s the oldest
    [batch_size] of them; then arms the batch timer if a partial batch is
    left, or stops it. *)

val pause : t -> unit
(** Stops the batch and suspect timers (a view change is under way). *)

(** {2 Disk and recovery} *)

val persist : t -> string -> string -> unit
(** [persist h tag data] writes [data] under [tag], replacing what the
    disk held under it. *)

val seal_checkpoint : t -> (Splitbft_codec.Writer.t -> 'a -> unit) -> 'a -> unit
(** Seals a checkpoint image ({!Splitbft_consensus.Sealed_image}) bound to
    a fresh ["ckpt"] counter value and persists it under
    ["ckpt:<protocol>"]; the blob is on disk before this returns. *)

val end_recovery : t -> unit
(** The state transfer caught up: the replica takes part again. *)

val crash : t -> unit
(** Ends the incarnation: leaves the network, stops the timers, and drops
    the batch queue and the awaited requests.  The disk and the platform
    survive. *)

val restart :
  t ->
  wipe:(unit -> unit) ->
  read:(Splitbft_codec.Reader.t -> 'a * string) ->
  restore:('a -> string -> unit) ->
  unit
(** After a {!crash}: [wipe]s the protocol's volatile state, resets the
    application and the client table, and judges the newest sealed
    checkpoint.  A refused one is recorded as an alert and the replica
    stays down.  A restored one's application snapshot (the second half of
    [read]) is installed, and its fields go to [restore].  Otherwise the
    replica rejoins and asks its peers for state. *)

(** {2 Introspection} *)

val executed_count : t -> int
val app_digest : t -> string
val persisted : t -> (string * string) list
val is_crashed : t -> bool
val is_recovering : t -> bool
val recovered : t -> bool
val recovery_alerts : t -> string list
val tamper_counter : t -> string -> unit
