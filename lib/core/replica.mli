(** A SplitBFT replica: one platform hosting the Preparation, Confirmation
    and Execution enclaves plus the untrusted broker.

    This is the unit the harness deploys.  Fault injection covers the whole
    paper model: host (environment) crashes and misbehaviour, enclave
    crashes, and byzantine enclaves (adversarial programs that keep the
    enclave's own keys — they can equivocate but cannot forge other
    enclaves' signatures). *)

module Ids = Splitbft_types.Ids
module Enclave = Splitbft_tee.Enclave

type t

val create :
  ?prep_byz:Preparation.byz ->
  ?conf_byz:Confirmation.byz ->
  ?exec_byz:Execution.byz ->
  Splitbft_sim.Engine.t ->
  Splitbft_sim.Network.t ->
  Config.t ->
  app:(unit -> Splitbft_app.State_machine.t) ->
  t
(** The [*_byz] arguments deploy adversarial compartment programs from the
    start (a compromised-at-deployment enclave, keeping its own keys). *)

val id : t -> Ids.replica_id
val enclave : t -> Ids.compartment -> Enclave.t
val broker : t -> Broker.t

(** {2 Introspection (probes; test/measurement only)} *)

val view : t -> Ids.view
(** The Execution compartment's view. *)

val last_executed : t -> Ids.seqno
val executed_count : t -> int
val executed_log : t -> (Ids.seqno * string) list
val app_digest : t -> string
val persisted : t -> (string * string) list
val prep_probe : t -> Preparation.probe
val conf_probe : t -> Confirmation.probe
val exec_probe : t -> Execution.probe

(** {2 Fault injection} *)

val crash_host : t -> unit
val host_crashed : t -> bool
val set_env_fault : t -> Broker.fault -> unit
val crash_enclave : t -> Ids.compartment -> unit

val restart_enclave : t -> Ids.compartment -> unit
(** Reboot the compartment with a fresh program instance (the enclave
    recovery path of §4's discussion). *)

val restart_host : t -> unit
(** Full crash-recovery: reboot all three enclaves with fresh program
    instances, then run the broker's recovery handshake — each compartment
    unseals its newest checkpoint, verifies it against its rollback
    counter, and Execution state-transfers from its peers before the
    replica rejoins quorums.  No-op unless {!crash_host} happened. *)

val tamper_counter : t -> Ids.compartment -> string -> unit
(** Rollback attack: reset one of the compartment's named monotonic
    counters behind its back (e.g. ["ckpt"]).  A subsequent recovery must
    refuse the stale state. *)

val recovery_alerts : t -> string list
(** Safety alerts the compartments raised (rollback refusals etc.),
    oldest first. *)

val recovered : t -> bool
(** True once a host restart finished recovery and caught up. *)

(** {2 Per-enclave ecall accounting (Figure 4)} *)

val ecall_stats : t -> Ids.compartment -> int * float * Splitbft_util.Stats.t
(** (count, total µs, per-ecall durations). *)

val reset_ecall_stats : t -> unit
