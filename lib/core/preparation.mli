(** Preparation compartment: event handlers 1, 2, 6, 7 (and the duplicated
    9, 7') of Figure 2.

    On the primary it authenticates client requests, assigns sequence
    numbers and emits signed PrePrepares; on backups it validates the
    primary's PrePrepares and emits Prepares.  It also creates NewViews
    (as the new primary) from quorums of ViewChanges, and fully validates
    incoming NewViews — including recomputing the re-issued PrePrepares.
    Client session auth keys are provisioned to it through the attestation
    handshake so it can authenticate encrypted requests without seeing
    their plaintext. *)

module Enclave = Splitbft_tee.Enclave

type byz =
  | Prep_honest
  | Prep_equivocate
      (** as primary, assign the same sequence number to two conflicting
          batches and show each to a different subset of replicas — the
          equivocation a byzantine Preparation enclave can attempt *)
  | Prep_corrupt_digest
      (** as primary, sign proposals whose batch digest matches no batch
          any client authorized — the slot can never prepare or execute,
          a pure liveness attack *)

type probe = {
  view : unit -> int;
  next_seq : unit -> int;
  last_stable : unit -> int;
  sessions : unit -> int;
  parked : unit -> int;  (** batches waiting for window space *)
  tallied_views : unit -> int list;  (** target views with a ViewChange tally *)
  logged : unit -> int;  (** proposals in the log, each in its digest form *)
  held_requests : unit -> int;
      (** request bodies held: in parked batches and in PrePrepares parked
          ahead of the window (the log holds none) *)
  assignments : unit -> int;  (** client timestamps holding a seqno *)
}

val make : ?byz:byz -> Config.t -> Enclave.program * probe
(** The probe is a test/measurement tap (reads the state of the most
    recently instantiated program); it has no in-protocol role. *)
