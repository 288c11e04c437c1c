(** Identifiers and quorum arithmetic shared by every protocol in this
    repository. *)

type replica_id = int
type client_id = int
type view = int
type seqno = int

type compartment = Preparation | Confirmation | Execution
(** The three compartment types of SplitBFT's PBFT decomposition. *)

val all_compartments : compartment list
val compartment_name : compartment -> string

val f_of_n : int -> int
(** Largest [f] with [n >= 3f + 1]. *)

val quorum : n:int -> int
(** [2f + 1] for [f = f_of_n n]: the size of prepare-certificate (counting
    the PrePrepare), commit and checkpoint quorums. *)

val primary_of_view : n:int -> view -> replica_id
(** Round-robin primary assignment, [view mod n]. *)

val crash_quorum : n:int -> int
(** Majority quorum [f + 1] used by MinBFT-style hybrid protocols with
    [n = 2f + 1]. *)

val f_of_n_hybrid : int -> int
(** Largest [f] with [n >= 2f + 1]. *)
