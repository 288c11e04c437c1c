(** The paper's evaluation, artifact by artifact.

    Each artifact deploys fresh clusters, drives the §6 workloads and
    describes its result as tables: a title, a column list (each column's
    printed header and/or JSON key with its formatter, declared once) and
    the rows.  One renderer prints every table through {!Table}; another
    serialises the same rows as labelled JSON objects, non-finite numbers
    as [null].  See DESIGN.md §4 for the artifact index and EXPERIMENTS.md
    for measured-vs-paper numbers. *)

val artifacts : (string * (full:bool -> Splitbft_obs.Json.t)) list
(** Every paper artifact by its [bench] name, in the bench's order:
    running one prints its tables to stdout and returns its JSON rows.
    [full] selects the paper's full client sweep (Figure 3 only). *)

(** {2 Table 2 — TCB sizes} *)

type tcb_row = {
  component : string;
  shared_loc : int;  (** shared types/logic compiled into every enclave *)
  logic_loc : int;  (** compartment-specific logic *)
  total_loc : int;
}

val table2 : ?root:string -> unit -> tcb_row list
(** Counts code lines of this repository's own sources (tokei-style),
    attributing shared protocol types/crypto to every enclave, per the
    paper's methodology.  [root] defaults to the source tree detected from
    the current directory. *)

(** {2 Sweep specs} *)

val openloop_spec : Workload.Open_loop.spec
(** The open-loop sweep's spec: 150 ms warm-up / 300 ms measurement, 64
    connections x window 64, 1M identities over a 4096-entry LRU,
    Zipf 0.99 over 64k keys, 90% reads. *)

val storage_spec : Workload.Reads.spec
(** The storage sweep's spec: 192 drivers, 95/5 mix, Zipf 0.99 over 256 keys,
    200 ms warm-up / 600 ms measurement. *)
