(** Bounded in-memory trace of simulation events (ring buffer).

    Used by the determinism tests (same seed ⇒ identical trace) and for
    debugging protocol runs.  Recording is O(1): the ring overwrites the
    oldest entry once full, while the fingerprint keeps folding every
    entry ever recorded, so eviction never perturbs determinism checks. *)

type entry = { time : float; label : string; detail : string }
type t

val create :
  ?capacity:int -> ?tracer:Splitbft_obs.Tracer.t -> ?pid:int -> unit -> t
(** [capacity] (default 100_000) bounds memory; once full, each record
    overwrites the oldest entry.  With [tracer], every record is also
    mirrored as a structured instant event (category ["sim.trace"],
    process [pid]) into the causal-trace export. *)

val record : t -> time:float -> label:string -> string -> unit
val entries : t -> entry list
(** Oldest first (the retained window only). *)

val length : t -> int
(** Retained entries, at most [capacity]. *)

val fingerprint : t -> string
(** Order-sensitive SHA-free fingerprint (a 64-bit FNV-style fold rendered
    in hex) of {e every} entry ever recorded — unaffected by eviction,
    cheap to compare across runs. *)
