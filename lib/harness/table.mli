(** Fixed-width table rendering for the experiment output. *)

val render : header:string list -> rows:string list list -> string
(** Aligned columns with a rule under the header. *)

val print : title:string -> header:string list -> rows:string list list -> unit

val us : float -> string
(** Microseconds with sensible precision. *)

val ops : float -> string
(** Operations per second (k-suffixed above 10k). *)

val pct : float -> string
val yes_no : bool -> string
