(** Monomorphic hash tables for the per-operation paths.

    Each is [Hashtbl.Make] over a typed equality with [hash = Hashtbl.hash],
    the hash the polymorphic [Hashtbl] uses.  A table converted from the
    polymorphic one therefore keeps its bucket indices, its resizing and its
    iteration order, so code that iterates it behaves identically; it only
    stops comparing keys through the polymorphic [compare]. *)

module Int : Hashtbl.S with type key = int
module Int64 : Hashtbl.S with type key = int64
module String : Hashtbl.S with type key = string

module Int_pair : Hashtbl.S with type key = int * int
(** Keyed by (source, destination) address. *)

module Int_int64 : Hashtbl.S with type key = int * int64
(** Keyed by (client id, request timestamp). *)
