(* Every instance hashes with [Hashtbl.hash], as the polymorphic table
   does, so bucket indices, resizing and iteration order match it exactly;
   only [equal] changes, from the polymorphic [compare] to a typed one. *)

module Int = Hashtbl.Make (struct
  type t = int

  let equal = Stdlib.Int.equal
  let hash = Hashtbl.hash
end)

module Int64 = Hashtbl.Make (struct
  type t = int64

  let equal = Stdlib.Int64.equal
  let hash = Hashtbl.hash
end)

module String = Hashtbl.Make (struct
  type t = string

  let equal = Stdlib.String.equal
  let hash = Hashtbl.hash
end)

module Int_pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, x) : t) ((b, y) : t) = Stdlib.Int.equal a b && Stdlib.Int.equal x y
  let hash = Hashtbl.hash
end)

module Int_int64 = Hashtbl.Make (struct
  type t = int * int64

  let equal ((a, x) : t) ((b, y) : t) = Stdlib.Int.equal a b && Stdlib.Int64.equal x y
  let hash = Hashtbl.hash
end)
