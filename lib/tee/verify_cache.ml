module Lru = Splitbft_util.Lru

type t = string Lru.t

let create ~capacity = Lru.create ~capacity

(* Length-prefix the variable-length signature so no choice of signing
   bytes can alias another entry's (kind, signature, bytes) triple: the
   cache only ever records triples that passed a full verification, and an
   unambiguous encoding is what makes a later hit equivalent to re-running
   that verification. *)
let key ~kind ~signature ~bytes =
  String.concat "" [ kind; ":"; string_of_int (String.length signature); ":"; signature; bytes ]

let find = Lru.find
let add = Lru.add
let length = Lru.length
let capacity = Lru.capacity
let hits = Lru.hits
let misses = Lru.misses
let clear = Lru.clear
