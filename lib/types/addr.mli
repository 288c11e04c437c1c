(** Network address scheme shared by all protocols: replicas occupy the low
    address range, read-only followers start at {!follower_base}, clients
    at {!client_base}. *)

val replica : Ids.replica_id -> int
val client : Ids.client_id -> int

val follower : int -> int
(** Address of read-only follower [fid]; followers sit between the replica
    and client ranges so {!is_client} keeps its historical meaning. *)

val client_base : int
val follower_base : int
val is_client : int -> bool
val is_follower : int -> bool
val client_of_addr : int -> Ids.client_id
val replica_of_addr : int -> Ids.replica_id
