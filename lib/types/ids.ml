type replica_id = int
type client_id = int
type view = int
type seqno = int
type compartment = Preparation | Confirmation | Execution

let all_compartments = [ Preparation; Confirmation; Execution ]

let compartment_name = function
  | Preparation -> "preparation"
  | Confirmation -> "confirmation"
  | Execution -> "execution"

let f_of_n n =
  if n < 1 then invalid_arg "Ids.f_of_n: n must be positive";
  (n - 1) / 3

let quorum ~n = (2 * f_of_n n) + 1

let primary_of_view ~n view =
  if view < 0 then invalid_arg "Ids.primary_of_view: negative view";
  view mod n

let f_of_n_hybrid n =
  if n < 1 then invalid_arg "Ids.f_of_n_hybrid: n must be positive";
  (n - 1) / 2

let crash_quorum ~n = f_of_n_hybrid n + 1
