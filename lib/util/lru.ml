(* Bounded LRU map: hash table plus an intrusive doubly-linked recency
   list, so find/add/evict are all O(1) and memory is strictly bounded by
   the capacity.  Used by the untrusted broker (retransmit reply cache)
   and the workload generator (client identity cache), so it must not
   allocate proportionally to the history it has seen. *)

module Make (H : Hashtbl.S) = struct
  type key = H.key

  type 'a node = {
    key : key;
    mutable value : 'a;
    mutable prev : 'a node option;
    mutable next : 'a node option;
  }

  type 'a t = {
    capacity : int;
    table : 'a node H.t;
    mutable first : 'a node option;  (* most recently used *)
    mutable last : 'a node option;  (* eviction candidate *)
    mutable hits : int;
    mutable misses : int;
  }

  let create ~capacity =
    if capacity < 0 then invalid_arg "Lru.create: negative capacity";
    { capacity;
      table = H.create (min 1024 (max 16 capacity));
      first = None;
      last = None;
      hits = 0;
      misses = 0 }

  let capacity t = t.capacity
  let length t = H.length t.table
  let hits t = t.hits
  let misses t = t.misses

  let unlink t node =
    (match node.prev with Some p -> p.next <- node.next | None -> t.first <- node.next);
    (match node.next with Some n -> n.prev <- node.prev | None -> t.last <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.next <- t.first;
    (match t.first with Some f -> f.prev <- Some node | None -> t.last <- Some node);
    t.first <- Some node

  let find t key =
    match H.find_opt t.table key with
    | None ->
      t.misses <- t.misses + 1;
      None
    | Some node ->
      t.hits <- t.hits + 1;
      unlink t node;
      push_front t node;
      Some node.value

  let evict_last t =
    match t.last with
    | None -> ()
    | Some node ->
      unlink t node;
      H.remove t.table node.key

  let add t key value =
    if t.capacity > 0 then begin
      (match H.find_opt t.table key with
      | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
      | None ->
        if H.length t.table >= t.capacity then evict_last t;
        let node = { key; value; prev = None; next = None } in
        H.replace t.table key node;
        push_front t node)
    end

  let clear t =
    H.reset t.table;
    t.first <- None;
    t.last <- None

  let fold t ~init ~f =
    let rec go acc = function
      | None -> acc
      | Some node -> go (f acc node.key node.value) node.next
    in
    go init t.first
end
