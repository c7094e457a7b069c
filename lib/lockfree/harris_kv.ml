module type KEY = sig
  type t

  val compare : t -> t -> int
end

module Make (K : KEY) = struct
  (* A link both points to the next node and carries this node's deletion
     mark ([Dead_end]/[Dead]). Marking freezes the link: a dead link is
     never CASed again, so chains out of deleted nodes always lead forward
     into the live list. CAS compares links physically: the end links are
     immediates, so they compare by value, like Harris's (mark, NULL)
     word; node links are immutable blocks, so they compare by identity,
     which implies equal (mark, node) values. That is why one observed
     link block may be stored in two cells (DESIGN.md §3). Nodes carry an
     immutable value, so bindings are bind-once. *)
  type 'v node = { key : K.t; value : 'v; next : 'v link Atomic.t }
  and 'v link = Live_end | Dead_end | Live of 'v node | Dead of 'v node

  type 'v t = {
    head : 'v link Atomic.t; (* never dead: the pseudo-node before the list *)
    casc : Sync.Cas_counter.t;
  }

  type 'v position = Root | At of 'v node

  let create () =
    { head = Sync.Padded.atomic Live_end; casc = Sync.Cas_counter.create () }

  let head_position _t = Root

  let cell t = function Root -> t.head | At n -> n.next

  let same_target a b =
    match (a, b) with
    | (Live_end | Dead_end), (Live_end | Dead_end) -> true
    | (Live x | Dead x), (Live y | Dead y) -> x == y
    | _ -> false

  (* The unmarked link with the same target; allocates only to unmark a
     node link. *)
  let live_of = function
    | Dead_end -> Live_end
    | Dead n -> Live n
    | (Live_end | Live _) as l -> l

  let counted_cas t c expected desired =
    Sync.Cas_counter.incr t.casc;
    Atomic.compare_and_set c expected desired

  let is_dead n =
    match Atomic.get n.next with
    | Dead_end | Dead _ -> true
    | Live_end | Live _ -> false

  (* Find (left, link): [link] is the live link observed at [left] whose
     target is the first node with key >= k reachable from [start], or
     the end; [left] is the last node before it that was live when
     passed. Dead nodes in between have been snipped, and the target was
     unmarked when checked. The walk carries the last live node unboxed
     ([walk_at]) or none at all ([walk], still at [start]), so it
     allocates nothing per node; the position is built once, at the end. *)
  let rec search t start k =
    match Atomic.get (cell t start) with
    | Dead_end | Dead _ -> search t Root k (* the start node was deleted *)
    | (Live_end | Live _) as lk -> walk t start k lk lk

  and walk t start k left_link curr =
    match curr with
    | Live_end | Dead_end -> finish t start k left_link curr
    | Live n | Dead n -> (
        match Atomic.get n.next with
        | (Dead_end | Dead _) as nx -> walk t start k left_link nx
        | (Live_end | Live _) as nx ->
            if K.compare n.key k >= 0 then finish t start k left_link curr
            else walk_at t k n nx nx)

  and walk_at t k left left_link curr =
    match curr with
    | Live_end | Dead_end -> finish t (At left) k left_link curr
    | Live n | Dead n -> (
        match Atomic.get n.next with
        | (Dead_end | Dead _) as nx -> walk_at t k left left_link nx
        | (Live_end | Live _) as nx ->
            if K.compare n.key k >= 0 then
              finish t (At left) k left_link curr
            else walk_at t k n nx nx)

  and finish t left k left_link right =
    if same_target left_link right then recheck t left k left_link
    else begin
      (* Physically unlink the marked nodes between left and right. *)
      let fresh = live_of right in
      if counted_cas t (cell t left) left_link fresh then
        recheck t left k fresh
      else search t Root k
    end

  (* Harris's re-check: right must still be unmarked, so the caller may
     decide presence/absence at this instant. *)
  and recheck t left k link =
    match link with
    | Live n when is_dead n -> search t Root k
    | _ -> (left, link)

  (* Positions handed back to callers: the node may die later; operations
     re-validate. [start_of] falls back to Root when the position's node is
     already marked (a stale position could hide newly inserted keys). *)
  let start_of = function
    | Root -> Root
    | At n as pos -> if is_dead n then Root else pos

  let rec insert_loop t start k v =
    match search t start k with
    | left, Live r when K.compare r.key k = 0 -> (false, left)
    | left, link ->
        let n = { key = k; value = v; next = Atomic.make link } in
        if counted_cas t (cell t left) link (Live n) then (true, left)
        else insert_loop t Root k v

  let rec remove_loop t start k =
    match search t start k with
    | left, (Live r as link) when K.compare r.key k = 0 -> (
        match Atomic.get r.next with
        | Dead_end | Dead _ ->
            (* Concurrently deleted; search again so we either fail to find
               the key or find a fresh live node with the same key. *)
            remove_loop t Root k
        | (Live_end | Live _) as succ ->
            let marked =
              match succ with Live s -> Dead s | _ -> Dead_end
            in
            if counted_cas t r.next succ marked then begin
              (* Best-effort physical unlink; a failure leaves it to the
                 next traversal. *)
              ignore (counted_cas t (cell t left) link succ);
              (Some r.value, left)
            end
            else remove_loop t Root k)
    | left, _ -> (None, left)

  (* Wait-free read-only lookup: walk skipping marked nodes, no CAS, no
     allocation per node ([lookup] has passed no live node yet,
     [lookup_at] carries the last one). *)
  let rec lookup k start curr =
    match curr with
    | Live_end | Dead_end -> (None, start)
    | Live n | Dead n -> (
        match Atomic.get n.next with
        | (Dead_end | Dead _) as nx -> lookup k start nx
        | (Live_end | Live _) as nx ->
            let c = K.compare n.key k in
            if c < 0 then lookup_at k n nx
            else ((if c = 0 then Some n.value else None), start))

  and lookup_at k last curr =
    match curr with
    | Live_end | Dead_end -> (None, At last)
    | Live n | Dead n -> (
        match Atomic.get n.next with
        | (Dead_end | Dead _) as nx -> lookup_at k last nx
        | (Live_end | Live _) as nx ->
            let c = K.compare n.key k in
            if c < 0 then lookup_at k n nx
            else ((if c = 0 then Some n.value else None), At last))

  let find_walk t start k = lookup k start (Atomic.get (cell t start))

  let insert t k v = fst (insert_loop t Root k v)
  let remove t k = fst (remove_loop t Root k)
  let find t k = fst (find_walk t Root k)

  let insert_from t pos k v = insert_loop t (start_of pos) k v
  let remove_from t pos k = remove_loop t (start_of pos) k
  let find_from t pos k = find_walk t (start_of pos) k

  let bindings t =
    let rec loop acc = function
      | Live_end | Dead_end -> List.rev acc
      | Live n | Dead n -> (
          match Atomic.get n.next with
          | (Dead_end | Dead _) as nx -> loop acc nx
          | (Live_end | Live _) as nx -> loop ((n.key, n.value) :: acc) nx)
    in
    loop [] (Atomic.get t.head)

  let is_empty t = bindings t = []
  let size t = List.length (bindings t)
  let cas_count t = Sync.Cas_counter.total t.casc
  let reset_cas_count t = Sync.Cas_counter.reset t.casc
end
