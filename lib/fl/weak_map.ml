module Future = Futures.Future

module Make (K : Lockfree.Harris_list.KEY) = struct
  module M = Lockfree.Harris_kv.Make (K)
  module KMap = Map.Make (K)

  type 'v op =
    | Insert of 'v * bool Future.t
    | Find of 'v option Future.t
    | Remove of 'v option Future.t

  type 'v t = { map : 'v M.t }

  type 'v handle = {
    owner : 'v t;
    mutable pending : 'v op list KMap.t; (* per key, newest first *)
    mutable count : int;
    (* The evaluator every future of this handle carries: [flush]. *)
    eval : 'x. 'x Future.t -> unit;
  }

  let create () = { map = M.create () }
  let shared t = t.map

  let pending_count h = h.count

  (* Apply one key's pending operations in invocation order, reusing the
     traversal position. Each op performs its own (position-resumed)
     physical operation, so the results always reflect the shared list —
     no speculation about initial presence is needed. *)
  let apply_group map pos key ops =
    List.fold_left
      (fun pos op ->
        match op with
        | Insert (v, f) ->
            let created, pos = M.insert_from map pos key v in
            Future.fulfil f created;
            pos
        | Find f ->
            let r, pos = M.find_from map pos key in
            Future.fulfil f r;
            pos
        | Remove f ->
            let r, pos = M.remove_from map pos key in
            Future.fulfil f r;
            pos)
      pos ops

  let flush h =
    let groups = KMap.bindings h.pending in
    h.pending <- KMap.empty;
    h.count <- 0;
    ignore
      (List.fold_left
         (fun pos (key, newest_first) ->
           apply_group h.owner.map pos key (List.rev newest_first))
         (M.head_position h.owner.map)
         groups)

  let handle owner =
    let rec h =
      { owner; pending = KMap.empty; count = 0; eval = (fun _ -> flush h) }
    in
    h

  let add h key op =
    h.pending <-
      KMap.update key
        (function None -> Some [ op ] | Some ops -> Some (op :: ops))
        h.pending;
    h.count <- h.count + 1

  (* Owner-death recovery: poison every un-applied future so waiters see
     [Broken Orphaned] instead of hanging, and detach the window. Safe to
     call from the watchdog/sweep of a dead owner's handle. *)
  let abandon h =
    let n = ref 0 in
    let poison : 'a. 'a Future.t -> unit =
     fun f -> if Future.poison f Future.Orphaned then incr n
    in
    KMap.iter
      (fun _ ops ->
        List.iter
          (function
            | Insert (_, f) -> poison f
            | Find f -> poison f
            | Remove f -> poison f)
          ops)
      h.pending;
    h.pending <- KMap.empty;
    h.count <- 0;
    !n

  let insert h key v =
    let f = Future.create_with ~evaluator:h.eval in
    add h key (Insert (v, f));
    f

  let find h key =
    let f = Future.create_with ~evaluator:h.eval in
    add h key (Find f);
    f

  let remove h key =
    let f = Future.create_with ~evaluator:h.eval in
    add h key (Remove f);
    f
end
