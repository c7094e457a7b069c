module Future = Futures.Future

module Make (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)
  module KMap = Map.Make (K)

  type kind = Insert | Remove | Contains

  type op = { kind : kind; future : bool Future.t }

  type t = { list : L.t; lock : Sync.Spinlock.t }

  type handle = {
    owner : t;
    (* Per key, newest first; like the weak list, but the atomic
       application is what makes the reordering legal under medium-FL. *)
    mutable pending : op list KMap.t;
    mutable count : int;
    (* The evaluator every future of this handle carries: [flush]. *)
    eval : bool Future.t -> unit;
  }

  let create () = { list = L.create (); lock = Sync.Spinlock.create () }

  let shared t = t.list

  let pending_count h = h.count

  let simulate p ops =
    let step s op =
      match op.kind with
      | Insert ->
          Future.fulfil op.future (not s);
          true
      | Remove ->
          Future.fulfil op.future s;
          false
      | Contains ->
          Future.fulfil op.future s;
          s
    in
    ignore (List.fold_left step p ops)

  let net_effect ops =
    List.fold_left
      (fun acc op ->
        match op.kind with Insert | Remove -> Some op.kind | Contains -> acc)
      None ops

  let flush h =
    match KMap.bindings h.pending with
    | [] -> ()
    | groups ->
        h.pending <- KMap.empty;
        h.count <- 0;
        let apply_group pos (key, newest_first) =
          (* Cancelled ops are withdrawn from the batch before it takes
             effect; a group left empty performs no physical op. *)
          let ops =
            List.rev
              (List.filter (fun op -> Future.is_pending op.future) newest_first)
          in
          if ops = [] then pos
          else
          let presence, pos' =
            match net_effect ops with
            | None -> L.contains_from h.owner.list pos key
            | Some Insert ->
                let changed, pos' = L.insert_from h.owner.list pos key in
                (not changed, pos')
            | Some Remove -> L.remove_from h.owner.list pos key
            | Some Contains -> assert false
          in
          simulate presence ops;
          pos'
        in
        (* The lock is what distinguishes this from the weak list: the
           whole batch takes effect atomically, so applying it in key
           order is unobservable and medium-FL is preserved. *)
        Sync.Spinlock.with_lock h.owner.lock (fun () ->
            ignore
              (List.fold_left apply_group
                 (L.head_position h.owner.list)
                 groups))

  let handle owner =
    let rec h =
      { owner; pending = KMap.empty; count = 0; eval = (fun _ -> flush h) }
    in
    h

  let abandon h =
    let n = ref 0 in
    KMap.iter
      (fun _ ops ->
        List.iter
          (fun op -> if Future.poison op.future Future.Orphaned then incr n)
          ops)
      h.pending;
    h.pending <- KMap.empty;
    h.count <- 0;
    !n

  let add h key kind =
    let future = Future.create_with ~evaluator:h.eval in
    let op = { kind; future } in
    h.pending <-
      KMap.update key
        (function None -> Some [ op ] | Some ops -> Some (op :: ops))
        h.pending;
    h.count <- h.count + 1;
    future

  let insert h key = add h key Insert
  let remove h key = add h key Remove
  let contains h key = add h key Contains
end
