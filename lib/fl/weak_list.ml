module Future = Futures.Future

module Make (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)

  type kind = Insert | Remove | Contains

  type op = { key : K.t; kind : kind; future : bool Future.t }

  type t = { list : L.t }

  type handle = {
    owner : t;
    ops : op Opbuf.t; (* invocation order *)
    (* Swapped in at flush time so reentrant operations land in a fresh
       window. *)
    work : op Opbuf.t;
    (* The evaluator every future of this handle carries: [flush]. *)
    eval : bool Future.t -> unit;
  }

  let create () = { list = L.create () }
  let shared t = t.list

  let pending_count h = Opbuf.length h.ops

  (* The whole window is flushed with one list traversal: an index
     permutation is stable-sorted by key, so each key's operations appear
     consecutively and still in invocation order, and successive groups
     have ascending keys — each physical operation resumes the traversal
     from the previous group's position. *)
  let flush h =
    if not (Opbuf.is_empty h.ops) then begin
      Opbuf.swap h.ops h.work;
      (* Withdraw cancelled ops before sorting: they contribute neither a
         physical operation nor a replay step. *)
      let n = Opbuf.compact (fun op -> Future.is_pending op.future) h.work in
      let idx = Array.init n (fun i -> i) in
      Array.stable_sort
        (fun a b -> K.compare (Opbuf.get h.work a).key (Opbuf.get h.work b).key)
        idx;
      let pos = ref (L.head_position h.owner.list) in
      let i = ref 0 in
      while !i < n do
        let j0 = !i in
        let key = (Opbuf.get h.work idx.(j0)).key in
        let j = ref (j0 + 1) in
        while
          !j < n && K.compare (Opbuf.get h.work idx.(!j)).key key = 0
        do
          incr j
        done;
        (* The last insert/remove in the group determines the net effect
           on the shared list, independent of the initial presence. *)
        let net = ref None in
        for g = j0 to !j - 1 do
          match (Opbuf.get h.work idx.(g)).kind with
          | (Insert | Remove) as k -> net := Some k
          | Contains -> ()
        done;
        (* Perform the single physical operation (or probe) and deduce
           the presence at its linearization point from its result. *)
        let presence, pos' =
          match !net with
          | None -> L.contains_from h.owner.list !pos key
          | Some Insert ->
              let changed, p = L.insert_from h.owner.list !pos key in
              (not changed, p)
          | Some Remove -> L.remove_from h.owner.list !pos key
          | Some Contains -> assert false
        in
        (* Replay the group in invocation order from the presence
           observed at its common linearization instant. *)
        let s = ref presence in
        for g = j0 to !j - 1 do
          let op = Opbuf.get h.work idx.(g) in
          match op.kind with
          | Insert ->
              Future.fulfil op.future (not !s);
              s := true
          | Remove ->
              Future.fulfil op.future !s;
              s := false
          | Contains -> Future.fulfil op.future !s
        done;
        pos := pos';
        i := !j
      done;
      (* One list traversal resolved the whole sorted window. *)
      Obs.splice ~kind:Obs.Event.k_weak_list ~n;
      Opbuf.clear h.work
    end

  let handle owner =
    let rec h =
      {
        owner;
        ops = Opbuf.create ();
        work = Opbuf.create ();
        eval = (fun _ -> flush h);
      }
    in
    h

  let abandon h =
    let op o = Opbuf.orphan o.future in
    Opbuf.(abandon [ Ring (h.ops, op); Ring (h.work, op) ])

  let add h key kind =
    let future = Future.create_with ~evaluator:h.eval in
    Opbuf.push h.ops { key; kind; future };
    future

  let insert h key = add h key Insert
  let remove h key = add h key Remove
  let contains h key = add h key Contains
end
