module Future = Futures.Future

module Make (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)

  type kind = Insert | Remove | Contains

  type op = { key : K.t; kind : kind; future : bool Future.t }

  type t = { list : L.t; resume_hint : bool }

  type handle = {
    owner : t;
    mutable ops : op list; (* newest first *)
    mutable n_ops : int;
    (* The evaluator every future of this handle carries: flush until
       the forced future — its argument — is ready. *)
    eval : bool Future.t -> unit;
  }

  let create ?(resume_hint = true) () =
    { list = L.create (); resume_hint }

  let shared t = t.list

  let pending_count h = h.n_ops

  let apply_one list pos op =
    let result, pos' =
      match op.kind with
      | Insert -> L.insert_from list pos op.key
      | Remove -> L.remove_from list pos op.key
      | Contains -> L.contains_from list pos op.key
    in
    Future.fulfil op.future result;
    pos'

  (* Apply pending operations oldest-first until [stop] holds, resuming
     each search from the previous position when keys are non-decreasing. *)
  let flush_until h stop =
    let list = h.owner.list in
    let rec go pos last_key ops =
      if stop () then ops
      else
        match ops with
        | [] -> []
        | op :: rest when not (Future.is_pending op.future) ->
            (* Cancelled: the op is withdrawn without touching the list. *)
            go pos last_key rest
        | op :: rest ->
            let start =
              match last_key with
              | Some k' when h.owner.resume_hint && K.compare op.key k' >= 0
                ->
                  pos
              | _ -> L.head_position list
            in
            let pos' = apply_one list start op in
            go pos' (Some op.key) rest
    in
    let remaining = go (L.head_position list) None (List.rev h.ops) in
    h.ops <- List.rev remaining;
    h.n_ops <- List.length remaining

  let flush h = flush_until h (fun () -> false)

  let handle owner =
    let rec h =
      {
        owner;
        ops = [];
        n_ops = 0;
        eval = (fun f -> flush_until h (fun () -> Future.is_ready f));
      }
    in
    h

  let abandon h =
    let n = List.fold_left (fun n op -> n + Opbuf.orphan op.future) 0 h.ops in
    h.ops <- [];
    h.n_ops <- 0;
    n

  let add h key kind =
    let future = Future.create_with ~evaluator:h.eval in
    h.ops <- { key; kind; future } :: h.ops;
    h.n_ops <- h.n_ops + 1;
    future

  let insert h key = add h key Insert
  let remove h key = add h key Remove
  let contains h key = add h key Contains
end
