module Future = Futures.Future

type 'a t = {
  stack : 'a Lockfree.Treiber_stack.t;
  elimination : bool;
  exchange : 'a Lockfree.Exchanger.t option;
      (* cross-handle elimination array, shared by all handles *)
}

type 'a handle = {
  owner : 'a t;
  (* Pending operations, oldest first. With elimination enabled at most one
     of the two windows is non-empty (a new operation of the opposite type
     pairs off instead of accumulating). Push values and futures live in
     parallel rings so a push allocates nothing beyond its future. *)
  push_vals : 'a Opbuf.t;
  push_futs : unit Future.t Opbuf.t;
  pops : 'a option Future.t Opbuf.t;
  (* Scratch rings the live windows are swapped into at flush time, so a
     reentrant push/pop fired from a fulfilled future lands in a fresh
     window instead of a half-processed one. *)
  scratch_vals : 'a Opbuf.t;
  scratch_futs : unit Future.t Opbuf.t;
  scratch_pops : 'a option Future.t Opbuf.t;
  (* Built once with the handle, so neither an op nor a flush allocates
     a closure: the evaluator every future of this handle carries —
     [flush] — and the segment callbacks that read the detached window. *)
  eval : 'x. 'x Future.t -> unit;
  get_val : int -> 'a;
  put_pop : int -> 'a -> unit;
}

let create ?(elimination = true) ?(exchange = false) () =
  {
    stack = Lockfree.Treiber_stack.create ();
    elimination;
    exchange = (if exchange then Some (Lockfree.Exchanger.create ()) else None);
  }

let shared t = t.stack

let exchanged t =
  match t.exchange with None -> 0 | Some ex -> Lockfree.Exchanger.exchanged ex

let pending_count h = Opbuf.length h.push_vals + Opbuf.length h.pops

(* How long a leftover pop waits in the exchange array for a producer. *)
let exchange_patience = 64

let flush_pushes h =
  if not (Opbuf.is_empty h.push_vals) then begin
    Opbuf.swap h.push_vals h.scratch_vals;
    Opbuf.swap h.push_futs h.scratch_futs;
    (* Withdraw cancelled ops: keep the pairs whose future is pending. *)
    let n = Opbuf.compact2 Future.is_pending h.scratch_vals h.scratch_futs in
    (* Cross-handle elimination: hand values to takers parked by other
       handles' starving pops. Producers only ever [try_give] — they never
       park — so the fast path costs one read-only scan when nobody
       waits. A given value's push is fulfilled, so the same compaction
       drops it; the survivors are spliced below. *)
    let n =
      match h.owner.exchange with
      | Some ex when Lockfree.Exchanger.takers_waiting ex ->
          for i = 0 to n - 1 do
            if Lockfree.Exchanger.try_give ex (Opbuf.get h.scratch_vals i) then
              Future.fulfil (Opbuf.get h.scratch_futs i) ()
          done;
          Opbuf.compact2 Future.is_pending h.scratch_vals h.scratch_futs
      | _ -> n
    in
    (* Oldest push deepest: one CAS splices the whole window. *)
    Lockfree.Treiber_stack.push_seg h.owner.stack ~n ~get:h.get_val;
    Obs.splice ~kind:Obs.Event.k_weak_stack_push ~n;
    for i = 0 to n - 1 do
      Future.fulfil (Opbuf.get h.scratch_futs i) ()
    done;
    Opbuf.clear h.scratch_vals;
    Opbuf.clear h.scratch_futs
  end

let flush_pops h =
  if not (Opbuf.is_empty h.pops) then begin
    Opbuf.swap h.pops h.scratch_pops;
    let n = Opbuf.compact Future.is_pending h.scratch_pops in
    (* Oldest pending pop receives the value that was on top. *)
    let k = Lockfree.Treiber_stack.pop_seg h.owner.stack ~n ~f:h.put_pop in
    Obs.splice ~kind:Obs.Event.k_weak_stack_pop ~n:k;
    (* Pops in excess of the stack's size try the exchange array — some
       other handle may be flushing pushes right now — and only then
       observe "empty". *)
    for i = k to n - 1 do
      let fed =
        match h.owner.exchange with
        | Some ex -> Lockfree.Exchanger.take ~patience:exchange_patience ex
        | None -> None
      in
      Future.fulfil (Opbuf.get h.scratch_pops i) fed
    done;
    Opbuf.clear h.scratch_pops
  end

let flush h =
  flush_pops h;
  flush_pushes h

let handle owner =
  let rec h =
    {
      owner;
      push_vals = Opbuf.create ();
      push_futs = Opbuf.create ();
      pops = Opbuf.create ();
      scratch_vals = Opbuf.create ();
      scratch_futs = Opbuf.create ();
      scratch_pops = Opbuf.create ();
      eval = (fun _ -> flush h);
      get_val = (fun i -> Opbuf.get h.scratch_vals i);
      put_pop =
        (fun i v -> Future.fulfil (Opbuf.get h.scratch_pops i) (Some v));
    }
  in
  h

let abandon h =
  Opbuf.(
    abandon
      [
        Ring (h.push_futs, orphan);
        Ring (h.scratch_futs, orphan);
        Ring (h.pops, orphan);
        Ring (h.scratch_pops, orphan);
        Ring (h.push_vals, Fun.const 0);
        Ring (h.scratch_vals, Fun.const 0);
      ])

(* Elimination: a push hands its value to the newest pending pop (and
   vice versa); neither operation ever reaches the shared stack. A
   partner whose future was cancelled no longer wants the pairing: drop
   it and pair with the next. The partner leaves its window only after
   its future is terminal, so a kill inside [try_fulfil] leaves it for
   [abandon]. Top-level (not closures) so the window fast path below
   allocates nothing beyond the future. *)
let rec eliminate_push h x =
  let n = Opbuf.length h.pops in
  if n > 0 then begin
    let won = Future.try_fulfil (Opbuf.get h.pops (n - 1)) (Some x) in
    ignore (Opbuf.pop_back h.pops : _ Future.t);
    if won then Some (Future.of_value ()) else eliminate_push h x
  end
  else None

let rec eliminate_pop h =
  let n = Opbuf.length h.push_vals in
  if n > 0 then begin
    let won = Future.try_fulfil (Opbuf.get h.push_futs (n - 1)) () in
    let x = Opbuf.pop_back h.push_vals in
    ignore (Opbuf.pop_back h.push_futs : unit Future.t);
    if won then Some (Future.of_value (Some x))
    else
      (* Cancelled push: its value was withdrawn, not transferred. *)
      eliminate_pop h
  end
  else None

let window_push h x =
  let f = Future.create_with ~evaluator:h.eval in
  Opbuf.push h.push_vals x;
  Opbuf.push h.push_futs f;
  f

let window_pop h =
  let f = Future.create_with ~evaluator:h.eval in
  Opbuf.push h.pops f;
  f

let push h x =
  if h.owner.elimination && Opbuf.length h.pops > 0 then
    match eliminate_push h x with Some f -> f | None -> window_push h x
  else window_push h x

let pop h =
  if h.owner.elimination && Opbuf.length h.push_vals > 0 then
    match eliminate_pop h with Some f -> f | None -> window_pop h
  else window_pop h
