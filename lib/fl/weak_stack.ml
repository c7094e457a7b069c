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

let exchanger t = t.exchange

let pending_count h = Opbuf.length h.push_vals + Opbuf.length h.pops

(* How long a leftover pop waits in the exchange array for a producer. *)
let exchange_patience = 64

(* Withdraw cancelled ops from a detached window before it is spliced:
   tombstone their slots — both rings at the same index, so the parallel
   rings stay aligned — then compact. Returns the live size. *)
let drop_cancelled_pairs vals futs n =
  let any = ref false in
  for i = 0 to n - 1 do
    if not (Future.is_pending (Opbuf.get futs i)) then begin
      Opbuf.delete futs i;
      Opbuf.delete vals i;
      any := true
    end
  done;
  if !any then begin
    ignore (Opbuf.compact vals : int);
    Opbuf.compact futs
  end
  else n

let drop_cancelled futs n =
  let any = ref false in
  for i = 0 to n - 1 do
    if not (Future.is_pending (Opbuf.get futs i)) then begin
      Opbuf.delete futs i;
      any := true
    end
  done;
  if !any then Opbuf.compact futs else n

let flush_pushes h =
  let n = Opbuf.length h.push_vals in
  if n > 0 then begin
    Opbuf.swap h.push_vals h.scratch_vals;
    Opbuf.swap h.push_futs h.scratch_futs;
    let n = drop_cancelled_pairs h.scratch_vals h.scratch_futs n in
    (* Cross-handle elimination: hand values to takers parked by other
       handles' starving pops. Producers only ever [try_give] — they never
       park — so the fast path costs one read-only scan when nobody
       waits. Survivors are compacted in place and spliced below. *)
    let n =
      match h.owner.exchange with
      | Some ex when Lockfree.Exchanger.takers_waiting ex ->
          let kept = ref 0 in
          for i = 0 to n - 1 do
            let v = Opbuf.get h.scratch_vals i in
            if Lockfree.Exchanger.try_give ex v then
              Future.fulfil (Opbuf.get h.scratch_futs i) ()
            else begin
              Opbuf.set h.scratch_vals !kept v;
              Opbuf.set h.scratch_futs !kept (Opbuf.get h.scratch_futs i);
              incr kept
            end
          done;
          !kept
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
  let n = Opbuf.length h.pops in
  if n > 0 then begin
    Opbuf.swap h.pops h.scratch_pops;
    let n = drop_cancelled h.scratch_pops n in
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
  let n = ref 0 in
  let poison : type x. x Future.t -> unit =
   fun f -> if Future.poison f Future.Orphaned then incr n
  in
  Opbuf.iter poison h.push_futs;
  Opbuf.iter poison h.scratch_futs;
  Opbuf.iter poison h.pops;
  Opbuf.iter poison h.scratch_pops;
  Opbuf.clear h.push_vals;
  Opbuf.clear h.push_futs;
  Opbuf.clear h.pops;
  Opbuf.clear h.scratch_vals;
  Opbuf.clear h.scratch_futs;
  Opbuf.clear h.scratch_pops;
  !n

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
