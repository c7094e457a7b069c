module Future = Futures.Future

type 'a op = Push of 'a * unit Future.t | Pop of 'a option Future.t

type 'a t = { stack : 'a Lockfree.Treiber_stack.t }

(* Pending operations are kept in invocation order and elimination is
   decided at FLUSH time, not eagerly at invocation. Eager pairing would
   fulfil the pop's future immediately, closing its effect window while an
   older pop is still pending; another thread could then issue and
   evaluate a push strictly after that window and before the older pop's
   flush, forcing the cycle
     pop_old ≺ push ≺ pop_new ≺ other_push ≺ pop_old
   (program order + interval order + the values observed) — a medium-FL
   violation. Deferring the pairing to the flush keeps every window open
   until all of the thread's earlier operations have taken effect. *)
type 'a handle = {
  owner : 'a t;
  ops : 'a op Opbuf.t; (* oldest first *)
  (* Flush-time working state: [ops] is swapped into [work] before any
     future is fulfilled, so reentrant operations land in a fresh window;
     [buf_*] holds unmatched pushes (a LIFO via push/pop_back) and
     [shared_pops] the pops that must read the shared stack. *)
  work : 'a op Opbuf.t;
  buf_vals : 'a Opbuf.t;
  buf_futs : unit Future.t Opbuf.t;
  shared_pops : 'a option Future.t Opbuf.t;
  (* Built once with the handle, so neither an op nor a flush allocates
     a closure: the evaluator every future of this handle carries —
     [flush] — and the segment callbacks that read [shared_pops] and
     [buf_vals]. *)
  eval : 'x. 'x Future.t -> unit;
  put_pop : int -> 'a -> unit;
  get_val : int -> 'a;
}

let create () = { stack = Lockfree.Treiber_stack.create () }
let shared t = t.stack

let pending_count h = Opbuf.length h.ops

let op_pending = function
  | Push (_, f) -> Future.is_pending f
  | Pop f -> Future.is_pending f

(* Replay the pending window against a buffer of not-yet-applied pushes:
   a pop cancels the newest buffered push (the adjacent push/pop pair is
   a no-op on the stack); a pop with no buffered push must read the
   shared stack — and since its buffer was empty, every surviving push is
   younger than it, so all shared pops precede all surviving pushes in
   invocation order. One combined pop and one combined push suffice. *)
let flush h =
  let n = Opbuf.length h.ops in
  if n > 0 then begin
    Opbuf.swap h.ops h.work;
    for i = 0 to n - 1 do
      let op = Opbuf.get h.work i in
      (* A cancelled op is a no-op: a withdrawn push contributes no value
         and a withdrawn pop consumes none. *)
      if op_pending op then
        match op with
        | Push (v, f) ->
            Opbuf.push h.buf_vals v;
            Opbuf.push h.buf_futs f
        | Pop f ->
            if Opbuf.length h.buf_vals > 0 then begin
              let v = Opbuf.pop_back h.buf_vals in
              Future.fulfil (Opbuf.pop_back h.buf_futs) ();
              Future.fulfil f (Some v)
            end
            else Opbuf.push h.shared_pops f
    done;
    Opbuf.clear h.work;
    let np = Opbuf.length h.shared_pops in
    if np > 0 then begin
      (* Oldest surviving pop receives the value that was on top. *)
      let k = Lockfree.Treiber_stack.pop_seg h.owner.stack ~n:np ~f:h.put_pop in
      Obs.splice ~kind:Obs.Event.k_medium_stack_pop ~n:k;
      for i = k to np - 1 do
        Future.fulfil (Opbuf.get h.shared_pops i) None
      done;
      Opbuf.clear h.shared_pops
    end;
    let nb = Opbuf.length h.buf_vals in
    if nb > 0 then begin
      (* Oldest surviving push deepest: one CAS splices the window. *)
      Lockfree.Treiber_stack.push_seg h.owner.stack ~n:nb ~get:h.get_val;
      Obs.splice ~kind:Obs.Event.k_medium_stack_push ~n:nb;
      for i = 0 to nb - 1 do
        Future.fulfil (Opbuf.get h.buf_futs i) ()
      done;
      Opbuf.clear h.buf_vals;
      Opbuf.clear h.buf_futs
    end
  end

let handle owner =
  let rec h =
    {
      owner;
      ops = Opbuf.create ();
      work = Opbuf.create ();
      buf_vals = Opbuf.create ();
      buf_futs = Opbuf.create ();
      shared_pops = Opbuf.create ();
      eval = (fun _ -> flush h);
      put_pop = (fun i v -> Future.fulfil (Opbuf.get h.shared_pops i) (Some v));
      get_val = (fun i -> Opbuf.get h.buf_vals i);
    }
  in
  h

let abandon h =
  let n = ref 0 in
  let poison : type x. x Future.t -> unit =
   fun f -> if Future.poison f Future.Orphaned then incr n
  in
  let op_poison = function Push (_, f) -> poison f | Pop f -> poison f in
  Opbuf.iter op_poison h.ops;
  Opbuf.iter op_poison h.work;
  Opbuf.iter poison h.buf_futs;
  Opbuf.iter poison h.shared_pops;
  Opbuf.clear h.ops;
  Opbuf.clear h.work;
  Opbuf.clear h.buf_vals;
  Opbuf.clear h.buf_futs;
  Opbuf.clear h.shared_pops;
  !n

let push h x =
  let f = Future.create_with ~evaluator:h.eval in
  Opbuf.push h.ops (Push (x, f));
  f

let pop h =
  let f = Future.create_with ~evaluator:h.eval in
  Opbuf.push h.ops (Pop f);
  f
