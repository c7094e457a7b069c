module Future = Futures.Future

type 'a t = { queue : 'a Lockfree.Ms_queue.t }

type 'a handle = {
  owner : 'a t;
  (* Pending operations, oldest first. Enqueue values and futures live in
     parallel rings so an enqueue allocates nothing beyond its future. *)
  enq_vals : 'a Opbuf.t;
  enq_futs : unit Future.t Opbuf.t;
  deqs : 'a option Future.t Opbuf.t;
  (* Scratch rings swapped in at flush time so reentrant operations land
     in a fresh window. *)
  scratch_vals : 'a Opbuf.t;
  scratch_futs : unit Future.t Opbuf.t;
  scratch_deqs : 'a option Future.t Opbuf.t;
  (* Built once with the handle, so neither an op nor a flush allocates
     a closure: the evaluators this handle's futures carry, and the
     segment callbacks that read the detached window. *)
  eval_enq : unit Future.t -> unit;
  eval_deq : 'a option Future.t -> unit;
  get_val : int -> 'a;
  put_deq : int -> 'a option -> unit;
}

let create () = { queue = Lockfree.Ms_queue.create () }
let shared t = t.queue

let pending_count h = Opbuf.length h.enq_vals + Opbuf.length h.deqs

let flush_enqueues h =
  if not (Opbuf.is_empty h.enq_vals) then begin
    Opbuf.swap h.enq_vals h.scratch_vals;
    Opbuf.swap h.enq_futs h.scratch_futs;
    (* Withdraw cancelled ops: keep the pairs whose future is pending. *)
    let n = Opbuf.compact2 Future.is_pending h.scratch_vals h.scratch_futs in
    Lockfree.Ms_queue.enqueue_seg h.owner.queue ~n ~get:h.get_val;
    Obs.splice ~kind:Obs.Event.k_weak_queue_enq ~n;
    for i = 0 to n - 1 do
      Future.fulfil (Opbuf.get h.scratch_futs i) ()
    done;
    Opbuf.clear h.scratch_vals;
    Opbuf.clear h.scratch_futs
  end

let flush_dequeues h =
  if not (Opbuf.is_empty h.deqs) then begin
    Opbuf.swap h.deqs h.scratch_deqs;
    let n = Opbuf.compact Future.is_pending h.scratch_deqs in
    (* Oldest pending dequeue receives the oldest element; dequeues in
       excess of the queue's size observe "empty". *)
    let k = Lockfree.Ms_queue.dequeue_seg h.owner.queue ~n ~f:h.put_deq in
    Obs.splice ~kind:Obs.Event.k_weak_queue_deq ~n:k;
    for i = k to n - 1 do
      Future.fulfil (Opbuf.get h.scratch_deqs i) None
    done;
    Opbuf.clear h.scratch_deqs
  end

let flush h =
  flush_enqueues h;
  flush_dequeues h

let handle owner =
  let rec h =
    {
      owner;
      enq_vals = Opbuf.create ();
      enq_futs = Opbuf.create ();
      deqs = Opbuf.create ();
      scratch_vals = Opbuf.create ();
      scratch_futs = Opbuf.create ();
      scratch_deqs = Opbuf.create ();
      eval_enq = (fun _ -> flush_enqueues h);
      eval_deq = (fun _ -> flush_dequeues h);
      get_val = (fun i -> Opbuf.get h.scratch_vals i);
      put_deq = (fun i r -> Future.fulfil (Opbuf.get h.scratch_deqs i) r);
    }
  in
  h

let abandon h =
  Opbuf.(
    abandon
      [
        Ring (h.enq_futs, orphan);
        Ring (h.scratch_futs, orphan);
        Ring (h.deqs, orphan);
        Ring (h.scratch_deqs, orphan);
        Ring (h.enq_vals, Fun.const 0);
        Ring (h.scratch_vals, Fun.const 0);
      ])

let enqueue h x =
  let f = Future.create_with ~evaluator:h.eval_enq in
  Opbuf.push h.enq_vals x;
  Opbuf.push h.enq_futs f;
  f

let dequeue h =
  let f = Future.create_with ~evaluator:h.eval_deq in
  Opbuf.push h.deqs f;
  f
