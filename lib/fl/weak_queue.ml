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

(* Withdraw cancelled ops from a detached window before it is spliced:
   tombstone their slots (both rings at the same index, keeping the
   parallel rings aligned), then compact. Returns the live size. *)
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

let flush_enqueues h =
  let n = Opbuf.length h.enq_vals in
  if n > 0 then begin
    Opbuf.swap h.enq_vals h.scratch_vals;
    Opbuf.swap h.enq_futs h.scratch_futs;
    let n = drop_cancelled_pairs h.scratch_vals h.scratch_futs n in
    Lockfree.Ms_queue.enqueue_seg h.owner.queue ~n ~get:h.get_val;
    Obs.splice ~kind:Obs.Event.k_weak_queue_enq ~n;
    for i = 0 to n - 1 do
      Future.fulfil (Opbuf.get h.scratch_futs i) ()
    done;
    Opbuf.clear h.scratch_vals;
    Opbuf.clear h.scratch_futs
  end

let flush_dequeues h =
  let n = Opbuf.length h.deqs in
  if n > 0 then begin
    Opbuf.swap h.deqs h.scratch_deqs;
    let n = drop_cancelled h.scratch_deqs n in
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
  let n = ref 0 in
  let poison : type x. x Future.t -> unit =
   fun f -> if Future.poison f Future.Orphaned then incr n
  in
  Opbuf.iter poison h.enq_futs;
  Opbuf.iter poison h.scratch_futs;
  Opbuf.iter poison h.deqs;
  Opbuf.iter poison h.scratch_deqs;
  Opbuf.clear h.enq_vals;
  Opbuf.clear h.enq_futs;
  Opbuf.clear h.deqs;
  Opbuf.clear h.scratch_vals;
  Opbuf.clear h.scratch_futs;
  Opbuf.clear h.scratch_deqs;
  !n

let enqueue h x =
  let f = Future.create_with ~evaluator:h.eval_enq in
  Opbuf.push h.enq_vals x;
  Opbuf.push h.enq_futs f;
  f

let dequeue h =
  let f = Future.create_with ~evaluator:h.eval_deq in
  Opbuf.push h.deqs f;
  f
