module Future = Futures.Future

type 'a op = Enq of 'a * unit Future.t | Deq of 'a option Future.t

type 'a t = { queue : 'a Lockfree.Ms_queue.t }

type 'a handle = {
  owner : 'a t;
  ops : 'a op Opbuf.t; (* oldest first *)
  (* Built once with the handle, so neither an op nor a flush allocates
     a closure: the evaluator every future of this handle carries — flush
     until the forced future, its argument, is ready — and the segment
     callbacks that read the window's front run. *)
  eval : 'x. 'x Future.t -> unit;
  get_enq : int -> 'a;
  put_deq : int -> 'a option -> unit;
}

let create () = { queue = Lockfree.Ms_queue.create () }
let shared t = t.queue

let pending_count h = Opbuf.length h.ops

let same_kind a b =
  match (a, b) with
  | Enq _, Enq _ | Deq _, Deq _ -> true
  | Enq _, Deq _ | Deq _, Enq _ -> false

let enq_value = function Enq (x, _) -> x | Deq _ -> assert false
let enq_future = function Enq (_, f) -> f | Deq _ -> assert false
let deq_future = function Deq f -> f | Enq _ -> assert false

let op_pending = function
  | Enq (_, f) -> Future.is_pending f
  | Deq f -> Future.is_pending f

(* Apply maximal prefix runs of same-type operations until [stop] — the
   future being forced, checked between runs — is ready, or the window
   is exhausted. Each run is spliced straight out of the ring — one
   combined enqueue or dequeue per run — and dropped from the front only
   once fully applied, so operations appended by reentrant invocations
   simply extend the tail of the window. *)
let rec flush_runs h stop =
  let len = Opbuf.length h.ops in
  if len > 0 && not (Future.is_ready stop) then begin
    let first = Opbuf.get h.ops 0 in
    let n = ref 1 in
    while !n < len && same_kind (Opbuf.get h.ops !n) first do incr n done;
    let n = !n in
    (match first with
    | Enq _ ->
        Lockfree.Ms_queue.enqueue_seg h.owner.queue ~n ~get:h.get_enq;
        Obs.splice ~kind:Obs.Event.k_medium_queue_enq ~n;
        for i = 0 to n - 1 do
          Future.fulfil (enq_future (Opbuf.get h.ops i)) ()
        done
    | Deq _ ->
        let k = Lockfree.Ms_queue.dequeue_seg h.owner.queue ~n ~f:h.put_deq in
        Obs.splice ~kind:Obs.Event.k_medium_queue_deq ~n:k;
        for i = k to n - 1 do
          Future.fulfil (deq_future (Opbuf.get h.ops i)) None
        done);
    Opbuf.drop_front h.ops n;
    flush_runs h stop
  end

(* Withdraw cancelled ops first, so the prefix runs only ever see
   pending ones. Cancellation is owner-only, so none can be cancelled
   while a flush is in progress. *)
let flush_until h stop =
  ignore (Opbuf.compact op_pending h.ops : int);
  flush_runs h stop

(* Terminal, so never ready: flushing until it empties the window. *)
let never : unit Future.t = Future.rejected ()

let flush h = flush_until h never

let handle owner =
  let rec h =
    {
      owner;
      ops = Opbuf.create ();
      eval = (fun f -> flush_until h f);
      get_enq = (fun i -> enq_value (Opbuf.get h.ops i));
      put_deq = (fun i r -> Future.fulfil (deq_future (Opbuf.get h.ops i)) r);
    }
  in
  h

let abandon h =
  Opbuf.(
    abandon
      [ Ring (h.ops, function Enq (_, f) -> orphan f | Deq f -> orphan f) ])

let enqueue h x =
  let f = Future.create_with ~evaluator:h.eval in
  Opbuf.push h.ops (Enq (x, f));
  f

let dequeue h =
  let f = Future.create_with ~evaluator:h.eval in
  Opbuf.push h.ops (Deq f);
  f
