(* The node pointed to by [head] is a dummy; the logical queue content is
   the chain strictly after it. [value] is mutable only so a dequeued
   element can be dropped from the new dummy, avoiding a space leak. *)
type 'a node = { mutable value : 'a option; next : 'a node option Atomic.t }

type 'a t = {
  head : 'a node Atomic.t;
  tail : 'a node Atomic.t;
  casc : Sync.Cas_counter.t;
}

let make_node v = { value = v; next = Atomic.make None }

let create () =
  let dummy = make_node None in
  (* Head and tail are attacked by disjoint parties (dequeuers vs
     enqueuers); padding keeps either side's CAS traffic off the other's
     line. *)
  {
    head = Sync.Padded.atomic dummy;
    tail = Sync.Padded.atomic dummy;
    casc = Sync.Cas_counter.create ();
  }

let counted_cas t cell expected desired =
  Sync.Cas_counter.incr t.casc;
  Atomic.compare_and_set cell expected desired

(* The retry loops below are toplevel functions threading a
   [Sync.Backoff.retry] option from [None], so an uncontended op
   allocates only its nodes: no backoff record, no per-call closure. *)

(* Splice the pre-linked chain [first .. last] after the current last
   node ([chain] is [Some first], boxed once by the caller), then swing
   the tail to [last]. *)
let rec link t chain last b =
  let tl = Atomic.get t.tail in
  match Atomic.get tl.next with
  | None ->
      if counted_cas t tl.next None chain then
        (* Lag repair is best-effort: a failure means someone helped. *)
        ignore (counted_cas t t.tail tl last)
      else link t chain last (Sync.Backoff.retry b)
  | Some nxt ->
      (* Tail is lagging; help swing it and retry. *)
      ignore (counted_cas t t.tail tl nxt);
      link t chain last b

let enqueue_chain t first last = link t (Some first) last None

let enqueue t x =
  let n = make_node (Some x) in
  enqueue_chain t n n

let enqueue_list t xs =
  match xs with
  | [] -> ()
  | x1 :: rest ->
      let first = make_node (Some x1) in
      let last =
        List.fold_left
          (fun prev x ->
            let n = make_node (Some x) in
            Atomic.set prev.next (Some n);
            n)
          first rest
      in
      enqueue_chain t first last

let rec dequeue_loop t b =
  let hd = Atomic.get t.head in
  match Atomic.get hd.next with
  | None -> None
  | Some nxt ->
      (* Help a lagging tail forward so it never ends up behind the
         head. *)
      let tl = Atomic.get t.tail in
      if tl == hd then ignore (counted_cas t t.tail tl nxt);
      (* [nxt] becomes the dummy: hand out its [Some v] box as is and
         drop the reference so the dummy does not pin the value. *)
      let v = nxt.value in
      if counted_cas t t.head hd nxt then begin
        nxt.value <- None;
        v
      end
      else dequeue_loop t (Sync.Backoff.retry b)

let dequeue t = dequeue_loop t None

(* Indexed-segment variants of [enqueue_list]/[dequeue_many] for the FL
   flush paths: the whole window is spliced from / delivered to a ring
   buffer without building an intermediate list. *)

let enqueue_seg t ~n ~get =
  if n < 0 then invalid_arg "Ms_queue.enqueue_seg: negative count";
  if n > 0 then begin
    let first = make_node (Some (get 0)) in
    let last = ref first in
    for i = 1 to n - 1 do
      let nd = make_node (Some (get i)) in
      Atomic.set !last.next (Some nd);
      last := nd
    done;
    enqueue_chain t first !last
  end

(* The up-to-[n]-th node after the dummy, [node] being the [k]-th,
   helping the tail forward whenever we are about to pass it. *)
let rec seg_last t node k n =
  if k = n then node
  else
    match Atomic.get node.next with
    | None -> node
    | Some nxt ->
        let tl = Atomic.get t.tail in
        if tl == node then ignore (counted_cas t t.tail tl nxt);
        seg_last t nxt (k + 1) n

(* Walk the detached chain after [node] up to [last], handing each
   node's [Some v] box to [f] in FIFO order; returns how many. Each value
   is dropped from its node: [last] is the new dummy and must not pin the
   value it handed out; the others are garbage anyway. *)
let rec deliver f node last i =
  match Atomic.get node.next with
  | None -> assert false
  | Some nxt ->
      f i nxt.value;
      nxt.value <- None;
      if nxt == last then i + 1 else deliver f nxt last (i + 1)

let rec dequeue_seg_loop t n f b =
  let hd = Atomic.get t.head in
  let last = seg_last t hd 0 n in
  if last == hd then 0
  else if counted_cas t t.head hd last then deliver f hd last 0
  else dequeue_seg_loop t n f (Sync.Backoff.retry b)

let dequeue_seg t ~n ~f =
  if n < 0 then invalid_arg "Ms_queue.dequeue_seg: negative count";
  if n = 0 then 0 else dequeue_seg_loop t n f None

let dequeue_many t n =
  if n < 0 then invalid_arg "Ms_queue.dequeue_many: negative count";
  let acc = ref [] in
  ignore (dequeue_seg t ~n ~f:(fun _ v -> acc := Option.get v :: !acc) : int);
  List.rev !acc

let peek t =
  let hd = Atomic.get t.head in
  match Atomic.get hd.next with
  | None -> None
  | Some n -> n.value

let is_empty t =
  let hd = Atomic.get t.head in
  Atomic.get hd.next = None

let to_list t =
  let rec loop acc node =
    match Atomic.get node.next with
    | None -> List.rev acc
    | Some n ->
        let acc = match n.value with Some v -> v :: acc | None -> acc in
        loop acc n
  in
  loop [] (Atomic.get t.head)

let length t = List.length (to_list t)

let cas_count t = Sync.Cas_counter.total t.casc
let reset_cas_count t = Sync.Cas_counter.reset t.casc
