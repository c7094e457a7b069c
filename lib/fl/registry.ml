module Future = Futures.Future

module Int_key = struct
  type t = int

  let compare = Int.compare
end

module Harris = Lockfree.Harris_list.Make (Int_key)
module WL = Weak_list.Make (Int_key)
module ML = Medium_list.Make (Int_key)
module SL = Strong_list.Make (Int_key)
module TL = Txn_list.Make (Int_key)
module FCSet = Combining.Fc_set.Make (Int_key)

(* -------------------------------------------------------------------- *)
(* Stacks                                                               *)

type stack_ops = {
  s_push : int -> unit Future.t;
  s_pop : unit -> int option Future.t;
  s_flush : unit -> unit;
  s_abandon : unit -> int;
}

type stack_instance = {
  s_handle : unit -> stack_ops;
  s_drain : unit -> unit;
  s_cas_count : unit -> int;
  s_contents : unit -> int list;
}

type stack_impl = { s_name : string; s_make : unit -> stack_instance }

(* Handle-free entries — the baselines, whose futures are already
   fulfilled, and strong-FL, whose pending state is shared and settled by
   [drain] — have no per-handle window: nothing to flush or abandon.
   [ops] builds one domain's operations. *)
let immediate_stack ?(drain = ignore) ~cas_count ~contents ops =
  {
    s_handle =
      (fun () ->
        let s_push, s_pop = ops () in
        { s_push; s_pop; s_flush = ignore; s_abandon = (fun () -> 0) });
    s_drain = drain;
    s_cas_count = cas_count;
    s_contents = contents;
  }

(* A weak/medium-FL stack over the shared Treiber stack it exposes. *)
module Handle_stack (S : Fl_intf.HANDLE_STACK) = struct
  let instance s =
    {
      s_handle =
        (fun () ->
          let h = S.handle s in
          {
            s_push = (fun x -> S.push h x);
            s_pop = (fun () -> S.pop h);
            s_flush = (fun () -> S.flush h);
            s_abandon = (fun () -> S.abandon h);
          });
      s_drain = ignore;
      s_cas_count =
        (fun () -> Lockfree.Treiber_stack.cas_count (S.shared s));
      s_contents = (fun () -> Lockfree.Treiber_stack.to_list (S.shared s));
    }
end

module WS = Handle_stack (Weak_stack)
module MS = Handle_stack (Medium_stack)

let lockfree_stack () =
  let s = Lockfree.Treiber_stack.create () in
  immediate_stack
    ~cas_count:(fun () -> Lockfree.Treiber_stack.cas_count s)
    ~contents:(fun () -> Lockfree.Treiber_stack.to_list s)
    (fun () ->
      ( (fun x ->
          Lockfree.Treiber_stack.push s x;
          Future.of_value ()),
        fun () -> Future.of_value (Lockfree.Treiber_stack.pop s) ))

let weak_stack_with ?(exchange = false) ~elimination () =
  WS.instance (Weak_stack.create ~elimination ~exchange ())

let weak_stack () = weak_stack_with ~elimination:true ()

let weak_exchange_stack () = weak_stack_with ~exchange:true ~elimination:true ()

let medium_stack () = MS.instance (Medium_stack.create ())

let strong_stack () =
  let s = Strong_stack.create () in
  immediate_stack
    ~drain:(fun () -> Strong_stack.drain s)
    ~cas_count:(fun () -> Strong_stack.pending_cas_count s)
    ~contents:(fun () -> Strong_stack.to_list s)
    (fun () -> ((fun x -> Strong_stack.push s x), fun () -> Strong_stack.pop s))

let fc_stack () =
  let s = Combining.Fc_stack.create () in
  (* Flat combining synchronizes through its lock and publication list,
     not CAS on the structure; report 0. *)
  immediate_stack
    ~cas_count:(fun () -> 0)
    ~contents:(fun () -> Combining.Fc_stack.to_list s)
    (fun () ->
      let h = Combining.Fc_stack.handle s in
      ( (fun x ->
          Combining.Fc_stack.push h x;
          Future.of_value ()),
        fun () -> Future.of_value (Combining.Fc_stack.pop h) ))

let elim_stack () =
  let s = Lockfree.Elimination_stack.create () in
  immediate_stack
    ~cas_count:(fun () -> Lockfree.Elimination_stack.cas_count s)
    ~contents:(fun () -> Lockfree.Elimination_stack.to_list s)
    (fun () ->
      ( (fun x ->
          Lockfree.Elimination_stack.push s x;
          Future.of_value ()),
        fun () -> Future.of_value (Lockfree.Elimination_stack.pop s) ))

let stack_impls =
  [
    { s_name = "lockfree"; s_make = lockfree_stack };
    { s_name = "elim"; s_make = elim_stack };
    { s_name = "flatcomb"; s_make = fc_stack };
    { s_name = "weak"; s_make = weak_stack };
    { s_name = "weak-x"; s_make = weak_exchange_stack };
    { s_name = "medium"; s_make = medium_stack };
    { s_name = "strong"; s_make = strong_stack };
  ]

(* -------------------------------------------------------------------- *)
(* Queues                                                               *)

type queue_ops = {
  q_enq : int -> unit Future.t;
  q_deq : unit -> int option Future.t;
  q_flush : unit -> unit;
  q_abandon : unit -> int;
}

type queue_instance = {
  q_handle : unit -> queue_ops;
  q_drain : unit -> unit;
  q_cas_count : unit -> int;
  q_contents : unit -> int list;
}

type queue_impl = { q_name : string; q_make : unit -> queue_instance }

let immediate_queue ?(drain = ignore) ~cas_count ~contents ops =
  {
    q_handle =
      (fun () ->
        let q_enq, q_deq = ops () in
        { q_enq; q_deq; q_flush = ignore; q_abandon = (fun () -> 0) });
    q_drain = drain;
    q_cas_count = cas_count;
    q_contents = contents;
  }

(* A weak/medium-FL queue over the shared Michael–Scott queue it
   exposes. *)
module Handle_queue (Q : Fl_intf.HANDLE_QUEUE) = struct
  let instance q =
    {
      q_handle =
        (fun () ->
          let h = Q.handle q in
          {
            q_enq = (fun x -> Q.enqueue h x);
            q_deq = (fun () -> Q.dequeue h);
            q_flush = (fun () -> Q.flush h);
            q_abandon = (fun () -> Q.abandon h);
          });
      q_drain = ignore;
      q_cas_count = (fun () -> Lockfree.Ms_queue.cas_count (Q.shared q));
      q_contents = (fun () -> Lockfree.Ms_queue.to_list (Q.shared q));
    }
end

module WQ = Handle_queue (Weak_queue)
module MQ = Handle_queue (Medium_queue)

let lockfree_queue () =
  let q = Lockfree.Ms_queue.create () in
  immediate_queue
    ~cas_count:(fun () -> Lockfree.Ms_queue.cas_count q)
    ~contents:(fun () -> Lockfree.Ms_queue.to_list q)
    (fun () ->
      ( (fun x ->
          Lockfree.Ms_queue.enqueue q x;
          Future.of_value ()),
        fun () -> Future.of_value (Lockfree.Ms_queue.dequeue q) ))

let weak_queue () = WQ.instance (Weak_queue.create ())
let medium_queue () = MQ.instance (Medium_queue.create ())

let strong_queue () =
  let q = Strong_queue.create () in
  immediate_queue
    ~drain:(fun () -> Strong_queue.drain q)
    ~cas_count:(fun () -> Strong_queue.pending_cas_count q)
    ~contents:(fun () -> Strong_queue.to_list q)
    (fun () ->
      ((fun x -> Strong_queue.enqueue q x), fun () -> Strong_queue.dequeue q))

let fc_queue () =
  let q = Combining.Fc_queue.create () in
  immediate_queue
    ~cas_count:(fun () -> 0)
    ~contents:(fun () -> Combining.Fc_queue.to_list q)
    (fun () ->
      let h = Combining.Fc_queue.handle q in
      ( (fun x ->
          Combining.Fc_queue.enqueue h x;
          Future.of_value ()),
        fun () -> Future.of_value (Combining.Fc_queue.dequeue h) ))

let queue_impls =
  [
    { q_name = "lockfree"; q_make = lockfree_queue };
    { q_name = "flatcomb"; q_make = fc_queue };
    { q_name = "weak"; q_make = weak_queue };
    { q_name = "medium"; q_make = medium_queue };
    { q_name = "strong"; q_make = strong_queue };
  ]

(* -------------------------------------------------------------------- *)
(* Linked-list sets                                                     *)

type set_ops = {
  l_insert : int -> bool Future.t;
  l_remove : int -> bool Future.t;
  l_contains : int -> bool Future.t;
  l_flush : unit -> unit;
  l_abandon : unit -> int;
}

type set_instance = {
  l_handle : unit -> set_ops;
  l_drain : unit -> unit;
  l_cas_count : unit -> int;
  l_contents : unit -> int list;
}

type set_impl = { l_name : string; l_make : unit -> set_instance }

let immediate_set ?(drain = ignore) ~cas_count ~contents ops =
  {
    l_handle =
      (fun () ->
        let l_insert, l_remove, l_contains = ops () in
        {
          l_insert;
          l_remove;
          l_contains;
          l_flush = ignore;
          l_abandon = (fun () -> 0);
        });
    l_drain = drain;
    l_cas_count = cas_count;
    l_contents = contents;
  }

(* A weak/medium-FL set over its shared Harris list ([shared]; the set
   signature cannot name the list type of its key). *)
module Handle_set (S : Fl_intf.HANDLE_SET with module Key := Int_key) = struct
  let instance l ~shared =
    {
      l_handle =
        (fun () ->
          let h = S.handle l in
          {
            l_insert = (fun k -> S.insert h k);
            l_remove = (fun k -> S.remove h k);
            l_contains = (fun k -> S.contains h k);
            l_flush = (fun () -> S.flush h);
            l_abandon = (fun () -> S.abandon h);
          });
      l_drain = ignore;
      l_cas_count = (fun () -> Harris.cas_count shared);
      l_contents = (fun () -> Harris.to_list shared);
    }
end

module WLS = Handle_set (WL)
module MLS = Handle_set (ML)
module TLS = Handle_set (TL)

let lockfree_set () =
  let l = Harris.create () in
  immediate_set
    ~cas_count:(fun () -> Harris.cas_count l)
    ~contents:(fun () -> Harris.to_list l)
    (fun () ->
      ( (fun k -> Future.of_value (Harris.insert l k)),
        (fun k -> Future.of_value (Harris.remove l k)),
        fun k -> Future.of_value (Harris.contains l k) ))

let weak_set () =
  let l = WL.create () in
  WLS.instance l ~shared:(WL.shared l)

let medium_set_with ~resume_hint =
  let l = ML.create ~resume_hint () in
  MLS.instance l ~shared:(ML.shared l)

let medium_set () = medium_set_with ~resume_hint:true

let strong_set_with ~sort_batch =
  let l = SL.create ~sort_batch () in
  immediate_set
    ~drain:(fun () -> SL.drain l)
    ~cas_count:(fun () -> SL.pending_cas_count l)
    ~contents:(fun () -> SL.to_list l)
    (fun () ->
      ( (fun k -> SL.insert l k),
        (fun k -> SL.remove l k),
        fun k -> SL.contains l k ))

let strong_set () = strong_set_with ~sort_batch:true

let txn_set () =
  let l = TL.create () in
  TLS.instance l ~shared:(TL.shared l)

let fc_set () =
  let l = FCSet.create () in
  immediate_set
    ~cas_count:(fun () -> 0)
    ~contents:(fun () -> FCSet.to_list l)
    (fun () ->
      let h = FCSet.handle l in
      ( (fun k -> Future.of_value (FCSet.insert h k)),
        (fun k -> Future.of_value (FCSet.remove h k)),
        fun k -> Future.of_value (FCSet.contains h k) ))

let set_impls =
  [
    { l_name = "lockfree"; l_make = lockfree_set };
    { l_name = "flatcomb"; l_make = fc_set };
    { l_name = "weak"; l_make = weak_set };
    { l_name = "medium"; l_make = medium_set };
    { l_name = "strong"; l_make = strong_set };
    { l_name = "txn"; l_make = txn_set };
  ]

let find_stack name = List.find (fun i -> i.s_name = name) stack_impls
let find_queue name = List.find (fun i -> i.q_name = name) queue_impls
let find_set name = List.find (fun i -> i.l_name = name) set_impls
