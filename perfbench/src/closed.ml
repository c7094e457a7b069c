(* Closed-loop cells: two domains issue the paper's operation mixes back
   to back against one FL structure (obtained through Fl.Registry, as the
   evaluation harness does) and force their futures through a
   Fl.Slack window, for a fixed wall-clock duration per repeat. *)

module R = Fl.Registry
module F = Futures.Future
module D = Workload.Distribution
open Util

type kind = Stack | Queue | List
type cell = { kind : kind; impl : string; name : string }

let cell kind impl =
  let k = match kind with Stack -> "stack" | Queue -> "queue" | List -> "list" in
  { kind; impl; name = k ^ "." ^ impl }

let cells =
  [
    cell Stack "weak";
    cell Stack "medium";
    cell Queue "weak";
    cell Queue "medium";
    cell List "weak";
    cell List "medium";
  ]

let domains = 2
let key_range = D.default_key_range

(* What one domain did in one repeat. [adds]/[removes] count successful
   ones only (a pop that found the stack empty is not a remove). *)
type tally = {
  mutable ops : int;
  mutable adds : int;
  mutable removes : int;
  mutable failed : int;
  mutable words : float;
  mutable end_ns : int;
  submit : Buf.t;  (** ns inside the Registry op call, sampled ops *)
  force : Buf.t;  (** ns inside Future.force, sampled ops *)
}

(* Tracing: every [every]-th op of a domain is timed, and every
   [span_every]-th timed op also leaves spans; 0 is the untraced run,
   where the only extra work per op is that test. *)
let span_every = 8

type probe = {
  every : int;
  id_base : int;  (** keeps op ids apart across domains and from span ids *)
  spans : Spans.buf;
  parent : int;
  submit_name : string;
  force_name : string;
}

let new_tally () =
  {
    ops = 0;
    adds = 0;
    removes = 0;
    failed = 0;
    words = 0.0;
    end_ns = 0;
    submit = Buf.create 16;
    force = Buf.create 16;
  }

let submit_timed t pr id call =
  let t0 = now () in
  let f = call () in
  let t1 = now () in
  Buf.add t.submit (float_of_int (t1 - t0));
  if id mod (pr.every * span_every) = 0 then
    Spans.add pr.spans ~name:pr.submit_name ~id:(pr.id_base + id) ~parent:pr.parent t0 t1;
  f

(* Register [f]'s force with the slack window; [k] consumes the result. *)
let note sl t pr ~sampled ~id f k =
  if sampled then
    Fl.Slack.note sl (fun () ->
        let t0 = now () in
        let r = try Some (F.force f) with F.Cancelled | F.Broken _ -> None in
        let t1 = now () in
        Buf.add t.force (float_of_int (t1 - t0));
        if id mod (pr.every * span_every) = 0 then
          Spans.add pr.spans ~name:pr.force_name ~id:(pr.id_base + id) ~parent:pr.parent
            t0 t1;
        match r with Some v -> k v | None -> t.failed <- t.failed + 1)
  else
    Fl.Slack.note sl (fun () ->
        match F.force f with
        | v -> k v
        | exception (F.Cancelled | F.Broken _) -> t.failed <- t.failed + 1)

(* Ops between two looks at the stop flag. *)
let batch = 64

let run_loop ~slack ~stop t pr step finish =
  let sl = Fl.Slack.create slack in
  let i = ref 0 in
  while not (Atomic.get stop) do
    for _ = 1 to batch do
      let id = !i in
      incr i;
      step sl ~sampled:(pr.every > 0 && id mod pr.every = 0) ~id
    done
  done;
  t.ops <- !i;
  Fl.Slack.drain sl;
  finish ()

let stack_loop ~slack (o : R.stack_ops) ~rng ~stop t pr =
  let on_push () = () in
  let on_pop = function Some _ -> t.removes <- t.removes + 1 | None -> () in
  run_loop ~slack ~stop t pr
    (fun sl ~sampled ~id ->
      match D.stack_op rng with
      | D.Push v ->
          let f =
            if sampled then submit_timed t pr id (fun () -> o.R.s_push v)
            else o.R.s_push v
          in
          t.adds <- t.adds + 1;
          note sl t pr ~sampled ~id f on_push
      | D.Pop ->
          let f =
            if sampled then submit_timed t pr id o.R.s_pop else o.R.s_pop ()
          in
          note sl t pr ~sampled ~id f on_pop)
    o.R.s_flush

let queue_loop ~slack (o : R.queue_ops) ~rng ~stop t pr =
  let on_enq () = () in
  let on_deq = function Some _ -> t.removes <- t.removes + 1 | None -> () in
  run_loop ~slack ~stop t pr
    (fun sl ~sampled ~id ->
      match D.queue_op rng with
      | D.Enq v ->
          let f =
            if sampled then submit_timed t pr id (fun () -> o.R.q_enq v)
            else o.R.q_enq v
          in
          t.adds <- t.adds + 1;
          note sl t pr ~sampled ~id f on_enq
      | D.Deq ->
          let f =
            if sampled then submit_timed t pr id o.R.q_deq else o.R.q_deq ()
          in
          note sl t pr ~sampled ~id f on_deq)
    o.R.q_flush

let list_loop ~slack (o : R.set_ops) ~rng ~stop t pr =
  let on_ins b = if b then t.adds <- t.adds + 1 in
  let on_rem b = if b then t.removes <- t.removes + 1 in
  let on_contains (_ : bool) = () in
  run_loop ~slack ~stop t pr
    (fun sl ~sampled ~id ->
      match D.list_op ~key_range rng with
      | D.Insert k ->
          let f =
            if sampled then submit_timed t pr id (fun () -> o.R.l_insert k)
            else o.R.l_insert k
          in
          note sl t pr ~sampled ~id f on_ins
      | D.Remove k ->
          let f =
            if sampled then submit_timed t pr id (fun () -> o.R.l_remove k)
            else o.R.l_remove k
          in
          note sl t pr ~sampled ~id f on_rem
      | D.Contains k ->
          let f =
            if sampled then submit_timed t pr id (fun () -> o.R.l_contains k)
            else o.R.l_contains k
          in
          note sl t pr ~sampled ~id f on_contains)
    o.R.l_flush

(* A fresh structure. [handle ()] binds a domain's loop to its own handle
   (called in that domain, before the barrier); [contents] is read after
   [drain]. Lists start from [keys], inserted as the evaluation harness
   prefills them. *)
type inst = {
  handle :
    unit -> rng:Workload.Rng.t -> stop:bool Atomic.t -> tally -> probe -> unit;
  drain : unit -> unit;
  cas : unit -> int;
  contents : unit -> int list;
  prefill : int;
}

let prefill_keys ~seed = List.sort compare (D.initial_keys ~key_range ~seed ())

let make c ~slack ~keys =
  match c.kind with
  | Stack ->
      let i = (R.find_stack c.impl).R.s_make () in
      {
        handle = (fun () -> stack_loop ~slack (i.R.s_handle ()));
        drain = i.R.s_drain;
        cas = i.R.s_cas_count;
        contents = i.R.s_contents;
        prefill = 0;
      }
  | Queue ->
      let i = (R.find_queue c.impl).R.q_make () in
      {
        handle = (fun () -> queue_loop ~slack (i.R.q_handle ()));
        drain = i.R.q_drain;
        cas = i.R.q_cas_count;
        contents = i.R.q_contents;
        prefill = 0;
      }
  | List ->
      let i = (R.find_set c.impl).R.l_make () in
      let o = i.R.l_handle () in
      let fs = List.map o.R.l_insert keys in
      o.R.l_flush ();
      i.R.l_drain ();
      List.iter (fun f -> ignore (F.force f)) fs;
      {
        handle = (fun () -> list_loop ~slack (i.R.l_handle ()));
        drain = i.R.l_drain;
        cas = i.R.l_cas_count;
        contents = i.R.l_contents;
        prefill = List.length keys;
      }

type rep = {
  traced : bool;
  setup_s : float;  (** structure, prefill and handles *)
  ops : int;
  failed : int;
  tput : float;  (** completed ops/s *)
  words_per_op : float;  (** minor words, summed over domains *)
  cas_per_op : float;
  gc_per_kop : float;  (** minor collections per 1000 ops *)
  submit_ns : float array;
  force_ns : float array;
  errors : string list;
}

let rec strictly_ascending = function
  | a :: (b :: _ as tl) -> a < b && strictly_ascending tl
  | _ -> true

(* Sampling stride of the traced run: lists are ~100x slower per op. *)
let stride c = match c.kind with List -> 4 | Stack | Queue -> 64

let repeat c ~slack ~keys ~seed ~dur ~traced =
  let inst, make_ns = time_ns (fun () -> make c ~slack ~keys) in
  let cas0 = inst.cas () in
  let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
  let stop = Atomic.make false in
  let parent = if traced then Spans.fresh_id () else 0 in
  let r =
    parallel domains
      ~prepare:(fun d ->
        let loop = inst.handle () in
        let rng = Workload.Rng.create ~seed ~stream:d in
        let pr =
          {
            every = (if traced then stride c else 0);
            id_base = (d + 1) lsl 40;
            spans = Spans.local ();
            parent;
            submit_name = c.name ^ ".submit";
            force_name = c.name ^ ".force";
          }
        in
        (loop, rng, pr))
      ~work:(fun (loop, rng, pr) ->
        let t = new_tally () in
        let w0 = Gc.minor_words () in
        loop ~rng ~stop t pr;
        t.words <- Gc.minor_words () -. w0;
        t.end_ns <- now ();
        Spans.publish pr.spans;
        t)
      ~main:(fun () ->
        Unix.sleepf dur;
        Atomic.set stop true)
  in
  let ts = Array.to_list r.results in
  let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
  let end_ns = List.fold_left (fun a t -> max a t.end_ns) 0 ts in
  if traced then begin
    let b = Spans.local () in
    Spans.add b ~name:(c.name ^ ".repeat") ~id:parent ~parent:0 r.start_ns end_ns;
    Spans.publish b
  end;
  let cas = inst.cas () - cas0 in
  let gcs = (Gc.quick_stat ()).Gc.minor_collections - gc0 in
  inst.drain ();
  let contents = inst.contents () in
  let ops = sum (fun t -> t.ops) in
  let adds = sum (fun t -> t.adds) and removes = sum (fun t -> t.removes) in
  let expected = inst.prefill + adds - removes in
  let errors =
    (if List.length contents <> expected then
       [
         Printf.sprintf "%s: final size %d <> %d prefilled + %d adds - %d removes"
           c.name (List.length contents) inst.prefill adds removes;
       ]
     else [])
    @
    if c.kind = List && not (strictly_ascending contents) then
      [ c.name ^ ": final list is not strictly ascending" ]
    else []
  in
  let fops = float_of_int (max 1 ops) in
  {
    traced;
    setup_s = float_of_int (make_ns + r.prepare_ns) /. 1e9;
    ops;
    failed = sum (fun t -> t.failed);
    tput = fops /. (float_of_int (end_ns - r.start_ns) /. 1e9);
    words_per_op = List.fold_left (fun a t -> a +. t.words) 0.0 ts /. fops;
    cas_per_op = float_of_int cas /. fops;
    gc_per_kop = 1000.0 *. float_of_int gcs /. fops;
    submit_ns = Buf.concat (List.map (fun t -> t.submit) ts);
    force_ns = Buf.concat (List.map (fun t -> t.force) ts);
    errors;
  }

(* The closed-loop phase: one discarded warm-up round (the heap is still
   growing, which makes a first repeat up to ~1.8x slower), then one
   round per entry of [plan] (true = traced). A round runs every cell
   once, [dur] seconds on a fresh structure, so a slow spell of the host
   spreads over all cells instead of sinking one. Returns each cell's
   repeats in order, warm-up first. *)
let run cells ~slack ~seed ~dur ~plan =
  let keys = prefill_keys ~seed in
  let rounds =
    List.mapi
      (fun round traced ->
        List.mapi
          (fun i c ->
            repeat c ~slack ~keys ~seed:(seed + (1000 * i) + round) ~dur ~traced)
          cells)
      (false :: plan)
  in
  List.mapi (fun i c -> (c, List.map (fun reps -> List.nth reps i) rounds)) cells
