(* Tests for the preallocated ring buffer behind the FL pending windows:
   model-based qcheck properties exercising wraparound and growth, unit
   tests for the window operations, allocation-budget checks on the
   weak-stack flush path and the slack-1 op path, and the Slack drain
   reentrancy and raising-thunk regressions. *)

module B = Fl.Opbuf
module R = Fl.Registry

(* ------------------------- unit: basics ----------------------------- *)

let test_basics () =
  let b = B.create () in
  Alcotest.(check bool) "empty" true (B.is_empty b);
  Alcotest.(check int) "len 0" 0 (B.length b);
  for i = 1 to 5 do
    B.push b i
  done;
  Alcotest.(check int) "len 5" 5 (B.length b);
  Alcotest.(check int) "get 0 oldest" 1 (B.get b 0);
  Alcotest.(check int) "get 4 newest" 5 (B.get b 4);
  Alcotest.(check (list int)) "to_list oldest first" [ 1; 2; 3; 4; 5 ]
    (B.to_list b);
  Alcotest.(check int) "pop_back newest" 5 (B.pop_back b);
  B.drop_front b 2;
  Alcotest.(check (list int)) "after drop_front" [ 3; 4 ] (B.to_list b);
  B.set b 0 30;
  Alcotest.(check (list int)) "after set" [ 30; 4 ] (B.to_list b);
  B.clear b;
  Alcotest.(check bool) "cleared" true (B.is_empty b)

let test_bounds () =
  let b = B.create () in
  B.push b 1;
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Opbuf.get: index out of range") (fun () ->
      ignore (B.get b 1));
  Alcotest.check_raises "pop_back empty"
    (Invalid_argument "Opbuf.pop_back: empty") (fun () ->
      ignore (B.pop_back (B.create () : int B.t)));
  Alcotest.check_raises "drop_front beyond"
    (Invalid_argument "Opbuf.drop_front: bad count") (fun () ->
      B.drop_front b 2)

(* Growth across the initial capacity, with a head offset so the unroll
   path (wrapped ring -> rebased array) is exercised. *)
let test_growth_wrapped () =
  let b = B.create ~capacity:4 () in
  (* Offset the head: push then drop so head <> 0. *)
  for i = 0 to 2 do
    B.push b i
  done;
  B.drop_front b 3;
  (* Now fill past the physical end and through several doublings. *)
  let n = 100 in
  for i = 0 to n - 1 do
    B.push b i
  done;
  Alcotest.(check int) "length" n (B.length b);
  Alcotest.(check (list int)) "order preserved across growth"
    (List.init n Fun.id) (B.to_list b);
  Alcotest.(check bool) "capacity grew" true (B.capacity b >= n)

let test_iter_orders () =
  let b = B.create ~capacity:2 () in
  for i = 1 to 6 do
    B.push b i
  done;
  let fwd = ref [] in
  B.iter (fun x -> fwd := x :: !fwd) b;
  Alcotest.(check (list int)) "iter oldest first" [ 1; 2; 3; 4; 5; 6 ]
    (List.rev !fwd)

let test_truncate_swap () =
  let a = B.create () and b = B.create () in
  for i = 1 to 8 do
    B.push a i
  done;
  B.truncate a 3;
  Alcotest.(check (list int)) "truncate keeps oldest" [ 1; 2; 3 ]
    (B.to_list a);
  B.push b 99;
  B.swap a b;
  Alcotest.(check (list int)) "swap a" [ 99 ] (B.to_list a);
  Alcotest.(check (list int)) "swap b" [ 1; 2; 3 ] (B.to_list b)

(* ------------------------ unit: tombstones --------------------------- *)

let test_tombstones_basic () =
  let b = B.create () in
  for i = 1 to 5 do
    B.push b i
  done;
  B.delete b 1;
  B.delete b 3;
  Alcotest.(check bool) "deleted flagged" true (B.deleted b 1);
  Alcotest.(check bool) "live slot not flagged" false (B.deleted b 0);
  Alcotest.(check int) "length keeps logical indices" 5 (B.length b);
  Alcotest.(check int) "live counts survivors" 3 (B.live b);
  Alcotest.(check (list int)) "to_list skips tombstones" [ 1; 3; 5 ]
    (B.to_list b);
  Alcotest.check_raises "get on deleted slot"
    (Invalid_argument "Opbuf.get: deleted slot") (fun () ->
      ignore (B.get b 1));
  Alcotest.(check int) "neighbours untouched" 3 (B.get b 2);
  let fwd = ref [] in
  B.iter (fun x -> fwd := x :: !fwd) b;
  Alcotest.(check (list int)) "iter skips tombstones" [ 1; 3; 5 ]
    (List.rev !fwd)

let test_tombstones_compact () =
  let b = B.create ~capacity:4 () in
  (* Offset head so compaction crosses the ring's physical wrap. *)
  for i = 0 to 2 do
    B.push b i
  done;
  B.drop_front b 3;
  for i = 1 to 7 do
    B.push b i
  done;
  B.delete b 0;
  B.delete b 2;
  B.delete b 6;
  Alcotest.(check int) "compact returns survivors" 4 (B.compact b);
  Alcotest.(check int) "length shrank" 4 (B.length b);
  Alcotest.(check (list int)) "order preserved" [ 2; 4; 5; 6 ] (B.to_list b);
  (* Survivors are real elements again: indexable, poppable. *)
  Alcotest.(check int) "get 0" 2 (B.get b 0);
  Alcotest.(check int) "pop_back" 6 (B.pop_back b);
  (* Compacting a clean buffer is the identity. *)
  Alcotest.(check int) "idempotent" 3 (B.compact b);
  Alcotest.(check (list int)) "unchanged" [ 2; 4; 5 ] (B.to_list b)

let test_tombstones_pop_back_skips () =
  let b = B.create () in
  for i = 1 to 4 do
    B.push b i
  done;
  B.delete b 3;
  B.delete b 2;
  Alcotest.(check int) "pop_back skips trailing tombstones" 2 (B.pop_back b);
  Alcotest.(check int) "length consumed the tombstones" 1 (B.length b);
  B.delete b 0;
  Alcotest.check_raises "all-tombstone buffer pops empty"
    (Invalid_argument "Opbuf.pop_back: empty") (fun () ->
      ignore (B.pop_back b))

let test_tombstones_parallel_rings () =
  (* The weak-stack flush discipline: two index-aligned rings, a cancelled
     op tombstoned at the same index in both, then both compacted — the
     pairing of survivors must be preserved. *)
  let vals = B.create () and tags = B.create () in
  for i = 1 to 6 do
    B.push vals (i * 10);
    B.push tags (Printf.sprintf "t%d" i)
  done;
  List.iter
    (fun i ->
      B.delete vals i;
      B.delete tags i)
    [ 1; 4 ];
  Alcotest.(check int) "vals compact" 4 (B.compact vals);
  Alcotest.(check int) "tags compact" 4 (B.compact tags);
  for i = 0 to B.length vals - 1 do
    let v = B.get vals i and tag = B.get tags i in
    Alcotest.(check string)
      (Printf.sprintf "pair %d aligned" i)
      (Printf.sprintf "t%d" (v / 10))
      tag
  done

(* The property version of the same invariant: an arbitrary interleaving
   of pushes, same-index deletes, and compactions applied to two rings —
   deliberately created with different capacities, so growth and
   wraparound happen at different times — must keep them index-aligned:
   equal lengths, identical tombstone positions, and every live slot
   still holding its partner's value. This is the alignment contract the
   weak-stack flush path relies on when it cancels a window entry. *)
let prop_parallel_rings_aligned =
  QCheck.Test.make ~name:"parallel rings aligned under delete/compact"
    ~count:400
    QCheck.(list (pair (int_bound 5) (int_bound 30)))
    (fun script ->
      let vals = B.create ~capacity:2 () in
      let tags = B.create ~capacity:16 () in
      let counter = ref 0 in
      let aligned () =
        B.length vals = B.length tags
        && B.live vals = B.live tags
        &&
        let ok = ref true in
        for i = 0 to B.length vals - 1 do
          if B.deleted vals i <> B.deleted tags i then ok := false
          else if
            (not (B.deleted vals i)) && B.get tags i <> B.get vals i * 10
          then ok := false
        done;
        !ok
      in
      let step (kind, arg) =
        match kind with
        | 0 | 1 | 2 ->
            (* Bias toward pushes so deletes and compactions have
               something to chew on. *)
            incr counter;
            B.push vals !counter;
            B.push tags (!counter * 10);
            true
        | 3 | 4 ->
            let len = B.length vals in
            if len > 0 then begin
              let i = arg mod len in
              B.delete vals i;
              B.delete tags i
            end;
            true
        | _ -> B.compact vals = B.compact tags
      in
      List.for_all (fun op -> step op && aligned ()) script
      && B.compact vals = B.compact tags
      && aligned ())

(* -------------------- qcheck: list-model parity ---------------------- *)

(* Script: true = push of the (fresh) counter value; false = one of the
   removal operations, selected by the attached int. Model is a plain
   list, oldest first. *)
let prop_model =
  QCheck.Test.make ~name:"opbuf matches list model (wraparound + growth)"
    ~count:1000
    QCheck.(list (pair bool (int_bound 2)))
    (fun script ->
      let b = B.create ~capacity:2 () in
      let model = ref [] in
      let counter = ref 0 in
      List.iter
        (fun (is_push, sel) ->
          if is_push then begin
            incr counter;
            B.push b !counter;
            model := !model @ [ !counter ]
          end
          else
            match sel with
            | 0 ->
                (* pop_back: remove newest *)
                if !model <> [] then begin
                  let expected = List.nth !model (List.length !model - 1) in
                  let got = B.pop_back b in
                  if got <> expected then
                    QCheck.Test.fail_reportf "pop_back: got %d, want %d" got
                      expected;
                  model :=
                    List.filteri
                      (fun i _ -> i < List.length !model - 1)
                      !model
                end
            | 1 ->
                (* drop_front: remove a prefix *)
                if !model <> [] then begin
                  let n = 1 + (!counter mod List.length !model) in
                  let n = min n (List.length !model) in
                  B.drop_front b n;
                  model := List.filteri (fun i _ -> i >= n) !model
                end
            | _ ->
                (* truncate to half *)
                let n = List.length !model / 2 in
                B.truncate b n;
                model := List.filteri (fun i _ -> i < n) !model)
        script;
      B.to_list b = !model
      && B.length b = List.length !model
      && List.for_all2 ( = )
           (List.init (B.length b) (B.get b))
           !model)

(* FIFO through the ring: interleaved push/drop_front at ring-wrapping
   sizes preserves arrival order. *)
let prop_fifo =
  QCheck.Test.make ~name:"opbuf FIFO order under wraparound" ~count:500
    QCheck.(int_bound 5)
    (fun chunk ->
      let chunk = chunk + 1 in
      let b = B.create ~capacity:4 () in
      let next_in = ref 0 and next_out = ref 0 and ok = ref true in
      for _ = 1 to 50 do
        for _ = 1 to chunk do
          B.push b !next_in;
          incr next_in
        done;
        let take = B.length b / 2 in
        for i = 0 to take - 1 do
          if B.get b i <> !next_out + i then ok := false
        done;
        B.drop_front b take;
        next_out := !next_out + take
      done;
      !ok)

(* ---------------- allocation budget: weak-stack flush ---------------- *)

(* A full window's flush must allocate O(1) beyond the spliced nodes and
   the futures themselves: the ring is reused, no transient lists. Budget:
   push+flush ≤ 22 words/op (was ~30 with list windows; now ~18: future +
   stack node + CAS-counter noise), pop+flush ≤ 19 (was ~27). Skipped
   under FLDS_FAULTS: armed injection points allocate on the paths being
   budgeted. *)
let test_alloc_budget () =
  if Faults.enabled () then Alcotest.skip ();
  let window = 64 and iters = 500 in
  let s = Fl.Weak_stack.create ~elimination:false () in
  let h = Fl.Weak_stack.handle s in
  let measure f =
    for _ = 1 to 10 do
      f ()
    done;
    Gc.full_major ();
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int (iters * window)
  in
  let push_words =
    measure (fun () ->
        for i = 1 to window do
          ignore (Fl.Weak_stack.push h i)
        done;
        Fl.Weak_stack.flush h)
  in
  let pop_words =
    measure (fun () ->
        for _ = 1 to window do
          ignore (Fl.Weak_stack.pop h)
        done;
        Fl.Weak_stack.flush h)
  in
  Alcotest.(check bool)
    (Printf.sprintf "push+flush %.1f words/op within budget" push_words)
    true (push_words <= 22.0);
  Alcotest.(check bool)
    (Printf.sprintf "pop+flush %.1f words/op within budget" pop_words)
    true (pop_words <= 19.0)

(* ---------------- allocation budget: the slack-1 op path ---------------- *)

(* At slack 1 every op pays the whole per-op path on its own: the
   Registry closure, a future carrying its handle's shared evaluator, a
   one-op window applied with one CAS, and the Slack drain. Ops are
   issued one at a time through Fl.Registry and forced by
   Fl.Slack.create 1, a push (enqueue) then a pop (dequeue). Budget: 24
   words/op, counting the caller's force thunk (now 16-20; closures per
   op and per flush, a Fun.protect per drain and a backoff record per
   lock-free call cost about 60). Skipped under FLDS_FAULTS: armed
   injection points allocate on the paths being budgeted. *)
let test_slack1_budget () =
  if Faults.enabled () then Alcotest.skip ();
  let warm = 100 and iters = 2000 in
  let run label ~add ~remove =
    let sl = Fl.Slack.create 1 in
    let got = ref 0 in
    let pair () =
      let f = add 7 in
      Fl.Slack.note sl (fun () -> Futures.Future.force f);
      let g = remove () in
      Fl.Slack.note sl (fun () ->
          match Futures.Future.force g with Some 7 -> incr got | _ -> ())
    in
    for _ = 1 to warm do
      pair ()
    done;
    Gc.full_major ();
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      pair ()
    done;
    let per_op = (Gc.minor_words () -. before) /. float_of_int (2 * iters) in
    Alcotest.(check int)
      (label ^ ": every removal got its add")
      (warm + iters) !got;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f words/op within budget" label per_op)
      true (per_op <= 24.0)
  in
  List.iter
    (fun name ->
      let s = ((R.find_stack name).R.s_make ()).R.s_handle () in
      run (name ^ " stack") ~add:s.R.s_push ~remove:s.R.s_pop;
      let q = ((R.find_queue name).R.q_make ()).R.q_handle () in
      run (name ^ " queue") ~add:q.R.q_enq ~remove:q.R.q_deq)
    [ "weak"; "medium" ]

(* ---------------- Slack drain reentrancy regression ------------------ *)

(* A force thunk that reentrantly notes follow-up work must not corrupt
   the half-drained window: the reentrant registrations land in a fresh
   window and are drained before [drain] returns, each exactly once. *)
let test_slack_reentrant_note () =
  let sl = Fl.Slack.create ~order:Fl.Slack.Newest_first 4 in
  let fired = ref [] in
  let rec thunk ~respawn id () =
    fired := id :: !fired;
    if respawn then
      (* A follow-up operation issued from inside the force, as a
         medium-FL evaluator would: must be drained too, once. *)
      Fl.Slack.note sl (thunk ~respawn:false (id + 100))
  in
  for id = 1 to 3 do
    Fl.Slack.note sl (thunk ~respawn:true id)
  done;
  (* The 4th note fills the window and triggers the drain; its thunk
     respawns as well. *)
  Fl.Slack.note sl (thunk ~respawn:true 4);
  let sorted = List.sort compare !fired in
  Alcotest.(check (list int)) "each thunk fired exactly once"
    [ 1; 2; 3; 4; 101; 102; 103; 104 ] sorted;
  Alcotest.(check int) "window empty after drain" 0 (Fl.Slack.pending sl);
  (* Explicit drain on a partially filled window with reentrant notes. *)
  fired := [];
  Fl.Slack.note sl (thunk ~respawn:true 10);
  Fl.Slack.drain sl;
  Alcotest.(check (list int)) "explicit drain settles follow-ups"
    [ 10; 110 ] (List.sort compare !fired);
  Alcotest.(check int) "empty again" 0 (Fl.Slack.pending sl)

exception Boom

(* A force thunk that raises must leave the window consistent: the
   thunks that ran (the raiser included) are dropped, the un-run ones go
   back to the front of the window in their order, ahead of anything
   noted reentrantly, the drain can run again, and the exception
   propagates. *)
let test_slack_raising_thunk () =
  let ran = ref [] in
  let thunk id () =
    ran := id :: !ran;
    if id = 1 then raise Boom
  in
  (* Newest first: thunk 2 runs, thunk 1 raises, thunk 0 is left. *)
  let sl = Fl.Slack.create 3 in
  Fl.Slack.note sl (thunk 0);
  Fl.Slack.note sl (thunk 1);
  Alcotest.check_raises "the filling note drains and re-raises" Boom
    (fun () -> Fl.Slack.note sl (thunk 2));
  Alcotest.(check (list int)) "ran newest first up to the raiser" [ 2; 1 ]
    (List.rev !ran);
  Alcotest.(check int) "the un-run thunk stays pending" 1
    (Fl.Slack.pending sl);
  ran := [];
  Fl.Slack.drain sl;
  Alcotest.(check (list int)) "the next drain runs only the un-run thunk"
    [ 0 ] (List.rev !ran);
  Alcotest.(check int) "window empty" 0 (Fl.Slack.pending sl);
  (* Oldest first, the raiser noting a follow-up before it raises. *)
  let sl = Fl.Slack.create ~order:Fl.Slack.Oldest_first 8 in
  ran := [];
  let raiser () =
    ran := 1 :: !ran;
    Fl.Slack.note sl (thunk 9);
    raise Boom
  in
  List.iter (Fl.Slack.note sl) [ thunk 0; raiser; thunk 2; thunk 3 ];
  Alcotest.check_raises "drain re-raises" Boom (fun () -> Fl.Slack.drain sl);
  Alcotest.(check (list int)) "ran oldest first up to the raiser" [ 0; 1 ]
    (List.rev !ran);
  Alcotest.(check int) "un-run and follow-up thunks pending" 3
    (Fl.Slack.pending sl);
  ran := [];
  Fl.Slack.drain sl;
  Alcotest.(check (list int))
    "un-run thunks first, in order, then the follow-up" [ 2; 3; 9 ]
    (List.rev !ran);
  Alcotest.(check int) "window empty again" 0 (Fl.Slack.pending sl)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "opbuf"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "growth wrapped" `Quick test_growth_wrapped;
          Alcotest.test_case "iteration orders" `Quick test_iter_orders;
          Alcotest.test_case "truncate + swap" `Quick test_truncate_swap;
        ]
        @ qsuite [ prop_model; prop_fifo ] );
      ( "tombstones",
        [
          Alcotest.test_case "delete/deleted/live" `Quick
            test_tombstones_basic;
          Alcotest.test_case "compact across wrap" `Quick
            test_tombstones_compact;
          Alcotest.test_case "pop_back skips" `Quick
            test_tombstones_pop_back_skips;
          Alcotest.test_case "parallel rings stay aligned" `Quick
            test_tombstones_parallel_rings;
        ]
        @ qsuite [ prop_parallel_rings_aligned ] );
      ( "allocation",
        [
          Alcotest.test_case "weak-stack flush budget" `Quick test_alloc_budget;
          Alcotest.test_case "slack-1 op budget" `Quick test_slack1_budget;
        ] );
      ( "slack",
        [
          Alcotest.test_case "reentrant note during drain" `Quick
            test_slack_reentrant_note;
          Alcotest.test_case "raising thunk during drain" `Quick
            test_slack_raising_thunk;
        ] );
    ]
