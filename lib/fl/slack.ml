type order = Newest_first | Oldest_first

type t = {
  mutable slack : int;
  order : order;
  window : (unit -> unit) Opbuf.t; (* oldest first *)
  (* Spare ring the window is detached into before any thunk runs: a
     force thunk may reentrantly [note] (an evaluator issuing follow-up
     operations), and those registrations must land in the fresh window,
     not in the half-iterated one. *)
  free : (unit -> unit) Opbuf.t;
  mutable draining : bool;
}

let create ?(order = Newest_first) slack =
  if slack < 1 then invalid_arg "Slack.create: slack must be >= 1";
  {
    slack;
    order;
    window = Opbuf.create ();
    free = Opbuf.create ();
    draining = false;
  }

let slack t = t.slack

(* Resizing entry point (Overload's Squeeze stage). A [t] is owned by one
   thread, but the admission controller writes from its own domain: a
   single immediate-int store is atomic in OCaml, and the owner merely
   drains earlier or later by one window — both orders are FL-correct,
   so no fence is needed. Shrinking below the current fill takes effect at the owner's
   next [note]. *)
let set_slack t n = t.slack <- (if n < 1 then 1 else n)

let pending t = Opbuf.length t.window

(* A force thunk raised after [ran] of [free]'s thunks were started (the
   raiser included): drop those, and put the un-run ones back at the
   front of the window, in their order and ahead of anything noted
   reentrantly meanwhile — they are older. *)
let requeue t ~ran =
  let n = Opbuf.length t.free in
  (match t.order with
  | Newest_first -> Opbuf.truncate t.free (n - ran)
  | Oldest_first -> Opbuf.drop_front t.free ran);
  Opbuf.iter (Opbuf.push t.free) t.window;
  Opbuf.swap t.window t.free;
  Opbuf.clear t.free

(* Run the detached window [free] in the configured order, from its
   [k]-th thunk on. *)
let rec run_free t n k =
  if k < n then begin
    let i =
      match t.order with Newest_first -> n - 1 - k | Oldest_first -> k
    in
    (* Bound first: [Opbuf.get t.free i ()] would build a partial
       application of [get] on every call. *)
    let force = Opbuf.get t.free i in
    match force () with
    | () -> run_free t n (k + 1)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        requeue t ~ran:(k + 1);
        t.draining <- false;
        Printexc.raise_with_backtrace e bt
  end
  else Opbuf.clear t.free

(* Forcing newest first, the first force reaches the deepest pending
   operation, so implementations that evaluate "until F is ready" (the
   medium-FL queue and list) resolve the whole window in one combined
   flush — the remaining forces find their futures already fulfilled.
   Forcing oldest-first degrades every evaluation to a single operation
   and disables the intra-evaluation optimizations of §4 (ablation D). *)
let drain t =
  if not t.draining then begin
    t.draining <- true;
    (* Loop: thunks registered reentrantly while draining fill the live
       window and are drained too before we return. *)
    while not (Opbuf.is_empty t.window) do
      Opbuf.swap t.window t.free;
      Obs.splice ~kind:Obs.Event.k_slack_drain ~n:(Opbuf.length t.free);
      run_free t (Opbuf.length t.free) 0
    done;
    t.draining <- false
  end

let abandon t =
  (* Recovery path: the owner is dead, so the registered force thunks
     must never run (each would re-enter the dead owner's handle). The
     futures they would have forced are poisoned by the handle's own
     [abandon]; here we just drop the thunks. *)
  let n = Opbuf.length t.window + Opbuf.length t.free in
  Opbuf.clear t.window;
  Opbuf.clear t.free;
  n

let note t force =
  Opbuf.push t.window force;
  if Opbuf.length t.window >= t.slack then drain t
