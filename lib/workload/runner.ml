type measurement = {
  threads : int;
  seconds : float;
  std_dev : float;
  throughput : float;
  cas_per_op : float;
  minor_words_per_op : float;
  killed : int;
  suppressed_failures : int;
  stall_warnings : int;
  poisoned : int;
  recovered : int;
}

type chaos = { c_seed : int; c_kill : bool; c_stall : float }

exception Killed_worker of int

let chaos ?(kill = true) ?(stall = 0.005) ~seed () =
  if stall < 0.0 then invalid_arg "Runner.chaos: stall must be non-negative";
  { c_seed = seed; c_kill = kill; c_stall = stall }

let time f =
  let t0 = Sync.Mono.now () in
  f ();
  Sync.Mono.now () -. t0

(* Per-worker lifecycle word, written once by the worker's own domain on
   the way out and read by the watchdog and the main thread. *)
let st_running = 0
let st_done = 1
let st_dead = 2

(* What a worker domain can reach through [heartbeat] and
   [set_abandon_hook]: its own beat counter and hook cell for the
   current repeat, installed in domain-local storage by the spawn
   wrapper. Outside a run the slot is empty and both calls are no-ops,
   so workloads can call them unconditionally. *)
type worker_slot = {
  beat : int Atomic.t;
  hook : (unit -> int) option Atomic.t;
}

let slot_key : worker_slot option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let heartbeat () =
  match Domain.DLS.get slot_key with
  | Some s -> Atomic.incr s.beat
  | None -> ()

let set_abandon_hook f =
  match Domain.DLS.get slot_key with
  | Some s -> Atomic.set s.hook (Some f)
  | None -> ()

(* The victim's plan for one repeat, drawn from the chaos seed: which
   thread misbehaves, after how many of its operations, and whether it
   dies there or stalls and resumes. *)
type victim_plan = Healthy | Die of int | Stall of int * float

let plan_victims ~chaos ~threads ~ops_per_thread ~rep =
  match chaos with
  | None -> Array.make threads Healthy
  | Some c ->
      let rng = Rng.create ~seed:c.c_seed ~stream:rep in
      let plans = Array.make threads Healthy in
      let victim = Rng.below rng threads in
      let cut = 1 + Rng.below rng (max 1 ops_per_thread) in
      plans.(victim) <-
        (if c.c_kill && Rng.bool rng then Die cut else Stall (cut, c.c_stall));
      plans

(* Shared recovery state for one repeat. [abandoned] is the once-flag
   per worker: whoever wins its CAS (watchdog mid-run, or the main
   thread's post-join sweep) runs the worker's abandon hook exactly
   once. *)
type recovery = {
  states : int Atomic.t array;
  beats : int Atomic.t array;
  hooks : (unit -> int) option Atomic.t array;
  abandoned : bool Atomic.t array;
  poisoned : int Atomic.t;
  recovered : int Atomic.t;
  stall_warnings : int Atomic.t;
}

let make_recovery threads =
  {
    states = Array.init threads (fun _ -> Atomic.make st_running);
    beats = Array.init threads (fun _ -> Atomic.make 0);
    hooks = Array.init threads (fun _ -> Atomic.make None);
    abandoned = Array.init threads (fun _ -> Atomic.make false);
    poisoned = Atomic.make 0;
    recovered = Atomic.make 0;
    stall_warnings = Atomic.make 0;
  }

(* Recover worker [i] if nobody has yet: run its abandon hook (poisoning
   its orphaned futures, detaching its windows) and count it. Only ever
   called for workers whose state word says Dead — a stalled worker may
   resume and must keep its live windows. *)
let try_abandon r i =
  if Atomic.compare_and_set r.abandoned.(i) false true then begin
    let n =
      match Atomic.get r.hooks.(i) with
      | Some hook ->
          let n = hook () in
          ignore (Atomic.fetch_and_add r.poisoned n);
          n
      | None -> 0
    in
    Atomic.incr r.recovered;
    (* The hook above already emitted one [future.poisoned] per orphan,
       so in a trace the poison events precede this recovery marker. *)
    Obs.worker_recovered ~worker:i ~poisoned:n
  end

(* One watchdog scan: recover dead workers, flag silent heartbeats. A
   worker is warned about only when it opted into heartbeats (beat > 0)
   and its beat did not advance over a whole interval while still
   Running — and only once per repeat. *)
let watchdog_scan r ~last_beats ~warned =
  Array.iteri
    (fun i st ->
      let s = Atomic.get st in
      if s = st_dead then try_abandon r i
      else if s = st_running then begin
        let b = Atomic.get r.beats.(i) in
        if b > 0 && b = last_beats.(i) && not warned.(i) then begin
          warned.(i) <- true;
          Atomic.incr r.stall_warnings;
          Obs.worker_stalled ~worker:i
        end;
        last_beats.(i) <- b
      end)
    r.states

let watchdog_loop r ~interval ~stop =
  let threads = Array.length r.states in
  let last_beats = Array.make threads (-1) in
  let warned = Array.make threads false in
  while not (Atomic.get stop) do
    Unix.sleepf interval;
    watchdog_scan r ~last_beats ~warned
  done

let run ~threads ~repeats ~ops_per_thread ~setup ~worker ?cas_total ?teardown
    ?chaos ?plan ?watchdog () =
  if threads <= 0 then invalid_arg "Runner.run: threads must be positive";
  if repeats <= 0 then invalid_arg "Runner.run: repeats must be positive";
  (match watchdog with
  | Some dt when dt <= 0.0 ->
      invalid_arg "Runner.run: watchdog interval must be positive"
  | _ -> ());
  let samples = Array.make repeats 0.0 in
  let cas_samples = Array.make repeats Float.nan in
  let words_samples = Array.make repeats 0.0 in
  let killed = ref 0 in
  let suppressed = ref 0 in
  let poisoned = ref 0 in
  let recovered = ref 0 in
  let stall_warnings = ref 0 in
  for rep = 0 to repeats - 1 do
    (* A scripted plan is (re)installed per repeat so its [at] indices
       count from each repeat's first hit, and uninstalled on every exit
       path — normal completion, a worker's genuine failure re-raised
       below, and watchdog-recovered deaths alike — so a failing repeat
       never leaks its fault script into the caller or the next run. *)
    (match plan with Some p -> Faults.install_plan p | None -> ());
    Fun.protect
      ~finally:(fun () ->
        match plan with Some p -> Faults.uninstall_plan p | None -> ())
    @@ fun () ->
    let ctx = setup () in
    let barrier = Sync.Barrier.create (threads + 1) in
    let cas_before = match cas_total with Some f -> f ctx | None -> 0 in
    let plans = plan_victims ~chaos ~threads ~ops_per_thread ~rep in
    let recovery = make_recovery threads in
    (* Per-domain minor-heap allocation, summed across workers.
       [Gc.minor_words] counts the calling domain only, so each worker
       measures its own delta and adds it here (words are integral). *)
    let words_acc = Atomic.make 0 in
    let spawn i =
      Domain.spawn (fun () ->
          Domain.DLS.set slot_key
            (Some { beat = recovery.beats.(i); hook = recovery.hooks.(i) });
          Sync.Barrier.wait barrier;
          let w0 = Gc.minor_words () in
          let body () =
            Fun.protect
              ~finally:(fun () ->
                let dw = int_of_float (Gc.minor_words () -. w0) in
                ignore (Atomic.fetch_and_add words_acc dw))
              (fun () ->
                match plans.(i) with
                | Healthy -> worker ctx ~thread:i ~ops:ops_per_thread
                | Die cut ->
                    (* Simulated mid-run death: the worker performs a
                       seeded prefix of its operations, then its domain
                       is lost — pending futures unforced, handles never
                       flushed. *)
                    worker ctx ~thread:i ~ops:(min cut ops_per_thread);
                    raise (Killed_worker i)
                | Stall (cut, stall) ->
                    let cut = min cut ops_per_thread in
                    worker ctx ~thread:i ~ops:cut;
                    Unix.sleepf stall;
                    worker ctx ~thread:i ~ops:(ops_per_thread - cut))
          in
          (* The state word is the watchdog's ground truth: Dead means
             this domain is unwinding and will never touch its handles
             again, so abandoning them is safe. *)
          match body () with
          | () -> Atomic.set recovery.states.(i) st_done
          | exception e ->
              Atomic.set recovery.states.(i) st_dead;
              (* Emitted from the dying domain itself, so the kill
                 timestamp precedes any recovery the watchdog performs. *)
              Obs.worker_killed ~worker:i;
              raise e)
    in
    let domains = List.init threads spawn in
    let wd_stop = Atomic.make false in
    let wd_domain =
      match watchdog with
      | Some interval ->
          Some
            (Domain.spawn (fun () ->
                 watchdog_loop recovery ~interval ~stop:wd_stop))
      | None -> None
    in
    (* Release all workers at once and time until the last finishes. Join
       every domain before acting on failures; chaos kills are expected
       and counted, the first genuine failure is re-raised (after
       teardown), and further genuine failures are counted as
       suppressed. *)
    let failure = ref None in
    let seconds =
      time (fun () ->
          Sync.Barrier.wait barrier;
          List.iter
            (fun d ->
              match Domain.join d with
              | () -> ()
              | exception Killed_worker _ -> incr killed
              | exception Faults.Killed _ ->
                  (* Scripted injection killed the worker mid-loop —
                     stronger than [Die], which lets the prefix flush:
                     here futures die pending. Expected, like [Die]. *)
                  incr killed
              | exception e ->
                  if !failure = None then failure := Some e
                  else incr suppressed)
            domains)
    in
    Atomic.set wd_stop true;
    (match wd_domain with Some d -> Domain.join d | None -> ());
    (* Post-join sweep: recover any dead worker the watchdog did not get
       to (or all of them, when no watchdog runs) before teardown reads
       the context, so orphaned futures are poisoned rather than left
       pending into the conformance checks. *)
    Array.iteri
      (fun i st -> if Atomic.get st = st_dead then try_abandon recovery i)
      recovery.states;
    poisoned := !poisoned + Atomic.get recovery.poisoned;
    recovered := !recovered + Atomic.get recovery.recovered;
    stall_warnings := !stall_warnings + Atomic.get recovery.stall_warnings;
    samples.(rep) <- seconds;
    words_samples.(rep) <-
      float_of_int (Atomic.get words_acc)
      /. float_of_int (threads * ops_per_thread);
    (match cas_total with
    | Some f ->
        let total_ops = threads * ops_per_thread in
        cas_samples.(rep) <-
          float_of_int (f ctx - cas_before) /. float_of_int total_ops
    | None -> ());
    (* Teardown must run even when a worker failed: it settles shared
       pending state, and skipping it would leak the failure into the
       next repeat's (fresh) context diagnostics. *)
    (match teardown with Some f -> f ctx | None -> ());
    match !failure with
    | Some e ->
        if !suppressed > 0 then
          Printf.eprintf
            "Runner.run: suppressed %d additional worker failure(s) behind \
             the re-raised one\n\
             %!"
            !suppressed;
        raise e
    | None -> ()
  done;
  let mean = Obs.Histogram.mean samples in
  {
    threads;
    seconds = mean;
    std_dev = Obs.Histogram.std_dev samples;
    throughput = float_of_int (threads * ops_per_thread) /. mean;
    cas_per_op =
      (if cas_total = None then Float.nan else Obs.Histogram.mean cas_samples);
    minor_words_per_op = Obs.Histogram.mean words_samples;
    killed = !killed;
    suppressed_failures = !suppressed;
    stall_warnings = !stall_warnings;
    poisoned = !poisoned;
    recovered = !recovered;
  }
