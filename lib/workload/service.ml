(* The open-loop service layer: a session model (job queue + session
   store, both FL structures) driven by open-loop arrival schedules and
   guarded by the Overload admission controller. See service.mli.

   Latency discipline: every request is stamped with its *intended*
   arrival time drawn from the Arrival schedule before any waiting or
   queueing happens, and its sojourn is recorded — at the moment its
   session-store future is forced — against that stamp. A generator
   that falls behind therefore charges the backlog to the system, not
   to the next request's clock: coordinated-omission-safe tails. *)

module Key = struct
  type t = int

  let compare = Int.compare
  let hash k = Hashtbl.hash k
end

module SM = Fl.Shard_map.Make (Key)
module WM = Fl.Weak_map.Make (Key)
module WQ = Fl.Weak_queue

type backend = Central | Sharded

let backend_name = function Central -> "central" | Sharded -> "sharded"

type config = {
  workers : int;
  requests_per_worker : int;
  process : Arrival.process;
  backend : backend;
  slack : int;
  buckets : int;
  lease_s : float;
  grant_timeout_s : float;
  key_range : int;
  seed : int;
  retry_attempts : int;
  queue_drain : int; (* dequeue this many jobs every queue_drain requests *)
  overload : Overload.config;
  epoch_s : float;
}

let default_config =
  {
    workers = 2;
    requests_per_worker = 10_000;
    process = Arrival.Poisson { rate = 50_000.0 };
    backend = Sharded;
    slack = 16;
    buckets = 8;
    (* A latency-sensitive service wants short leases: a quiet bucket
       owner may stall another worker's op for up to one lease, so the
       store default (50 ms) would put lease transfers straight into the
       sojourn tail. *)
    lease_s = 0.005;
    grant_timeout_s = 0.0005;
    key_range = 1024;
    seed = 2014;
    retry_attempts = 3;
    queue_drain = 16;
    overload = Overload.default;
    epoch_s = 0.002;
  }

type result = {
  offered : int;
  admitted : int;
  shed : int;
  completed : int;
  failed : int; (* admitted ops whose future was cancelled/poisoned *)
  store_poisoned : int; (* Shard_map.stats.poisoned, summed over repeats *)
  degraded_writes : int;
  retries : int; (* resubmissions the bounded-retry path attempted *)
  max_stage : Overload.stage;
  final_stage : Overload.stage;
  escalations : int;
  recoveries : int;
  controller_epochs : int;
  sojourn : Obs.Histogram.s;
  measurement : Runner.measurement;
}

let sojourn_p result p = Obs.Histogram.percentile_value result.sojourn p
let shed_rate r =
  if r.offered = 0 then 0.0
  else float_of_int r.shed /. float_of_int r.offered

(* Per-repeat shared context. *)
type ctx = {
  queue : int WQ.t;
  smap : int SM.t option;
  wmap : int WM.t option;
}

(* One session-store view bound to a worker's handle. *)
type session = {
  s_insert : int -> int -> bool Futures.Future.t;
  s_find : int -> int option Futures.Future.t;
  s_remove : int -> int option Futures.Future.t;
  s_flush : unit -> unit;
  s_abandon : unit -> int;
}

let session_of ctx =
  match (ctx.smap, ctx.wmap) with
  | Some m, _ ->
      let h = SM.handle m in
      {
        s_insert = (fun k v -> SM.insert h k v);
        s_find = (fun k -> SM.find h k);
        s_remove = (fun k -> SM.remove h k);
        s_flush = (fun () -> SM.flush h);
        s_abandon = (fun () -> SM.abandon h);
      }
  | None, Some m ->
      let h = WM.handle m in
      {
        s_insert = (fun k v -> WM.insert h k v);
        s_find = (fun k -> WM.find h k);
        s_remove = (fun k -> WM.remove h k);
        s_flush = (fun () -> WM.flush h);
        s_abandon = (fun () -> WM.abandon h);
      }
  | None, None -> assert false

type op = Read of int | Write of int | Evict of int

(* Job-queue tickets must be globally unique for the conformance
   monitor's distinct-value certificates: epoch (bumped once per
   measured repeat) over worker index over request number. *)
let ticket_epoch = Atomic.make 0

(* 60% reads / 30% writes / 10% removes over the session keyspace. *)
let pick_op rng ~key_range =
  let k = Rng.below rng key_range in
  let d = Rng.below rng 10 in
  if d < 6 then Read k else if d < 9 then Write k else Evict k

let run ?plan ?chaos ?watchdog ?(repeats = 1) (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Service.run: workers must be >= 1";
  if cfg.requests_per_worker < 1 then
    invalid_arg "Service.run: requests_per_worker must be >= 1";
  if cfg.slack < 1 then invalid_arg "Service.run: slack must be >= 1";
  if cfg.lease_s <= 0.0 || cfg.grant_timeout_s <= 0.0 then
    invalid_arg "Service.run: lease_s and grant_timeout_s must be > 0";
  if cfg.key_range < 1 then invalid_arg "Service.run: key_range must be >= 1";
  if cfg.retry_attempts < 1 then
    invalid_arg "Service.run: retry_attempts must be >= 1";
  if cfg.queue_drain < 1 then invalid_arg "Service.run: queue_drain must be >= 1";
  Arrival.validate cfg.process;
  let ov = Overload.create ~cfg:cfg.overload ~epoch:cfg.epoch_s () in
  let sojourn = Obs.Histogram.create () in
  let admitted = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let failed = Atomic.make 0 in
  let store_poisoned = Atomic.make 0 in
  let degraded_writes = Atomic.make 0 in
  let retries = Atomic.make 0 in
  let max_stage = Atomic.make 0 in
  let bump_stage () =
    let s = Overload.stage_index (Overload.stage ov) in
    let rec bump () =
      let cur = Atomic.get max_stage in
      if s > cur && not (Atomic.compare_and_set max_stage cur s) then bump ()
    in
    bump ()
  in
  let setup () =
    Atomic.incr ticket_epoch;
    match cfg.backend with
    | Sharded ->
        {
          queue = WQ.create ();
          smap =
            Some
              (SM.create ~buckets:cfg.buckets ~lease:cfg.lease_s
                 ~grant_timeout:cfg.grant_timeout_s ());
          wmap = None;
        }
    | Central ->
        { queue = WQ.create (); smap = None; wmap = Some (WM.create ()) }
  in
  let worker ctx ~thread ~ops =
    let rng = Rng.create ~seed:cfg.seed ~stream:thread in
    let sched = Arrival.schedule cfg.process ~rng in
    let qh = WQ.handle ctx.queue in
    let sess = session_of ctx in
    let sl = Fl.Slack.create cfg.slack in
    Overload.register_slack ov sl;
    (* Recovery: if this worker dies (chaos kill at any fault point),
       poison everything still pending in its windows so no waiter or
       teardown hangs on an op that will never be applied. *)
    Runner.set_abandon_hook (fun () ->
        let n = sess.s_abandon () + WQ.abandon qh in
        n + Fl.Slack.abandon sl);
    (* Force one admitted op's future, recording its sojourn against the
       intended arrival stamp. *)
    let note_completion ~stamp force =
      Fl.Slack.note sl (fun () ->
          match force () with
          | () ->
              let d = Sync.Mono.now_ns_int () - stamp in
              Obs.Histogram.record sojourn d;
              Obs.service_complete ~sojourn_ns:d;
              Atomic.incr completed
          | exception Futures.Future.Rejected -> ()
          | exception (Futures.Future.Cancelled | Futures.Future.Broken _) ->
              Atomic.incr failed)
    in
    (* The admission gate around one session op, as a future factory for
       the bounded-retry path. Writes are refused outright while the
       controller has degraded the store to read-only. *)
    let submit op =
      let gated mk =
        let calls = ref 0 in
        let f =
          Futures.Future.retry ~attempts:cfg.retry_attempts (fun () ->
              incr calls;
              if not (Overload.admit ov) then Futures.Future.rejected ()
              else mk ())
        in
        if !calls > 1 then ignore (Atomic.fetch_and_add retries (!calls - 1));
        f
      in
      match op with
      | Read k ->
          let f = gated (fun () -> sess.s_find k) in
          if Futures.Future.is_rejected f then None
          else Some (fun () -> ignore (Futures.Future.force f))
      | Write k ->
          let f =
            gated (fun () ->
                if Overload.writes_degraded ov then begin
                  Atomic.incr degraded_writes;
                  Futures.Future.rejected ()
                end
                else sess.s_insert k k)
          in
          if Futures.Future.is_rejected f then None
          else Some (fun () -> ignore (Futures.Future.force f))
      | Evict k ->
          let f =
            gated (fun () ->
                if Overload.writes_degraded ov then begin
                  Atomic.incr degraded_writes;
                  Futures.Future.rejected ()
                end
                else sess.s_remove k)
          in
          if Futures.Future.is_rejected f then None
          else Some (fun () -> ignore (Futures.Future.force f))
    in
    let epoch = Atomic.get ticket_epoch in
    for req = 1 to ops do
      Runner.heartbeat ();
      let stamp = Arrival.next_arrival_ns sched in
      Arrival.wait_until stamp;
      (match submit (pick_op rng ~key_range:cfg.key_range) with
      | Some force ->
          Atomic.incr admitted;
          (* Every admitted request also files a job; jobs are drained
             [queue_drain] at a time so the queue stays bounded. The job
             value is a globally-unique ticket so the conformance
             monitor can match this enqueue with its dequeue. *)
          let ticket = (epoch lsl 40) lor (thread lsl 32) lor req in
          let t0 = Obs.op_begin () in
          let jf = WQ.enqueue qh ticket in
          Fl.Slack.note sl (fun () ->
              match Futures.Future.force jf with
              | () -> Obs.op_enq ~value:ticket ~obj:0 ~t0
              | exception _ -> ());
          note_completion ~stamp force
      | None -> Atomic.incr shed);
      bump_stage ();
      if req mod cfg.queue_drain = 0 then
        for _ = 1 to cfg.queue_drain do
          let t0 = Obs.op_begin () in
          let df = WQ.dequeue qh in
          Fl.Slack.note sl (fun () ->
              match Futures.Future.force df with
              | Some v -> Obs.op_deq ~value:v ~obj:0 ~t0
              | None -> Obs.op_deq_empty ~obj:0 ~t0
              | exception _ -> ())
        done
    done;
    Fl.Slack.drain sl;
    sess.s_flush ();
    WQ.flush qh
  in
  let teardown ctx =
    (* Drain: settle every window still attached to live handles, then
       recover expired buckets until nothing is in flight, so futures of
       dead workers are poisoned, never left pending. *)
    match ctx.smap with
    | None -> ()
    | Some m ->
        let h = SM.handle m in
        let deadline = Sync.Mono.now () +. 5.0 in
        let b = Sync.Backoff.create () in
        while SM.in_flight m > 0 && Sync.Mono.now () < deadline do
          ignore (SM.recover_all h);
          Sync.Backoff.once b
        done;
        ignore (Atomic.fetch_and_add store_poisoned (SM.stats m).SM.poisoned)
  in
  Overload.start ov;
  let measurement =
    Fun.protect
      ~finally:(fun () -> Overload.stop ov)
      (fun () ->
        Runner.run ~threads:cfg.workers ~repeats
          ~ops_per_thread:cfg.requests_per_worker ~setup ~worker ~teardown
          ?chaos ?plan ?watchdog ())
  in
  {
    offered = Overload.offered ov;
    admitted = Atomic.get admitted;
    shed = Atomic.get shed;
    completed = Atomic.get completed;
    failed = Atomic.get failed;
    store_poisoned = Atomic.get store_poisoned;
    degraded_writes = Atomic.get degraded_writes;
    retries = Atomic.get retries;
    max_stage =
      (match Atomic.get max_stage with
      | 0 -> Overload.Admit
      | 1 -> Overload.Squeeze
      | 2 -> Overload.Shed
      | _ -> Overload.Degrade);
    final_stage = Overload.stage ov;
    escalations = Overload.escalations ov;
    recoveries = Overload.recoveries ov;
    controller_epochs = Overload.epochs ov;
    sojourn = Obs.Histogram.snapshot sojourn;
    measurement;
  }
