(* The open-loop service generator. It makes the same public calls, in the
   same order, as the worker of [Workload.Service.run] — job queue
   (Fl.Weak_queue) plus session store (Fl.Shard_map or the central
   Fl.Weak_map) behind [Workload.Overload] admission, 60% find / 30%
   insert / 10% remove — but keeps every request's exact sojourn
   (intended arrival -> force returns) in a preallocated per-worker
   array instead of the library's bucketed histogram, and in the traced
   run also stamps the request's stage boundaries:

     lag     intended arrival -> issued (how late the generator ran)
     submit  issued -> store future returned (admission + store call)
     window  future returned -> its force starts (slack window fill)
     force   force starts -> force returns

   so lag + submit + window + force = sojourn for every request. *)

module F = Futures.Future
module Svc = Workload.Service
module Ovl = Workload.Overload
module WQ = Fl.Weak_queue
open Util

module Key = struct
  type t = int

  let compare = Int.compare
  let hash k = Hashtbl.hash k
end

module SM = Fl.Shard_map.Make (Key)
module WM = Fl.Weak_map.Make (Key)

type ctx = {
  queue : int WQ.t;
  smap : int SM.t option;
  wmap : int WM.t option;
  finished : int Atomic.t;  (** workers past their last request *)
}

type session = {
  s_insert : int -> int -> bool F.t;
  s_find : int -> int option F.t;
  s_remove : int -> int option F.t;
  s_flush : unit -> unit;
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
      }
  | None, Some m ->
      let h = WM.handle m in
      {
        s_insert = (fun k v -> WM.insert h k v);
        s_find = (fun k -> WM.find h k);
        s_remove = (fun k -> WM.remove h k);
        s_flush = (fun () -> WM.flush h);
      }
  | None, None -> assert false

let make_ctx (cfg : Svc.config) =
  match cfg.Svc.backend with
  | Svc.Sharded ->
      {
        queue = WQ.create ();
        smap =
          Some
            (SM.create ~buckets:cfg.Svc.buckets ~lease:cfg.Svc.lease_s
               ~grant_timeout:cfg.Svc.grant_timeout_s ());
        wmap = None;
        finished = Atomic.make 0;
      }
  | Svc.Central ->
      {
        queue = WQ.create ();
        smap = None;
        wmap = Some (WM.create ());
        finished = Atomic.make 0;
      }

type op = Read of int | Write of int | Evict of int

let pick_op rng ~key_range =
  let k = Workload.Rng.below rng key_range in
  let d = Workload.Rng.below rng 10 in
  if d < 6 then Read k else if d < 9 then Write k else Evict k

(* One worker's repeat. Stage arrays are empty in untraced repeats. *)
type tally = {
  stamp : int array;
  fend : int array;  (** 0 = not completed *)
  issue : int array;
  created : int array;
  fstart : int array;
  admit_ns : int array;
  store_ns : int array;
  mutable admitted : int;
  mutable shed : int;
  mutable completed : int;
  mutable failed : int;
  mutable enq_ok : int;
  mutable deq_some : int;
  mutable max_stage : int;
  mutable words : float;
  mutable end_ns : int;
  mutable domain : int;  (** the worker's domain, for its spans *)
}

let new_tally ~n ~traced =
  let st = if traced then n else 0 in
  {
    stamp = Array.make n 0;
    fend = Array.make n 0;
    issue = Array.make st 0;
    created = Array.make st 0;
    fstart = Array.make st 0;
    admit_ns = Array.make st 0;
    store_ns = Array.make st 0;
    admitted = 0;
    shed = 0;
    completed = 0;
    failed = 0;
    enq_ok = 0;
    deq_some = 0;
    max_stage = 0;
    words = 0.0;
    end_ns = 0;
    domain = 0;
  }

(* Job tickets are unique per (repeat, worker, request), as in the
   library's service loop. *)
let ticket_epoch = Atomic.make 0

(* A worker's two phases: [go] issues its requests and drains them;
   [linger] then keeps its store handle granting transfer requests
   until every worker's [go] has returned, so a worker that is done
   early does not leave the others waiting out its leases. *)
type phases = { go : unit -> unit; linger : unit -> unit }

let worker (cfg : Svc.config) ov ctx ~thread ~traced t =
  let rng = Workload.Rng.create ~seed:cfg.Svc.seed ~stream:thread in
  let qh = WQ.handle ctx.queue in
  let sess = session_of ctx in
  let sl = Fl.Slack.create cfg.Svc.slack in
  Ovl.register_slack ov sl;
  let epoch = Atomic.get ticket_epoch in
  let linger () =
    let b = Sync.Backoff.create () in
    while Atomic.get ctx.finished < cfg.Svc.workers do
      sess.s_flush ();
      Sync.Backoff.once b
    done
  in
  let requests () =
    let sched = Workload.Arrival.schedule cfg.Svc.process ~rng in
    let note_completion r force =
      Fl.Slack.note sl (fun () ->
          if traced then t.fstart.(r) <- now ();
          match force () with
          | () ->
              let e = now () in
              t.fend.(r) <- e;
              Obs.service_complete ~sojourn_ns:(e - t.stamp.(r));
              t.completed <- t.completed + 1
          | exception F.Rejected -> ()
          | exception (F.Cancelled | F.Broken _) -> t.failed <- t.failed + 1)
    in
    let admit r =
      if traced then begin
        let t0 = now () in
        let ok = Ovl.admit ov in
        t.admit_ns.(r) <- t.admit_ns.(r) + (now () - t0);
        ok
      end
      else Ovl.admit ov
    in
    let store r call =
      if traced then begin
        let t0 = now () in
        let f = call () in
        t.store_ns.(r) <- t.store_ns.(r) + (now () - t0);
        f
      end
      else call ()
    in
    let gated r mk =
      F.retry ~attempts:cfg.Svc.retry_attempts (fun () ->
          if not (admit r) then F.rejected () else mk ())
    in
    let write r call =
      gated r (fun () ->
          if Ovl.writes_degraded ov then F.rejected () else store r call)
    in
    let submit r op =
      match op with
      | Read k ->
          let f = gated r (fun () -> store r (fun () -> sess.s_find k)) in
          if F.is_rejected f then None
          else Some (fun () -> ignore (F.force f))
      | Write k ->
          let f = write r (fun () -> sess.s_insert k k) in
          if F.is_rejected f then None
          else Some (fun () -> ignore (F.force f))
      | Evict k ->
          let f = write r (fun () -> sess.s_remove k) in
          if F.is_rejected f then None
          else Some (fun () -> ignore (F.force f))
    in
    let n = Array.length t.stamp in
    for req = 1 to n do
      let r = req - 1 in
      let stamp = Workload.Arrival.next_arrival_ns sched in
      Workload.Arrival.wait_until stamp;
      t.stamp.(r) <- stamp;
      if traced then t.issue.(r) <- now ();
      (match submit r (pick_op rng ~key_range:cfg.Svc.key_range) with
      | Some force ->
          if traced then t.created.(r) <- now ();
          t.admitted <- t.admitted + 1;
          let ticket = (epoch lsl 40) lor (thread lsl 32) lor req in
          let t0 = Obs.op_begin () in
          let jf = WQ.enqueue qh ticket in
          Fl.Slack.note sl (fun () ->
              match F.force jf with
              | () ->
                  t.enq_ok <- t.enq_ok + 1;
                  Obs.op_enq ~value:ticket ~obj:0 ~t0
              | exception _ -> ());
          note_completion r force
      | None -> t.shed <- t.shed + 1);
      t.max_stage <- max t.max_stage (Ovl.stage_index (Ovl.stage ov));
      if req mod cfg.Svc.queue_drain = 0 then
        for _ = 1 to cfg.Svc.queue_drain do
          let t0 = Obs.op_begin () in
          let df = WQ.dequeue qh in
          Fl.Slack.note sl (fun () ->
              match F.force df with
              | Some v ->
                  t.deq_some <- t.deq_some + 1;
                  Obs.op_deq ~value:v ~obj:0 ~t0
              | None -> Obs.op_deq_empty ~obj:0 ~t0
              | exception _ -> ())
        done
    done;
    Fl.Slack.drain sl;
    sess.s_flush ();
    WQ.flush qh
  in
  (* Counted on every way out, so no worker lingers for one that died. *)
  let go () = Fun.protect ~finally:(fun () -> Atomic.incr ctx.finished) requests in
  { go; linger }

(* Settle a torn-down sharded map: recover expired buckets until nothing
   is in flight, as the library's service teardown does. *)
let teardown ctx =
  match ctx.smap with
  | None -> ()
  | Some m ->
      let h = SM.handle m in
      let deadline = Sync.Mono.now () +. 5.0 in
      let b = Sync.Backoff.create () in
      while SM.in_flight m > 0 && Sync.Mono.now () < deadline do
        ignore (SM.recover_all h);
        Sync.Backoff.once b
      done

type rep = {
  traced : bool;
  setup_s : float;
  requests : int;
  admitted : int;
  shed : int;
  completed : int;
  failed : int;
  goodput : float;  (** completed requests/s over this repeat *)
  words_per_req : float;
  sojourn_ns : float array;  (** every completed request *)
  lag_ns : float array;  (** traced repeats only, from here on *)
  admit_ns : float array;
  store_ns : float array;
  window_ns : float array;
  force_ns : float array;
  max_stage : int;
  escalations : int;
  shard : SM.stats option;
  errors : string list;
}

let backend_name (cfg : Svc.config) = Svc.backend_name cfg.Svc.backend

(* About 100 evenly spaced requests per worker and repeat go to the
   trace file: a request span with its four stage spans as children, all
   carrying the request's id (repeat, worker, request number). *)
let record_spans cfg t ~epoch ~thread =
  let b = Spans.local () in
  let span_every = max 1 (Array.length t.fend / 100) in
  let name = backend_name cfg in
  Array.iteri
    (fun r e ->
      if e > 0 && r mod span_every = 0 then begin
        let id = (epoch lsl 48) lor (thread lsl 32) lor (r + 1) in
        let s = t.stamp.(r) in
        let tid = t.domain in
        Spans.add b ~tid ~name:(name ^ ".request") ~id ~parent:0 s e;
        let stage n a z = Spans.add b ~tid ~name:(name ^ "." ^ n) ~id ~parent:id a z in
        stage "lag" s t.issue.(r);
        stage "submit" t.issue.(r) t.created.(r);
        stage "window" t.created.(r) t.fstart.(r);
        stage "force" t.fstart.(r) e
      end)
    t.fend;
  Spans.publish b

(* One repeat with fresh structures and its own admission controller. *)
let repeat (cfg : Svc.config) ~traced =
  Atomic.incr ticket_epoch;
  let ov = Ovl.create ~cfg:cfg.Svc.overload ~epoch:cfg.Svc.epoch_s () in
  let n = cfg.Svc.requests_per_worker in
  let ctx, make_ns = time_ns (fun () -> make_ctx cfg) in
  Ovl.start ov;
  let r =
    Fun.protect
      ~finally:(fun () -> Ovl.stop ov)
      (fun () ->
    parallel cfg.Svc.workers
      ~prepare:(fun thread ->
        let t = new_tally ~n ~traced in
        (t, worker cfg ov ctx ~thread ~traced t))
      ~work:(fun (t, w) ->
        t.domain <- (Domain.self () :> int);
        let w0 = Gc.minor_words () in
        w.go ();
        t.words <- Gc.minor_words () -. w0;
        t.end_ns <- now ();
        w.linger ();
        t)
      ~main:ignore)
  in
  teardown ctx;
  let ts = Array.to_list r.results in
  let sum f = List.fold_left (fun a (t : tally) -> a + f t) 0 ts in
  let requests = n * cfg.Svc.workers in
  let admitted = sum (fun t -> t.admitted) and shed = sum (fun t -> t.shed) in
  let completed = sum (fun t -> t.completed) and failed = sum (fun t -> t.failed) in
  let end_ns = List.fold_left (fun a t -> max a t.end_ns) 0 ts in
  let done_ t f =
    let b = Buf.create (Array.length t.fend) in
    Array.iteri (fun i e -> if e > 0 then Buf.add b (float_of_int (f t i e))) t.fend;
    b
  in
  let pooled f = Buf.concat (List.map (fun t -> done_ t f) ts) in
  let stage f = if traced then pooled f else [||] in
  let name = backend_name cfg in
  let queued = Lockfree.Ms_queue.length (WQ.shared ctx.queue) in
  let enq = sum (fun t -> t.enq_ok) and deq = sum (fun t -> t.deq_some) in
  let errors =
    List.filter_map Fun.id
      [
        (if admitted + shed <> requests then
           Some (Printf.sprintf "%s: admitted %d + shed %d <> %d requests" name
                   admitted shed requests)
         else None);
        (if completed + failed <> admitted then
           Some (Printf.sprintf "%s: completed %d + failed %d <> admitted %d"
                   name completed failed admitted)
         else None);
        (if queued <> enq - deq then
           Some (Printf.sprintf "%s: job queue holds %d <> %d enqueued - %d dequeued"
                   name queued enq deq)
         else None);
        (* The stages telescope by construction; what can break is the
           order of the stamps, so check every traced request's stages
           are non-negative and sum to its sojourn. *)
        (if traced
            && List.exists
                 (fun t ->
                   let bad = ref false in
                   Array.iteri
                     (fun i e ->
                       if e > 0 then begin
                         let lag = t.issue.(i) - t.stamp.(i)
                         and sub = t.created.(i) - t.issue.(i)
                         and win = t.fstart.(i) - t.created.(i)
                         and frc = e - t.fstart.(i) in
                         if lag < 0 || sub < 0 || win < 0 || frc < 0
                            || lag + sub + win + frc <> e - t.stamp.(i)
                         then bad := true
                       end)
                     t.fend;
                   !bad)
                 ts
         then Some (name ^ ": a traced request's stages do not partition its sojourn")
         else None);
      ]
  in
  if traced then
    List.iteri
      (fun thread t -> record_spans cfg t ~epoch:(Atomic.get ticket_epoch) ~thread)
      ts;
  {
    traced;
    setup_s = float_of_int (make_ns + r.prepare_ns) /. 1e9;
    requests;
    admitted;
    shed;
    completed;
    failed;
    goodput = float_of_int completed /. (float_of_int (end_ns - r.start_ns) /. 1e9);
    words_per_req =
      List.fold_left (fun a t -> a +. t.words) 0.0 ts /. float_of_int requests;
    sojourn_ns = pooled (fun t i e -> e - t.stamp.(i));
    lag_ns = stage (fun t i _ -> t.issue.(i) - t.stamp.(i));
    admit_ns = stage (fun t i _ -> t.admit_ns.(i));
    store_ns = stage (fun t i _ -> t.store_ns.(i));
    window_ns = stage (fun t i _ -> t.fstart.(i) - t.created.(i));
    force_ns = stage (fun t i e -> e - t.fstart.(i));
    max_stage = List.fold_left (fun a (t : tally) -> max a t.max_stage) 0 ts;
    escalations = Ovl.escalations ov;
    shard = Option.map SM.stats ctx.smap;
    errors;
  }

(* The service phase: one discarded warm-up round, then one round per
   [plan] entry (true = traced); a round runs every config once, each
   repeat on input seed [cfg.seed + round]. Returns each config's
   repeats in order, warm-up first. *)
let run cfgs ~plan =
  let rounds =
    List.mapi
      (fun round traced ->
        List.map
          (fun (cfg : Svc.config) ->
            repeat { cfg with Svc.seed = cfg.Svc.seed + round } ~traced)
          cfgs)
      (false :: plan)
  in
  List.mapi (fun i cfg -> (cfg, List.map (fun reps -> List.nth reps i) rounds)) cfgs
