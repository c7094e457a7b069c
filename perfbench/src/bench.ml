(* Workloads, metric definitions and the run that produces them.

   Each workload runs two phases in one process, with at most two load
   domains (the host's core count):
   - the closed loop: the paper's mixes on six cells (weak and medium FL
     stacks, queues and lists) at the workload's slack;
   - the open-loop service at the workload's offered rate, central
     backend then sharded backend.
   The untraced run (trace = false) reports the end-to-end metrics; the
   traced run reports the per-layer ones, including the layer ladder. *)

module Svc = Workload.Service
module Ovl = Workload.Overload
open Util

type workload = {
  name : string;
  slack : int;  (** closed-loop slack *)
  rates : (Svc.backend * float) list;
      (** service arrivals per second per worker, by backend *)
  why : string;
}

(* In the overload workload the sharded store is offered about twice
   what it serves on the reference host, while the central map gets a
   quarter of that rate: offered 160k req/s it sits at its knee, where
   even its p90 did not repeat (230 to 580 us over ten runs). *)
let workloads =
  [
    {
      name = "slack1-steady";
      slack = 1;
      rates = [ (Svc.Central, 5_000.0); (Svc.Sharded, 5_000.0) ];
      why =
        "slack 1: every op pays the whole per-op ladder; service at 10k req/s \
         is below the knee, so sojourn is latency, not capacity";
    };
    {
      name = "slack100-overload";
      slack = 100;
      rates = [ (Svc.Central, 20_000.0); (Svc.Sharded, 80_000.0) ];
      why =
        "slack 100: window batching does the work; the sharded store at 160k \
         req/s is the only load where Overload squeezes, sheds and degrades";
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type spec = { m_name : string; m_unit : string; layer : string }

let spec m_name m_unit layer = { m_name; m_unit; layer }
let backends = [ Svc.Central; Svc.Sharded ]

let cell_unit (c : Closed.cell) =
  match c.Closed.kind with Closed.List -> "kops/s" | _ -> "Mops/s"

let cell_metric (c : Closed.cell) =
  c.Closed.name ^ (match c.Closed.kind with Closed.List -> "_kops" | _ -> "_mops")

(* The gated tail percentile. Under load the central backend's p99 is
   set by scheduler and GC stalls and does not repeat (0.80 to 0.99 ms
   over four runs at 40k req/s), so its p90 is gated and its p99 printed. *)
let gated_tail = function Svc.Central -> 90.0 | Svc.Sharded -> 99.0

let end_to_end =
  [ spec "setup_s" "s" "all: structures, prefill and handles" ]
  @ List.map
      (fun c -> spec (cell_metric c) (cell_unit c) "closed loop")
      Closed.cells
  @ [ spec "closed.minor_words_per_op" "words" "closed loop (GC)" ]
  @ List.concat_map
      (fun b ->
        let n = Svc.backend_name b in
        [
          spec (n ^ ".sojourn_p50_us") "us" "service";
          spec (Printf.sprintf "%s.sojourn_p%.0f_us" n (gated_tail b)) "us" "service";
        ])
      backends
  @ [
      spec "central.goodput_krps" "kreq/s" "service";
      spec "sharded.goodput_krps" "kreq/s" "service";
      spec "service.admitted_pct" "%" "Workload.Overload";
      spec "service.minor_words_per_req" "words" "service (GC)";
    ]

let per_layer =
  List.concat_map
    (fun r ->
      let l = "ladder: " ^ r in
      [ spec ("ladder." ^ r ^ ".ns") "ns" l; spec ("ladder." ^ r ^ ".words") "words" l ])
    Ladder.names
  @ List.concat_map
      (fun (c : Closed.cell) ->
        let n = c.Closed.name in
        [
          spec (n ^ ".submit_ns.p50") "ns" "Fl.Registry op call";
          spec (n ^ ".force_ns.p50") "ns" "Futures.Future.force (flush/splice)";
          spec (n ^ ".force_ns.p99") "ns" "Futures.Future.force (flush/splice)";
          spec (n ^ ".cas_per_op") "count" "Lockfree (CAS attempts)";
          spec (n ^ ".gc_minor_per_kop") "count" "GC (minor collections)";
        ])
      Closed.cells
  @ List.concat_map
      (fun b ->
        let b = Svc.backend_name b in
        [
          spec (b ^ ".arrival_lag_us.p99") "us" "open-loop generator";
          spec (b ^ ".admit_ns.p50") "ns" "Workload.Overload.admit";
          spec (b ^ ".submit_ns.p50") "ns" "store op call";
          spec (b ^ ".window_wait_us.p50") "us" "Fl.Slack window fill";
          spec (b ^ ".force_us.p50") "us" "Futures.Future.force";
          spec (b ^ ".force_us.p99") "us" "Futures.Future.force";
          spec (b ^ ".overload_max_stage") "count" "Workload.Overload";
          spec (b ^ ".overload_escalations") "count" "Workload.Overload";
        ])
      backends
  @ [
      spec "sharded.transfers_per_kreq" "count" "Fl.Shard_map";
      spec "sharded.grant_retries_per_kreq" "count" "Fl.Shard_map";
      spec "sharded.recovers" "count" "Fl.Shard_map";
      spec "sharded.degraded_finds" "count" "Fl.Shard_map";
      spec "trace.closed_overhead_pct" "%" "tracing";
      spec "trace.service_overhead_pct" "%" "tracing";
    ]

(* A reported value with the samples behind it: [n] samples, quartiles. *)
type value = { v : float; n : int; q1 : float; q3 : float }

let of_samples ?(p = 50.0) xs =
  {
    v = percentile xs p;
    n = Array.length xs;
    q1 = percentile xs 25.0;
    q3 = percentile xs 75.0;
  }

let scalar v = { v; n = 1; q1 = v; q3 = v }

type result = {
  metrics : (spec * value) list;
  notes : (string * value) list;  (** printed, recorded, not gated *)
  attempted : int;
  failed : int;
  errors : string list;
}

(* The admission budgets of the repository's service sweep: structures
   are not tuned here, and a single lease transfer inside an epoch must
   not read as overload.

   The sharded store keeps its own default 50 ms lease, not the
   service's 5 ms one. A lease is also the deadline of a transfer: a
   receiver the host deschedules for longer than that between the
   owner's ship and its own ack finds the transfer expired, and the
   shipped window is poisoned (Future.Orphaned). With 5 ms, host stalls
   did that to about ten ops in 22 runs of 30 seconds, a count that
   differs from run to run; no benchmark op may fail. Workers linger
   after their last request (Open_loop.worker), so the longer lease
   never makes a worker wait out a finished worker's leases. *)
let service_config ~backend ~rate ~seed ~dur =
  {
    Svc.default_config with
    Svc.workers = 2;
    backend;
    slack = 16;
    lease_s = 0.05;
    process = Workload.Arrival.Poisson { rate };
    requests_per_worker = max 1 (int_of_float (rate *. dur));
    seed;
    overload =
      {
        Ovl.default with
        Ovl.p99_budget_ns = 50_000_000;
        pending_budget_ns = 500_000_000;
        sojourn_budget_ns = 50_000_000;
      };
    epoch_s = 0.01;
  }

(* Measured repeats after the discarded warm-up: [n] untraced ones, or
   in the traced run [n] alternating untraced/traced ones, so tracing
   overhead is measured within one process. *)
let plan ~trace n = List.init n (fun i -> trace && i mod 2 = 1)

let closed_share = 0.5
let ladder_share = 0.1

type phases = {
  ladder : Ladder.result list;
  closed : (Closed.cell * Closed.rep list) list;
  service : (Svc.backend * Open_loop.rep list) list;
}

(* Repeats after the discarded warm-up, traced or not. *)
let closed_reps ~traced rs =
  List.filter (fun (r : Closed.rep) -> r.traced = traced) (List.tl rs)

let service_reps ~traced rs =
  List.filter (fun (r : Open_loop.rep) -> r.traced = traced) (List.tl rs)

let arr f rs = Array.of_list (List.map f rs)
let pool f rs = Array.concat (List.map f rs)
let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs
let scale k x = { v = x.v *. k; n = x.n; q1 = x.q1 *. k; q3 = x.q3 *. k }
let us = scale 1e-3

(* A gated sojourn percentile is the median over repeats of each
   repeat's exact percentile; [n] counts the samples behind it. *)
let sojourn rs p =
  {
    (of_samples (arr (fun (r : Open_loop.rep) -> percentile r.sojourn_ns p) rs)) with
    n = sum (fun (r : Open_loop.rep) -> Array.length r.sojourn_ns) rs;
  }

let goodput rs = scale 1e-3 (of_samples (arr (fun (r : Open_loop.rep) -> r.goodput) rs))

let end_to_end_values p =
  let untraced c = closed_reps ~traced:false (List.assq c p.closed) in
  let service b = service_reps ~traced:false (List.assoc b p.service) in
  let setup_s =
    List.fold_left
      (fun a (_, rs) -> a +. median (arr (fun (r : Closed.rep) -> r.setup_s) rs))
      0.0 p.closed
    +. List.fold_left
         (fun a (_, rs) -> a +. median (arr (fun (r : Open_loop.rep) -> r.setup_s) rs))
         0.0 p.service
  in
  let all = List.concat_map (fun (b, _) -> service b) p.service in
  [ ("setup_s", scalar setup_s) ]
  @ List.map
      (fun c ->
        let k = match c.Closed.kind with Closed.List -> 1e-3 | _ -> 1e-6 in
        (cell_metric c, scale k (of_samples (arr (fun (r : Closed.rep) -> r.tput) (untraced c)))))
      Closed.cells
  @ [
      ( "closed.minor_words_per_op",
        scalar
          (geomean
             (List.map
                (fun c -> median (arr (fun (r : Closed.rep) -> r.words_per_op) (untraced c)))
                Closed.cells)) );
    ]
  @ List.concat_map
      (fun b ->
        let n = Svc.backend_name b and tail = gated_tail b in
        [
          (n ^ ".sojourn_p50_us", us (sojourn (service b) 50.0));
          (Printf.sprintf "%s.sojourn_p%.0f_us" n tail, us (sojourn (service b) tail));
        ])
      backends
  @ [
      ("central.goodput_krps", goodput (service Svc.Central));
      ("sharded.goodput_krps", goodput (service Svc.Sharded));
      ( "service.admitted_pct",
        scalar
          (100.0
          *. float_of_int (sum (fun (r : Open_loop.rep) -> r.admitted) all)
          /. float_of_int (sum (fun (r : Open_loop.rep) -> r.requests) all)) );
      ( "service.minor_words_per_req",
        scalar (median (arr (fun (r : Open_loop.rep) -> r.words_per_req) all)) );
    ]

let per_layer_values p =
  let closed c = List.assq c p.closed and service b = List.assoc b p.service in
  let ladder =
    List.concat_map
      (fun (l : Ladder.result) ->
        [
          ("ladder." ^ l.rung ^ ".ns", of_samples l.ns);
          ("ladder." ^ l.rung ^ ".words", of_samples l.words);
        ])
      p.ladder
  in
  let cells =
    List.concat_map
      (fun c ->
        let rs = closed_reps ~traced:true (closed c) and all = List.tl (closed c) in
        let n = c.Closed.name in
        let force = pool (fun (r : Closed.rep) -> r.force_ns) rs in
        [
          (n ^ ".submit_ns.p50", of_samples (pool (fun (r : Closed.rep) -> r.submit_ns) rs));
          (n ^ ".force_ns.p50", of_samples force);
          (n ^ ".force_ns.p99", of_samples ~p:99.0 force);
          (n ^ ".cas_per_op", of_samples (arr (fun (r : Closed.rep) -> r.cas_per_op) all));
          (n ^ ".gc_minor_per_kop", of_samples (arr (fun (r : Closed.rep) -> r.gc_per_kop) all));
        ])
      Closed.cells
  in
  let stages =
    List.concat_map
      (fun b ->
        let rs = service_reps ~traced:true (service b) in
        let n = Svc.backend_name b in
        let stage f = pool f rs in
        let force = stage (fun (r : Open_loop.rep) -> r.force_ns) in
        [
          (n ^ ".arrival_lag_us.p99", us (of_samples ~p:99.0 (stage (fun r -> r.lag_ns))));
          (n ^ ".admit_ns.p50", of_samples (stage (fun r -> r.admit_ns)));
          (n ^ ".submit_ns.p50", of_samples (stage (fun r -> r.store_ns)));
          (n ^ ".window_wait_us.p50", us (of_samples (stage (fun r -> r.window_ns))));
          (n ^ ".force_us.p50", us (of_samples force));
          (n ^ ".force_us.p99", us (of_samples ~p:99.0 force));
          ( n ^ ".overload_max_stage",
            scalar
              (float_of_int
                 (List.fold_left (fun a (r : Open_loop.rep) -> max a r.max_stage) 0 rs)) );
          ( n ^ ".overload_escalations",
            scalar (float_of_int (sum (fun (r : Open_loop.rep) -> r.escalations) rs)) );
        ])
      backends
  in
  let sharded = service_reps ~traced:true (service Svc.Sharded) in
  let total f =
    float_of_int
      (sum
         (fun (r : Open_loop.rep) -> match r.shard with Some s -> f s | None -> 0)
         sharded)
  in
  let kreq = float_of_int (sum (fun (r : Open_loop.rep) -> r.requests) sharded) /. 1000.0 in
  (* Overhead: untraced over traced throughput (closed), traced over
     untraced p50 sojourn (service), as a percentage over 1. *)
  let overhead ratios = 100.0 *. (geomean ratios -. 1.0) in
  let closed_overhead =
    overhead
      (List.map
         (fun c ->
           let m traced =
             median (arr (fun (r : Closed.rep) -> r.tput) (closed_reps ~traced (closed c)))
           in
           m false /. m true)
         Closed.cells)
  in
  let service_overhead =
    overhead
      (List.map
         (fun b ->
           let m traced =
             median
               (pool (fun (r : Open_loop.rep) -> r.sojourn_ns)
                  (service_reps ~traced (service b)))
           in
           m true /. m false)
         backends)
  in
  ladder @ cells @ stages
  @ [
      ("sharded.transfers_per_kreq", scalar (total (fun s -> s.Open_loop.SM.acks) /. kreq));
      ( "sharded.grant_retries_per_kreq",
        scalar (total (fun s -> s.Open_loop.SM.retries) /. kreq) );
      ("sharded.recovers", scalar (total (fun s -> s.Open_loop.SM.recovers)));
      ("sharded.degraded_finds", scalar (total (fun s -> s.Open_loop.SM.degraded_finds)));
      ("trace.closed_overhead_pct", scalar closed_overhead);
      ("trace.service_overhead_pct", scalar service_overhead);
    ]

(* Printed and recorded, not gated: set-up per cell and backend, the
   tail beyond the gated percentile, and the service's books. *)
let note_values p ~trace =
  List.map
    (fun (c, rs) ->
      ( c.Closed.name ^ ".setup_ms",
        scale 1e3 (of_samples (arr (fun (r : Closed.rep) -> r.setup_s) rs)) ))
    p.closed
  @ List.concat_map
      (fun (b, all) ->
        let n = Svc.backend_name b in
        let rs = service_reps ~traced:trace all in
        let xs = pool (fun (r : Open_loop.rep) -> r.sojourn_ns) rs in
        [ (n ^ ".setup_ms", scale 1e3 (of_samples (arr (fun (r : Open_loop.rep) -> r.setup_s) all))) ]
        @ (if gated_tail b < 99.0 then [ (n ^ ".sojourn_p99_us", us (of_samples ~p:99.0 xs)) ]
           else [])
        @ [
            (n ^ ".sojourn_p999_us", us (of_samples ~p:99.9 xs));
            (n ^ ".shed", scalar (float_of_int (sum (fun (r : Open_loop.rep) -> r.shed) rs)));
            ( n ^ ".requests",
              scalar (float_of_int (sum (fun (r : Open_loop.rep) -> r.requests) rs)) );
          ])
      p.service

let run ~workload:w ~seed ~seconds ~trace =
  let closed_plan = plan ~trace (if trace then 8 else 9) in
  let service_plan = plan ~trace (if trace then 10 else 11) in
  let rounds plan = float_of_int (1 + List.length plan) in
  let closed_s = seconds *. (closed_share -. if trace then ladder_share else 0.0) in
  let service_s = seconds *. (1.0 -. closed_share) in
  let ladder =
    if trace then Ladder.run ~budget_s:(seconds *. ladder_share) ~seed else []
  in
  let closed =
    Closed.run Closed.cells ~slack:w.slack ~seed ~plan:closed_plan
      ~dur:(closed_s /. float_of_int (List.length Closed.cells) /. rounds closed_plan)
  in
  let svc_dur = service_s /. float_of_int (List.length backends) /. rounds service_plan in
  let service =
    Open_loop.run ~plan:service_plan
      (List.mapi
         (fun i backend ->
           service_config ~backend ~rate:(List.assoc backend w.rates)
             ~seed:(seed + (100_000 * (i + 1)))
             ~dur:svc_dur)
         backends)
    |> List.map (fun ((cfg : Svc.config), reps) -> (cfg.Svc.backend, reps))
  in
  let p = { ladder; closed; service } in
  (* Everything executed is checked and counted, warm-ups included. *)
  let over_closed f = List.concat_map (fun (_, rs) -> List.map f rs) closed in
  let over_service f = List.concat_map (fun (_, rs) -> List.map f rs) service in
  let total xs = List.fold_left ( + ) 0 xs in
  let specs, values =
    if trace then (per_layer, per_layer_values p) else (end_to_end, end_to_end_values p)
  in
  {
    metrics = List.map (fun s -> (s, List.assoc s.m_name values)) specs;
    notes = note_values p ~trace;
    attempted =
      total (over_closed (fun (r : Closed.rep) -> r.ops))
      + total (over_service (fun (r : Open_loop.rep) -> r.requests));
    failed =
      total (over_closed (fun (r : Closed.rep) -> r.failed))
      + total (over_service (fun (r : Open_loop.rep) -> r.failed));
    errors =
      List.concat (over_closed (fun (r : Closed.rep) -> r.errors))
      @ List.concat (over_service (fun (r : Open_loop.rep) -> r.errors));
  }
