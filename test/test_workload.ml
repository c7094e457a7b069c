(* Tests for the workload library (rng, distributions, stats, report,
   runner) and the Slack policy helper. *)

let test_rng_deterministic () =
  let a = Workload.Rng.create ~seed:1 ~stream:0 in
  let b = Workload.Rng.create ~seed:1 ~stream:0 in
  let xs = List.init 100 (fun _ -> Workload.Rng.next a) in
  let ys = List.init 100 (fun _ -> Workload.Rng.next b) in
  Alcotest.(check (list int)) "same stream, same numbers" xs ys

let test_rng_streams_differ () =
  let a = Workload.Rng.create ~seed:1 ~stream:0 in
  let b = Workload.Rng.create ~seed:1 ~stream:1 in
  let xs = List.init 20 (fun _ -> Workload.Rng.next a) in
  let ys = List.init 20 (fun _ -> Workload.Rng.next b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_below_in_range () =
  let r = Workload.Rng.create ~seed:99 ~stream:3 in
  for _ = 1 to 10_000 do
    let v = Workload.Rng.below r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.below: bound must be positive") (fun () ->
      ignore (Workload.Rng.below r 0))

let test_rng_below_covers () =
  let r = Workload.Rng.create ~seed:5 ~stream:0 in
  let seen = Array.make 10 false in
  for _ = 1 to 5_000 do
    seen.(Workload.Rng.below r 10) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let r = Workload.Rng.create ~seed:8 ~stream:0 in
  for _ = 1 to 1_000 do
    let f = Workload.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_distribution_stack_balance () =
  let r = Workload.Rng.create ~seed:3 ~stream:0 in
  let pushes = ref 0 and total = 20_000 in
  for _ = 1 to total do
    match Workload.Distribution.stack_op r with
    | Workload.Distribution.Push _ -> incr pushes
    | Workload.Distribution.Pop -> ()
  done;
  let ratio = float_of_int !pushes /. float_of_int total in
  Alcotest.(check bool) "about half pushes" true
    (ratio > 0.45 && ratio < 0.55)

let test_distribution_list_mix () =
  let r = Workload.Rng.create ~seed:4 ~stream:0 in
  let ins = ref 0 and rem = ref 0 and con = ref 0 and total = 30_000 in
  for _ = 1 to total do
    match Workload.Distribution.list_op r with
    | Workload.Distribution.Insert _ -> incr ins
    | Workload.Distribution.Remove _ -> incr rem
    | Workload.Distribution.Contains _ -> incr con
  done;
  let pct x = float_of_int !x /. float_of_int total in
  Alcotest.(check bool) "20% inserts" true (pct ins > 0.17 && pct ins < 0.23);
  Alcotest.(check bool) "20% removes" true (pct rem > 0.17 && pct rem < 0.23);
  Alcotest.(check bool) "60% contains" true (pct con > 0.56 && pct con < 0.64)

let test_distribution_keys_in_range () =
  let r = Workload.Rng.create ~seed:4 ~stream:1 in
  for _ = 1 to 5_000 do
    let k =
      match Workload.Distribution.list_op ~key_range:500 r with
      | Workload.Distribution.Insert k
      | Workload.Distribution.Remove k
      | Workload.Distribution.Contains k ->
          k
    in
    if k < 0 || k >= 500 then Alcotest.fail "key out of range"
  done

let test_initial_keys () =
  let keys = Workload.Distribution.initial_keys ~key_range:1000 ~seed:7 () in
  Alcotest.(check int) "half the range" 500 (List.length keys);
  Alcotest.(check int) "distinct" 500
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun k -> if k < 0 || k >= 1000 then Alcotest.fail "key out of range")
    keys;
  let keys' = Workload.Distribution.initial_keys ~key_range:1000 ~seed:7 () in
  Alcotest.(check (list int)) "deterministic" keys keys'

let feq = Alcotest.float 1e-9

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.check feq "mean" 2.5 (Obs.Histogram.mean xs);
  Alcotest.check feq "min" 1.0 (Obs.Histogram.min xs);
  Alcotest.check feq "max" 4.0 (Obs.Histogram.max xs);
  Alcotest.check (Alcotest.float 1e-6) "std" 1.2909944487 (Obs.Histogram.std_dev xs);
  Alcotest.check feq "median" 2.0 (Obs.Histogram.median xs);
  Alcotest.check feq "p100" 4.0 (Obs.Histogram.percentile xs 100.0);
  Alcotest.check feq "p1" 1.0 (Obs.Histogram.percentile xs 1.0)

let test_stats_degenerate () =
  Alcotest.check feq "std of single" 0.0 (Obs.Histogram.std_dev [| 5.0 |]);
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Histogram.mean: empty sample array") (fun () ->
      ignore (Obs.Histogram.mean [||]))

let test_report_rendering () =
  let t =
    Workload.Report.create ~title:"demo" ~columns:[ "a"; "b" ]
  in
  Workload.Report.add_row t ~label:"1" ~cells:[ "x"; "y" ];
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Workload.Report.print ppf t;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "has title" true
    (String.length s > 4 && String.sub s 0 4 = "demo");
  Alcotest.check_raises "bad row"
    (Invalid_argument "Report.add_row: cell count does not match columns")
    (fun () -> Workload.Report.add_row t ~label:"2" ~cells:[ "only one" ])

let test_report_csv () =
  let t = Workload.Report.create ~title:"t" ~columns:[ "a"; "b" ] in
  Workload.Report.add_row t ~label:"1" ~cells:[ "x"; "y" ];
  Workload.Report.add_row t ~label:"2" ~cells:[ "u"; "v" ];
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Workload.Report.csv ppf t;
  Format.pp_print_flush ppf ();
  Alcotest.(check string) "csv shape" "# t\nthreads,a,b\n1,x,y\n2,u,v\n"
    (Buffer.contents buf)

let test_report_seconds () =
  Alcotest.(check string) "seconds" "1.50s" (Workload.Report.seconds 1.5);
  Alcotest.(check string) "millis" "12.0ms" (Workload.Report.seconds 0.012);
  Alcotest.(check string) "micros" "120us" (Workload.Report.seconds 0.00012);
  Alcotest.(check string) "nan" "-" (Workload.Report.seconds Float.nan)

let test_runner_runs_workers () =
  let counter = Atomic.make 0 in
  let m =
    Workload.Runner.run ~threads:3 ~repeats:2 ~ops_per_thread:100
      ~setup:(fun () -> ())
      ~worker:(fun () ~thread:_ ~ops ->
        for _ = 1 to ops do
          Atomic.incr counter
        done)
      ()
  in
  Alcotest.(check int) "all ops ran twice" 600 (Atomic.get counter);
  Alcotest.(check int) "threads recorded" 3 m.Workload.Runner.threads;
  Alcotest.(check bool) "time positive" true (m.Workload.Runner.seconds > 0.0);
  Alcotest.(check bool) "cas nan when absent" true
    (Float.is_nan m.Workload.Runner.cas_per_op)

let test_runner_propagates_failure () =
  match
    Workload.Runner.run ~threads:2 ~repeats:1 ~ops_per_thread:1
      ~setup:(fun () -> ())
      ~worker:(fun () ~thread ~ops:_ -> if thread = 1 then failwith "worker boom")
      ()
  with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure msg -> Alcotest.(check string) "propagated" "worker boom" msg

let test_runner_invalid_args () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Runner.run: threads must be positive") (fun () ->
      ignore
        (Workload.Runner.run ~threads:0 ~repeats:1 ~ops_per_thread:1
           ~setup:(fun () -> ())
           ~worker:(fun () ~thread:_ ~ops:_ -> ())
           ()));
  Alcotest.check_raises "zero repeats"
    (Invalid_argument "Runner.run: repeats must be positive") (fun () ->
      ignore
        (Workload.Runner.run ~threads:1 ~repeats:0 ~ops_per_thread:1
           ~setup:(fun () -> ())
           ~worker:(fun () ~thread:_ ~ops:_ -> ())
           ()))

let test_runner_cas_accounting () =
  let m =
    Workload.Runner.run ~threads:2 ~repeats:1 ~ops_per_thread:50
      ~setup:(fun () -> Lockfree.Treiber_stack.create ())
      ~worker:(fun s ~thread:_ ~ops ->
        for i = 1 to ops do
          Lockfree.Treiber_stack.push s i
        done)
      ~cas_total:(fun s -> Lockfree.Treiber_stack.cas_count s)
      ()
  in
  Alcotest.(check bool) "at least one CAS per push" true
    (m.Workload.Runner.cas_per_op >= 1.0)

let test_slack_policy () =
  let forced = ref [] in
  let s = Fl.Slack.create 3 in
  Fl.Slack.note s (fun () -> forced := 1 :: !forced);
  Fl.Slack.note s (fun () -> forced := 2 :: !forced);
  Alcotest.(check int) "pending below bound" 2 (Fl.Slack.pending s);
  Alcotest.(check (list int)) "nothing forced" [] !forced;
  Fl.Slack.note s (fun () -> forced := 3 :: !forced);
  Alcotest.(check (list int)) "all forced newest-first" [ 1; 2; 3 ] !forced;
  Alcotest.(check int) "reset" 0 (Fl.Slack.pending s)

let test_slack_one_is_immediate () =
  let count = ref 0 in
  let s = Fl.Slack.create 1 in
  Fl.Slack.note s (fun () -> incr count);
  Alcotest.(check int) "forced immediately" 1 !count

let test_slack_drain_partial () =
  let count = ref 0 in
  let s = Fl.Slack.create 100 in
  Fl.Slack.note s (fun () -> incr count);
  Fl.Slack.note s (fun () -> incr count);
  Fl.Slack.drain s;
  Alcotest.(check int) "drained" 2 !count;
  Fl.Slack.drain s;
  Alcotest.(check int) "idempotent" 2 !count

let test_slack_oldest_first_order () =
  let forced = ref [] in
  let s = Fl.Slack.create ~order:Fl.Slack.Oldest_first 3 in
  Fl.Slack.note s (fun () -> forced := 1 :: !forced);
  Fl.Slack.note s (fun () -> forced := 2 :: !forced);
  Fl.Slack.note s (fun () -> forced := 3 :: !forced);
  Alcotest.(check (list int)) "oldest first" [ 3; 2; 1 ] !forced

let test_zipf_skew () =
  let z = Workload.Distribution.zipf ~n:100 () in
  let rng = Workload.Rng.create ~seed:17 ~stream:0 in
  let counts = Array.make 100 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let k = Workload.Distribution.zipf_draw z rng in
    if k < 0 || k >= 100 then Alcotest.fail "rank out of range";
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 0 has weight 1/H(100) ~ 19%; expect it to dominate. *)
  Alcotest.(check bool) "rank 0 most frequent" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  let p0 = float_of_int counts.(0) /. float_of_int draws in
  Alcotest.(check bool) "rank 0 frequency plausible" true
    (p0 > 0.15 && p0 < 0.25);
  (* Monotone-ish decay: rank 0 >> rank 50. *)
  Alcotest.(check bool) "heavy head" true (counts.(0) > 10 * counts.(50))

let test_zipf_uniform_exponent_zero () =
  let z = Workload.Distribution.zipf ~exponent:0.0 ~n:10 () in
  let rng = Workload.Rng.create ~seed:18 ~stream:0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let k = Workload.Distribution.zipf_draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* With exponent 0 every rank is equally likely; no rank should be
     wildly over-represented. *)
  Array.iter
    (fun c ->
      if c < 500 || c > 3500 then
        Alcotest.fail (Printf.sprintf "uniform draw skewed: %d" c))
    counts

let test_zipf_invalid () =
  Alcotest.check_raises "n=0"
    (Invalid_argument "Distribution.zipf: n must be positive") (fun () ->
      ignore (Workload.Distribution.zipf ~n:0 ()));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Distribution.zipf: exponent must be non-negative")
    (fun () -> ignore (Workload.Distribution.zipf ~exponent:(-1.0) ~n:5 ()))

let test_slack_invalid () =
  Alcotest.check_raises "zero slack"
    (Invalid_argument "Slack.create: slack must be >= 1") (fun () ->
      ignore (Fl.Slack.create 0))

(* ------------------------------ arrival ------------------------------ *)

let test_arrival_pacer_validation () =
  Alcotest.check_raises "zero burst"
    (Invalid_argument "Arrival.pacer: burst must be >= 1") (fun () ->
      ignore (Workload.Arrival.pacer (Bursty { burst = 0; pause_ns = 10 })));
  Alcotest.check_raises "negative pause"
    (Invalid_argument "Arrival.pacer: pause_ns must be >= 0") (fun () ->
      ignore (Workload.Arrival.pacer (Bursty { burst = 4; pause_ns = -1 })))

(* Burst 1 and zero gap are degenerate but legal: the pacer must cost
   nothing (no div-by-zero, no wait) rather than spin or hang. *)
let test_arrival_pacer_degenerate () =
  let t0 = Sync.Mono.now () in
  let p = Workload.Arrival.pacer (Bursty { burst = 1; pause_ns = 0 }) in
  for _ = 1 to 100_000 do
    Workload.Arrival.tick p
  done;
  let p2 = Workload.Arrival.pacer (Bursty { burst = 3; pause_ns = 0 }) in
  for _ = 1 to 100_000 do
    Workload.Arrival.tick p2
  done;
  let steady = Workload.Arrival.pacer Workload.Arrival.Steady in
  for _ = 1 to 100_000 do
    Workload.Arrival.tick steady
  done;
  Alcotest.(check bool) "degenerate pacers are free" true
    (Sync.Mono.now () -. t0 < 5.0)

let test_arrival_process_validation () =
  let bad name p =
    Alcotest.check_raises name
      (Invalid_argument (name ^ ": rate must be positive and finite"))
      (fun () -> Workload.Arrival.validate p)
  in
  bad "Arrival.Periodic" (Periodic { rate = 0.0 });
  bad "Arrival.Poisson" (Poisson { rate = -1.0 });
  bad "Arrival.Burst" (Burst { rate = Float.nan; burst = 2 });
  bad "Arrival.Periodic" (Periodic { rate = Float.infinity });
  Alcotest.check_raises "zero burst"
    (Invalid_argument "Arrival.Burst: burst must be >= 1") (fun () ->
      Workload.Arrival.validate (Burst { rate = 100.0; burst = 0 }))

let draw_stamps process ~n =
  let rng = Workload.Rng.create ~seed:7 ~stream:0 in
  let s = Workload.Arrival.schedule ~start_ns:1_000 process ~rng in
  List.init n (fun _ -> Workload.Arrival.next_arrival_ns s)

let check_nondecreasing name stamps =
  ignore
    (List.fold_left
       (fun prev x ->
         if x < prev then Alcotest.failf "%s: stamps went backwards" name;
         x)
       min_int stamps)

let test_arrival_periodic_schedule () =
  let stamps = draw_stamps (Periodic { rate = 1_000_000.0 }) ~n:100 in
  check_nondecreasing "periodic" stamps;
  Alcotest.(check int) "first stamp is the start" 1_000 (List.hd stamps);
  Alcotest.(check int) "exact 1us gaps" (1_000 + (99 * 1_000))
    (List.nth stamps 99)

let test_arrival_poisson_schedule () =
  let n = 20_000 in
  let rate = 1_000_000.0 in
  let stamps = draw_stamps (Poisson { rate }) ~n in
  check_nondecreasing "poisson" stamps;
  let span = float_of_int (List.nth stamps (n - 1) - List.hd stamps) in
  let mean_gap = span /. float_of_int (n - 1) in
  let expect = 1e9 /. rate in
  Alcotest.(check bool) "mean interarrival within 20% of 1/rate" true
    (mean_gap > 0.8 *. expect && mean_gap < 1.2 *. expect)

let test_arrival_burst_schedule () =
  let stamps = draw_stamps (Burst { rate = 1_000.0; burst = 4 }) ~n:9 in
  check_nondecreasing "burst" stamps;
  let s = Array.of_list stamps in
  for i = 1 to 3 do
    Alcotest.(check int) "coincident within burst" s.(0) s.(i)
  done;
  Alcotest.(check bool) "gap after the burst" true (s.(4) > s.(3));
  (* Long-run rate: the inter-burst gap covers the whole burst. *)
  Alcotest.(check int) "gap = burst / rate" (s.(0) + 4_000_000) s.(4);
  Alcotest.(check int) "next burst coincident again" s.(4) s.(7)

(* Very high rates must saturate to zero gaps — coincident stamps, no
   division blow-up — and never busy-hang in [wait_until] (the stamps
   are immediately in the past). *)
let test_arrival_extreme_rates () =
  let t0 = Sync.Mono.now () in
  List.iter
    (fun p ->
      let rng = Workload.Rng.create ~seed:3 ~stream:1 in
      let s = Workload.Arrival.schedule ~start_ns:0 p ~rng in
      for _ = 1 to 50_000 do
        let stamp = Workload.Arrival.next_arrival_ns s in
        if stamp < 0 then Alcotest.fail "negative stamp";
        Workload.Arrival.wait_until stamp
      done)
    [
      Workload.Arrival.Periodic { rate = 1e18 };
      Poisson { rate = 1e18 };
      Burst { rate = 1e15; burst = 1 };
      Burst { rate = max_float; burst = 1_000 };
    ];
  Alcotest.(check bool) "past-due schedules issue immediately" true
    (Sync.Mono.now () -. t0 < 5.0)

let test_arrival_wait_until_past () =
  let t0 = Sync.Mono.now () in
  for _ = 1 to 10_000 do
    Workload.Arrival.wait_until 0
  done;
  Workload.Arrival.wait_until min_int;
  Alcotest.(check bool) "no wait for past deadlines" true
    (Sync.Mono.now () -. t0 < 1.0)

let test_arrival_process_names () =
  Alcotest.(check string) "periodic" "periodic-100/s"
    (Workload.Arrival.process_to_string (Periodic { rate = 100.0 }));
  Alcotest.(check string) "poisson" "poisson-50000/s"
    (Workload.Arrival.process_to_string (Poisson { rate = 50_000.0 }));
  Alcotest.(check string) "burst" "burst-8x1000/s"
    (Workload.Arrival.process_to_string (Burst { rate = 1_000.0; burst = 8 }))

(* ------------------------------ overload ------------------------------ *)

module Ov = Workload.Overload

(* Synthesize one epoch's worth of telemetry directly into the global
   metrics: [step] diffs snapshots, so whatever we record between two
   steps is that epoch's observation. *)
let synth_hot ~budget_ns =
  Obs.Metrics.on_future_created 64;
  Obs.Metrics.on_future_forced ~w:1 (budget_ns * 50)

let ov_cfg = { Ov.default with hysteresis = 2; min_ops = 8 }

let test_overload_validation () =
  let bad name cfg =
    Alcotest.(check bool) name true
      (try
         ignore (Ov.create ~cfg ());
         false
       with Invalid_argument _ -> true)
  in
  bad "epoch" { ov_cfg with hysteresis = 0 };
  bad "budget" { ov_cfg with p99_budget_ns = 0 };
  bad "fraction" { ov_cfg with recover_fraction = 0.0 };
  bad "squeeze" { ov_cfg with squeeze_slack = 0 };
  bad "percents" { ov_cfg with shed_floor = 80; shed_ceiling = 20 };
  Alcotest.check_raises "epoch must be > 0"
    (Invalid_argument "Overload.create: epoch must be > 0") (fun () ->
      ignore (Ov.create ~epoch:0.0 ()))

(* The full ladder, driven by hand-stepped epochs: hot epochs escalate
   one rung each (ramping the shed fraction before leaving Shed), idle
   epochs are calm and de-escalate only after [hysteresis] in a row. *)
let test_overload_ladder () =
  let ov = Ov.create ~cfg:ov_cfg () in
  Alcotest.(check string) "starts admitting" "admit" (Ov.stage_name (Ov.stage ov));
  let hot () =
    synth_hot ~budget_ns:ov_cfg.p99_budget_ns;
    Ov.step ov
  in
  hot ();
  Alcotest.(check string) "hot #1: squeeze" "squeeze"
    (Ov.stage_name (Ov.stage ov));
  hot ();
  Alcotest.(check string) "hot #2: shed" "shed" (Ov.stage_name (Ov.stage ov));
  Alcotest.(check int) "shed floor" ov_cfg.shed_floor (Ov.shed_percent ov);
  hot ();
  Alcotest.(check string) "ramp, not escalate" "shed"
    (Ov.stage_name (Ov.stage ov));
  Alcotest.(check int) "shed fraction doubled" (2 * ov_cfg.shed_floor)
    (Ov.shed_percent ov);
  hot ();
  Alcotest.(check int) "ramped to ceiling" ov_cfg.shed_ceiling
    (Ov.shed_percent ov);
  Alcotest.(check bool) "writes still allowed" false (Ov.writes_degraded ov);
  hot ();
  Alcotest.(check string) "ramp exhausted: degrade" "degrade"
    (Ov.stage_name (Ov.stage ov));
  Alcotest.(check bool) "writes refused" true (Ov.writes_degraded ov);
  hot ();
  Alcotest.(check string) "degrade is the last rung" "degrade"
    (Ov.stage_name (Ov.stage ov));
  Alcotest.(check int) "three escalations" 3 (Ov.escalations ov);
  (* Recovery: idle epochs are calm; two per rung (hysteresis = 2). *)
  Ov.step ov;
  Alcotest.(check string) "one calm epoch holds" "degrade"
    (Ov.stage_name (Ov.stage ov));
  Ov.step ov;
  Alcotest.(check string) "hysteresis met: shed" "shed"
    (Ov.stage_name (Ov.stage ov));
  Ov.step ov;
  Ov.step ov;
  Alcotest.(check string) "then squeeze" "squeeze"
    (Ov.stage_name (Ov.stage ov));
  Ov.step ov;
  Ov.step ov;
  Alcotest.(check string) "fully recovered" "admit"
    (Ov.stage_name (Ov.stage ov));
  Alcotest.(check int) "three recoveries" 3 (Ov.recoveries ov);
  Alcotest.(check bool) "epochs counted" true (Ov.epochs ov >= 9)

(* A hot epoch mid-recovery zeroes the calm streak: the ladder must not
   de-escalate off a streak interrupted by fresh overload. *)
let test_overload_hysteresis_reset () =
  let ov = Ov.create ~cfg:{ ov_cfg with hysteresis = 3 } () in
  Ov.force_stage ov Ov.Shed;
  Ov.step ov;
  Ov.step ov;
  synth_hot ~budget_ns:ov_cfg.p99_budget_ns;
  Ov.step ov;
  (* The hot epoch ramps the shed fraction but also resets the streak:
     two more calm epochs must not be enough. *)
  Ov.step ov;
  Ov.step ov;
  Alcotest.(check string) "streak was reset" "shed"
    (Ov.stage_name (Ov.stage ov));
  Ov.step ov;
  Alcotest.(check string) "full streak de-escalates" "squeeze"
    (Ov.stage_name (Ov.stage ov))

let test_overload_slack_control () =
  let ov = Ov.create ~cfg:{ ov_cfg with squeeze_slack = 1 } () in
  let sl = Fl.Slack.create 16 in
  Ov.register_slack ov sl;
  Alcotest.(check int) "untouched while admitting" 16 (Fl.Slack.slack sl);
  Ov.force_stage ov Ov.Squeeze;
  Alcotest.(check int) "squeezed" 1 (Fl.Slack.slack sl);
  (* A worker joining a squeezed service is squeezed immediately. *)
  let late = Fl.Slack.create 8 in
  Ov.register_slack ov late;
  Alcotest.(check int) "late joiner squeezed" 1 (Fl.Slack.slack late);
  Ov.force_stage ov Ov.Admit;
  Alcotest.(check int) "restored to its own bound" 16 (Fl.Slack.slack sl);
  Alcotest.(check int) "late joiner restored too" 8 (Fl.Slack.slack late)

(* The admission lottery is a deterministic ticket draw: at a shed
   fraction of p percent, exactly p per hundred consecutive decisions
   are refused. *)
let test_overload_admit_fractions () =
  let ov = Ov.create ~cfg:ov_cfg () in
  let count_sheds n =
    let refused = ref 0 in
    for _ = 1 to n do
      if not (Ov.admit ov) then incr refused
    done;
    !refused
  in
  Alcotest.(check int) "admit stage sheds nothing" 0 (count_sheds 200);
  Ov.force_stage ov Ov.Squeeze;
  Alcotest.(check int) "squeeze stage sheds nothing" 0 (count_sheds 200);
  Ov.force_stage ov Ov.Shed;
  Alcotest.(check int) "shed floor fraction" ov_cfg.shed_floor
    (count_sheds 400 * 100 / 400);
  Ov.force_stage ov Ov.Degrade;
  Alcotest.(check int) "ceiling fraction while degraded" ov_cfg.shed_ceiling
    (count_sheds 400 * 100 / 400);
  Alcotest.(check int) "every decision counted" 1200 (Ov.offered ov);
  Alcotest.(check bool) "sheds counted" true (Ov.sheds ov > 0);
  Ov.force_stage ov Ov.Admit;
  Alcotest.(check int) "recovered: all admitted" 0 (count_sheds 200)

let test_overload_start_stop () =
  let ov = Ov.create ~cfg:ov_cfg ~epoch:0.001 () in
  Alcotest.(check bool) "not running" false (Ov.running ov);
  Ov.start ov;
  Alcotest.(check bool) "running" true (Ov.running ov);
  Alcotest.check_raises "double start"
    (Invalid_argument "Overload.start: already running") (fun () ->
      Ov.start ov);
  let deadline = Sync.Mono.now () +. 5.0 in
  while Ov.epochs ov < 3 && Sync.Mono.now () < deadline do
    Domain.cpu_relax ()
  done;
  Ov.stop ov;
  Alcotest.(check bool) "stopped" false (Ov.running ov);
  Alcotest.(check bool) "background epochs ran" true (Ov.epochs ov >= 3);
  Ov.stop ov (* idempotent *)

(* ------------------------------ service ------------------------------ *)

(* Closed-form bookkeeping identities of a clean (chaos-free) run: every
   request is either admitted or shed, every admitted op completes, and
   every completion lands in the sojourn histogram. *)
let service_smoke backend () =
  let cfg =
    {
      Workload.Service.default_config with
      workers = 2;
      requests_per_worker = 2_000;
      process = Workload.Arrival.Poisson { rate = 500_000.0 };
      backend;
    }
  in
  let r = Workload.Service.run cfg in
  let total = 2 * 2_000 in
  Alcotest.(check int) "admitted + shed = requests" total
    (r.Workload.Service.admitted + r.Workload.Service.shed);
  Alcotest.(check bool) "offered covers every decision" true
    (r.Workload.Service.offered >= total);
  (match backend with
  | Workload.Service.Central ->
      Alcotest.(check int) "every admitted op completed"
        r.Workload.Service.admitted r.Workload.Service.completed;
      Alcotest.(check int) "nothing failed" 0 r.Workload.Service.failed
  | Workload.Service.Sharded ->
      (* A host stall longer than the 5 ms service lease can expire a
         transfer, and recovery then poisons the lost window: such ops
         fail, and only those. *)
      let poisoned = r.Workload.Service.store_poisoned in
      Alcotest.(check int) "every admitted op completed or failed"
        r.Workload.Service.admitted
        (r.Workload.Service.completed + r.Workload.Service.failed);
      Alcotest.(check bool) "failures bounded by store poisonings" true
        (r.Workload.Service.failed <= poisoned);
      if poisoned = 0 then
        Alcotest.(check int) "nothing failed" 0 r.Workload.Service.failed);
  Alcotest.(check int) "every completion measured"
    r.Workload.Service.completed
    (Obs.Histogram.count r.Workload.Service.sojourn);
  let p50 = Workload.Service.sojourn_p r 50.0 in
  let p999 = Workload.Service.sojourn_p r 99.9 in
  Alcotest.(check bool) "tail dominates median" true (p999 >= p50 && p50 >= 0);
  Alcotest.(check bool) "no chaos deaths" true
    (r.Workload.Service.measurement.Workload.Runner.killed = 0)

let test_service_validation () =
  Alcotest.check_raises "workers"
    (Invalid_argument "Service.run: workers must be >= 1") (fun () ->
      ignore
        (Workload.Service.run
           { Workload.Service.default_config with workers = 0 }));
  Alcotest.check_raises "retry attempts"
    (Invalid_argument "Service.run: retry_attempts must be >= 1") (fun () ->
      ignore
        (Workload.Service.run
           { Workload.Service.default_config with retry_attempts = 0 }))

(* Overload end to end: impossible budgets force the ladder into
   shedding, and the shed/degraded arithmetic still balances. *)
let test_service_sheds_under_overload () =
  let was = Obs.sample_every () in
  Obs.set_sample_every 1;
  Fun.protect
    ~finally:(fun () -> Obs.set_sample_every was)
    (fun () ->
      let overload =
        {
          Ov.default with
          min_ops = 1;
          p99_budget_ns = 1;
          pending_budget_ns = 1;
          hysteresis = 10_000 (* never recover during the run *);
        }
      in
      let cfg =
        {
          Workload.Service.default_config with
          workers = 2;
          requests_per_worker = 30_000;
          process = Workload.Arrival.Poisson { rate = 2_000_000.0 };
          overload;
          epoch_s = 0.001;
        }
      in
      let r = Workload.Service.run cfg in
      let total = 2 * 30_000 in
      Alcotest.(check int) "admitted + shed = requests" total
        (r.Workload.Service.admitted + r.Workload.Service.shed);
      Alcotest.(check bool) "ladder engaged" true
        (Ov.stage_index r.Workload.Service.max_stage >= 1);
      Alcotest.(check bool) "escalations recorded" true
        (r.Workload.Service.escalations >= 1);
      Alcotest.(check bool) "controller epochs ran" true
        (r.Workload.Service.controller_epochs >= 1);
      Alcotest.(check bool) "load was shed" true (r.Workload.Service.shed > 0);
      Alcotest.(check bool) "shed rate in (0, 1]" true
        (Workload.Service.shed_rate r > 0.0
        && Workload.Service.shed_rate r <= 1.0);
      Alcotest.(check int) "admitted subset still completes"
        r.Workload.Service.admitted r.Workload.Service.completed)

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "streams differ" `Quick test_rng_streams_differ;
          Alcotest.test_case "below in range" `Quick test_rng_below_in_range;
          Alcotest.test_case "below covers" `Quick test_rng_below_covers;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "stack balance" `Quick
            test_distribution_stack_balance;
          Alcotest.test_case "list mix 20/20/60" `Quick
            test_distribution_list_mix;
          Alcotest.test_case "keys in range" `Quick
            test_distribution_keys_in_range;
          Alcotest.test_case "initial keys" `Quick test_initial_keys;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "degenerate" `Quick test_stats_degenerate;
        ] );
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "seconds formatting" `Quick test_report_seconds;
        ] );
      ( "runner",
        [
          Alcotest.test_case "runs workers" `Quick test_runner_runs_workers;
          Alcotest.test_case "propagates failures" `Quick
            test_runner_propagates_failure;
          Alcotest.test_case "invalid args" `Quick test_runner_invalid_args;
          Alcotest.test_case "cas accounting" `Quick test_runner_cas_accounting;
        ] );
      ( "slack",
        [
          Alcotest.test_case "policy" `Quick test_slack_policy;
          Alcotest.test_case "slack=1 immediate" `Quick
            test_slack_one_is_immediate;
          Alcotest.test_case "drain partial" `Quick test_slack_drain_partial;
          Alcotest.test_case "oldest-first order" `Quick
            test_slack_oldest_first_order;
          Alcotest.test_case "invalid" `Quick test_slack_invalid;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "exponent zero is uniform" `Quick
            test_zipf_uniform_exponent_zero;
          Alcotest.test_case "invalid args" `Quick test_zipf_invalid;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "pacer validation" `Quick
            test_arrival_pacer_validation;
          Alcotest.test_case "burst 1 / zero gap are free" `Quick
            test_arrival_pacer_degenerate;
          Alcotest.test_case "process validation" `Quick
            test_arrival_process_validation;
          Alcotest.test_case "periodic schedule" `Quick
            test_arrival_periodic_schedule;
          Alcotest.test_case "poisson schedule" `Quick
            test_arrival_poisson_schedule;
          Alcotest.test_case "burst schedule" `Quick test_arrival_burst_schedule;
          Alcotest.test_case "extreme rates saturate" `Quick
            test_arrival_extreme_rates;
          Alcotest.test_case "wait_until past deadline" `Quick
            test_arrival_wait_until_past;
          Alcotest.test_case "process names" `Quick test_arrival_process_names;
        ] );
      ( "overload",
        [
          Alcotest.test_case "config validation" `Quick
            test_overload_validation;
          Alcotest.test_case "full ladder" `Quick test_overload_ladder;
          Alcotest.test_case "hysteresis reset" `Quick
            test_overload_hysteresis_reset;
          Alcotest.test_case "slack squeeze/restore" `Quick
            test_overload_slack_control;
          Alcotest.test_case "admit fractions" `Quick
            test_overload_admit_fractions;
          Alcotest.test_case "start/stop" `Quick test_overload_start_stop;
        ] );
      ( "service",
        [
          Alcotest.test_case "sharded smoke" `Quick
            (service_smoke Workload.Service.Sharded);
          Alcotest.test_case "central smoke" `Quick
            (service_smoke Workload.Service.Central);
          Alcotest.test_case "validation" `Quick test_service_validation;
          Alcotest.test_case "sheds under overload" `Slow
            test_service_sheds_under_overload;
        ] );
    ]
