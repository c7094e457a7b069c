(* Benchmark self-test.

   1. Every workload, untraced and traced, at smoke size: every
      correctness check passes and every metric of the run's set is
      present and finite.
   2. The benchmark's open-loop generator agrees with the library's own
      service loop ([Workload.Service.run]) at one configuration below
      the knee: neither sheds, and the generator's p50 sojourn lands within
      one bucket (25%) of [Service.run]'s bucketed p50. This keeps the
      generator from drifting away from the loop it mirrors. *)

open Perfbench
module Svc = Workload.Service

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
      if not ok then incr failures)
    fmt

let smoke () =
  List.iter
    (fun (w : Bench.workload) ->
      List.iter
        (fun trace ->
          let r = Bench.run ~workload:w ~seed:7 ~seconds:1.0 ~trace in
          let label = Printf.sprintf "%s trace=%b" w.Bench.name trace in
          List.iter (fun e -> print_endline ("  " ^ e)) r.Bench.errors;
          check (r.Bench.errors = []) "%s: correctness checks" label;
          (* A failed op (a window poisoned by an expired transfer) is a
             legal fate, counted rather than checked. *)
          check (r.Bench.attempted > 0)
            "%s: %d ops attempted, %d failed" label r.Bench.attempted r.Bench.failed;
          let want = if trace then Bench.per_layer else Bench.end_to_end in
          check
            (List.map (fun (s, _) -> s.Bench.m_name) r.Bench.metrics
             = List.map (fun s -> s.Bench.m_name) want
            && List.for_all (fun (_, v) -> Float.is_finite v.Bench.v) r.Bench.metrics)
            "%s: all %d metrics present and finite" label (List.length want))
        [ false; true ])
    Bench.workloads

let agreement () =
  let cfg =
    Bench.service_config ~backend:Svc.Central ~rate:5_000.0 ~seed:2014 ~dur:1.0
  in
  let lib = Svc.run cfg in
  let ours = Open_loop.repeat cfg ~traced:false in
  let h = Obs.Histogram.create () in
  Array.iter (fun x -> Obs.Histogram.record h (int_of_float x)) ours.Open_loop.sojourn_ns;
  let lib_p50 = Svc.sojourn_p lib 50.0 in
  let our_exact = Util.median ours.Open_loop.sojourn_ns in
  let our_p50 = Obs.Histogram.percentile_value (Obs.Histogram.snapshot h) 50.0 in
  let bucket = Obs.Histogram.bucket_of_value in
  check (lib.Svc.shed = 0 && ours.Open_loop.shed = 0)
    "agreement: no sheds below the knee (library %d, generator %d)" lib.Svc.shed
    ours.Open_loop.shed;
  check
    (abs (bucket our_p50 - bucket lib_p50) <= 1)
    "agreement: generator p50 %.0f ns (bucketed %d) within one bucket of Service.run p50 %d ns"
    our_exact our_p50 lib_p50

let () =
  smoke ();
  agreement ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "selftest passed"
