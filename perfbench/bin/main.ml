(* perfbench: run one workload of the repository benchmark and print its
   metrics. Usually started through run.py, which builds this program
   first:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--rev REV] [--out DIR]

   Prints one line per metric (name, value, unit, sample count,
   quartiles), then, as the last line, the result object
   {"correct", "attempted", "failed", "metrics"}. Writes the stamped
   record to DIR/<workload>-seed<N>-trace<T>.json and, when tracing, the
   spans to DIR/<workload>-seed<N>.trace.json. Exits 1 when any
   correctness check fails. *)

open Perfbench

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV] [--out DIR]"

let json_str s = Printf.sprintf "%S" s

let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rev = ref "unknown" and out = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer)");
      ("--rev", Arg.Set_string rev, "REV source revision to stamp");
      ("--out", Arg.Set_string out, "DIR where records and traces go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Bench.find_workload !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.Bench.name) Bench.workloads));
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let stamp =
    [
      ("workload", json_str w.Bench.name);
      ("why", json_str w.Bench.why);
      ("seed", string_of_int !seed);
      ("seconds", string_of_int !seconds);
      ("trace", string_of_int !trace);
      ("git_rev", json_str !rev);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("warmup", json_str "one discarded repeat per cell and per backend");
    ]
  in
  let obj kvs =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) kvs) ^ "}"
  in
  Printf.printf "# perfbench %s\n%!" (obj stamp);
  let r =
    Bench.run ~workload:w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:traced
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v.Bench.v) r.Bench.metrics in
  let errors =
    r.Bench.errors @ if finite then [] else [ "a metric has no samples" ]
  in
  let line name (v : Bench.value) unit_ layer =
    Printf.printf "%-36s %14.4f %-7s n=%-8d q1=%.4f q3=%.4f  [%s]\n" name v.Bench.v
      unit_ v.Bench.n v.Bench.q1 v.Bench.q3 layer
  in
  List.iter
    (fun ((s : Bench.spec), v) -> line s.Bench.m_name v s.Bench.m_unit s.Bench.layer)
    r.Bench.metrics;
  List.iter (fun (n, v) -> line n v "" "not gated") r.Bench.notes;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let value_json (v : Bench.value) =
    obj
      [
        ("value", json_num v.Bench.v);
        ("n", string_of_int v.Bench.n);
        ("q1", json_num v.Bench.q1);
        ("q3", json_num v.Bench.q3);
      ]
  in
  (try
     if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
     let base = Printf.sprintf "%s/%s-seed%d" !out w.Bench.name !seed in
     if traced then begin
       let n = Spans.write (base ^ ".trace.json") in
       Printf.printf "# %d spans in %s.trace.json\n" n base
     end;
     let path = Printf.sprintf "%s-trace%d.json" base !trace in
     let oc = open_out path in
     Printf.fprintf oc "%s\n"
       (obj
          (stamp
          @ [
              ("correct", string_of_bool (errors = []));
              ("attempted", string_of_int r.Bench.attempted);
              ("failed", string_of_int r.Bench.failed);
              ( "checks_failed",
                "[" ^ String.concat ", " (List.map json_str errors) ^ "]" );
              ( "metrics",
                obj
                  (List.map
                     (fun ((s : Bench.spec), v) ->
                       ( s.Bench.m_name,
                         obj
                           [
                             ("unit", json_str s.Bench.m_unit);
                             ("layer", json_str s.Bench.layer);
                             ("sample", value_json v);
                           ] ))
                     r.Bench.metrics) );
              ( "notes",
                obj (List.map (fun (n, v) -> (n, value_json v)) r.Bench.notes) );
            ]));
     close_out oc
   with Sys_error e -> Printf.eprintf "perfbench: could not write record: %s\n" e);
  Printf.printf "%s\n%!"
    (obj
       [
         ("correct", string_of_bool (errors = []));
         ("attempted", string_of_int r.Bench.attempted);
         ("failed", string_of_int r.Bench.failed);
         ( "metrics",
           obj
             (List.map
                (fun ((s : Bench.spec), v) ->
                  ( s.Bench.m_name,
                    obj [ ("value", json_num v.Bench.v); ("unit", json_str s.Bench.m_unit) ]
                  ))
                r.Bench.metrics) );
       ]);
  exit (if errors = [] then 0 else 1)
