(* flbench — the command-line driver for every experiment.

   The panel subcommands regenerate the paper's Section 5 evaluation and
   the extensions, one panel per call (panels.ml); the rest run one
   configuration at a time, which is handier for exploration and
   scripting:

     flbench fig4 --quick --json BENCH_fig4.json
     flbench service --quick --assert-service
     flbench list
     flbench run --structure stack --impl weak --threads 4 --slack 20
     flbench check --structure queue --impl medium --rounds 20
     flbench fuzz --seed 2014 --iters 5
*)

module Future = Futures.Future
module R = Fl.Registry
open Cmdliner

let structures = [ "stack"; "queue"; "list" ]

let impl_names = List.map (fun i -> i.R.s_name) R.stack_impls

let set_impl_names = List.map (fun i -> i.R.l_name) R.set_impls

let all_impl_names =
  List.sort_uniq compare (impl_names @ set_impl_names)

(* ------------------------------- list ------------------------------- *)

let list_cmd =
  let doc = "List available structures and implementations." in
  let run () =
    print_endline "structures:      stack queue list";
    print_endline
      ("implementations: " ^ String.concat " " impl_names
     ^ " (+ txn for list)");
    print_endline
      "conditions:      lockfree/strong = strong-FL, medium = medium-FL, \
       weak = weak-FL"
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------- run -------------------------------- *)

let structure_arg =
  let doc = "Data structure: stack, queue or list." in
  Arg.(
    required
    & opt (some (enum (List.map (fun s -> (s, s)) structures))) None
    & info [ "s"; "structure" ] ~docv:"STRUCT" ~doc)

let impl_arg =
  let doc =
    "Implementation: lockfree, flatcomb, weak, medium or strong — plus \
     elim (stacks only) and txn (lists only)."
  in
  Arg.(
    required
    & opt (some (enum (List.map (fun s -> (s, s)) all_impl_names))) None
    & info [ "i"; "impl" ] ~docv:"IMPL" ~doc)

let threads_arg =
  Arg.(value & opt int 2 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Domains.")

let ops_arg =
  Arg.(
    value & opt int 20_000
    & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations per thread.")

let slack_arg =
  Arg.(
    value & opt int 10
    & info [ "x"; "slack" ] ~docv:"X"
        ~doc:"Futures allowed outstanding before forcing them all.")

let repeats_arg =
  Arg.(value & opt int 3 & info [ "r"; "repeats" ] ~docv:"N" ~doc:"Repeats.")

let run_cmd =
  let doc =
    "Run one cell of a figure panel (one implementation, one thread \
     count, one slack) and print the measurement."
  in
  let run structure impl threads ops slack repeats =
    let cfg =
      { Panels.default_config with threads = [ threads ]; ops; repeats }
    in
    let column =
      try
        match structure with
        | "stack" -> Panels.stack_column cfg (R.find_stack impl)
        | "queue" -> Panels.queue_column cfg (R.find_queue impl)
        | "list" -> Panels.set_column cfg (R.find_set impl)
        | _ -> assert false
      with Not_found ->
        Printf.eprintf "error: %s has no %s implementation\n" structure impl;
        exit 2
    in
    let m = column.Panels.measure ~slack ~threads in
    Printf.printf
      "%s/%s threads=%d ops=%d slack=%d: %s mean (+/- %s), %.0f ops/s, %.2f \
       CAS/op\n"
      structure impl threads ops slack
      (Workload.Report.seconds m.Workload.Runner.seconds)
      (Workload.Report.seconds m.Workload.Runner.std_dev)
      m.Workload.Runner.throughput m.Workload.Runner.cas_per_op
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ structure_arg $ impl_arg $ threads_arg $ ops_arg $ slack_arg
      $ repeats_arg)

(* ------------------------------ check ------------------------------- *)

let rounds_arg =
  Arg.(
    value & opt int 10
    & info [ "rounds" ] ~docv:"N" ~doc:"Recorded rounds to verify.")

let check_cmd =
  let doc =
    "Record concurrent executions and verify them against the \
     implementation's futures-linearizability condition."
  in
  let run structure impl rounds =
    let outcome =
      try
        match structure with
        | "stack" -> Conformance.check_stack ~rounds (R.find_stack impl)
        | "queue" -> Conformance.check_queue ~rounds (R.find_queue impl)
        | "list" -> Conformance.check_set ~rounds (R.find_set impl)
        | _ -> assert false
      with Not_found ->
        Printf.eprintf "error: %s has no %s implementation\n" structure impl;
        exit 2
    in
    match outcome.Conformance.first_failure with
    | None ->
        Printf.printf "%s/%s: %d rounds, all %s-FL\n" structure impl rounds
          (Lin.Order.condition_name (Conformance.claimed_condition impl))
    | Some history ->
        print_endline history;
        Printf.printf "%s/%s: %d/%d rounds FAILED\n" structure impl
          outcome.Conformance.violations rounds;
        exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ structure_arg $ impl_arg $ rounds_arg)

(* ------------------------------ fuzz -------------------------------- *)

let fuzz_target_names = List.map (fun t -> t.Fuzz.Exec.name) Fuzz.Exec.targets

let fuzz_targets_arg =
  let doc =
    "Target to fuzz (repeatable; default all). One of: "
    ^ String.concat ", " fuzz_target_names ^ "."
  in
  Arg.(value & opt_all string [] & info [ "target" ] ~docv:"TARGET" ~doc)

let fuzz_seed_arg =
  Arg.(
    value & opt int 2014
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Campaign seed. Same seed, same programs, same perturbation \
           plans, same verdicts.")

let fuzz_iters_arg =
  Arg.(
    value & opt int 20
    & info [ "iters" ] ~docv:"N" ~doc:"Iterations per target.")

let fuzz_budget_arg =
  Arg.(
    value & opt float 0.
    & info [ "budget" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget per target (0 = none); stops the iteration \
           loop when exceeded.")

let fuzz_condition_arg =
  let conds =
    [ ("strong", Lin.Order.Strong); ("medium", Lin.Order.Medium);
      ("weak", Lin.Order.Weak); ("fsc", Lin.Order.Fsc) ]
  in
  let doc =
    "Override the checked condition (strong, medium, weak, fsc). The \
     acceptance gauntlet runs an intentionally-too-strong check, e.g. \
     --target stack/weak --condition medium."
  in
  Arg.(
    value & opt (some (enum conds)) None
    & info [ "condition" ] ~docv:"COND" ~doc)

let fuzz_threads_arg =
  Arg.(
    value & opt int 0
    & info [ "threads" ] ~docv:"N" ~doc:"Program threads (0 = default 3).")

let fuzz_phases_arg =
  Arg.(
    value & opt int 0
    & info [ "phases" ] ~docv:"N" ~doc:"Program phases (0 = default 2).")

let fuzz_steps_arg =
  Arg.(
    value & opt int 0
    & info [ "steps" ] ~docv:"N"
        ~doc:"Steps per thread per phase (0 = default 5).")

let fuzz_mega_arg =
  Arg.(
    value & opt int 0
    & info [ "mega" ] ~docv:"STEPS"
        ~doc:
          "Steps per thread for mega targets (0 = default 2000). Mega \
           targets are named mega/<stack|queue>/<impl>[@SEED]: one \
           uncapped single-phase program whose recorded history is \
           certified by the streaming monitor instead of the exact \
           checker; the optional @SEED corrupts the history \
           deterministically and expects a rejection.")

let fuzz_out_arg =
  Arg.(
    value
    & opt string Fuzz.Driver.default_out_dir
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for .repro files.")

let fuzz_replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Re-execute a saved .repro byte-for-byte instead of fuzzing. \
           Exits 0 when the recorded violation reproduces, 1 when it no \
           longer does, 2 on a malformed file.")

let sanitize name =
  String.map (function '/' -> '-' | c -> c) name

let fuzz_cmd =
  let doc =
    "Fuzz the structures for futures-linearizability violations: random \
     op programs under seeded schedule-perturbation plans, recorded \
     histories checked against each target's claimed condition, failures \
     shrunk to a minimal .repro."
  in
  let run targets seed iters budget condition threads phases steps mega out
      replay =
    let die msg =
      Printf.eprintf "error: %s\n" msg;
      exit 2
    in
    match replay with
    | Some path -> (
        let repro =
          try Fuzz.Repro.load path
          with Invalid_argument msg | Sys_error msg -> die msg
        in
        if Fuzz.Mega.is_mega_name repro.Fuzz.Repro.target then begin
          let _, out =
            try Fuzz.Mega.replay path
            with Invalid_argument msg | Sys_error msg -> die msg
          in
          match out.Fuzz.Mega.verdict with
          | Lin.Stream.Reject { index; reason } ->
              print_endline reason;
              Printf.printf
                "replay %s: streaming violation reproduced at event %d \
                 (%d ops)\n"
                path index out.Fuzz.Mega.ops
          | Lin.Stream.Accept ->
              Printf.printf
                "replay %s: PASSED — the recorded violation did not \
                 reproduce (%d ops)\n"
                path out.Fuzz.Mega.ops;
              exit 1
        end
        else
          let r, out =
            try Fuzz.Driver.replay path
            with Invalid_argument msg | Sys_error msg -> die msg
          in
          match out.Fuzz.Exec.verdict with
          | Fuzz.Exec.Violation msg ->
              print_endline msg;
              Printf.printf
                "replay %s: violation of %s reproduced (%d ops)\n" path
                (Lin.Order.condition_name r.Fuzz.Repro.condition)
                out.Fuzz.Exec.ops
          | Fuzz.Exec.Pass ->
              Printf.printf
                "replay %s: PASSED — the recorded violation did not \
                 reproduce (%d ops)\n"
                path out.Fuzz.Exec.ops;
              exit 1)
    | None ->
        let names = if targets = [] then fuzz_target_names else targets in
        let mega_names, exec_names =
          List.partition Fuzz.Mega.is_mega_name names
        in
        let ts =
          List.map
            (fun n ->
              try Fuzz.Exec.find n
              with Invalid_argument msg -> die msg)
            exec_names
        in
        let size =
          let d = Fuzz.Program.default_size in
          Fuzz.Program.cap
            {
              Fuzz.Program.threads =
                (if threads > 0 then threads else d.Fuzz.Program.threads);
              phases = (if phases > 0 then phases else d.Fuzz.Program.phases);
              steps = (if steps > 0 then steps else d.Fuzz.Program.steps);
            }
        in
        let budget = if budget > 0. then budget else infinity in
        let multi = List.length names > 1 in
        let failed = ref false in
        List.iter
          (fun name ->
            let t =
              try Fuzz.Mega.target_of_string name
              with Invalid_argument msg -> die msg
            in
            let file =
              if multi then
                Some (Printf.sprintf "%d-%s.repro" seed (sanitize name))
              else None
            in
            let r =
              Fuzz.Mega.fuzz
                ~threads:(if threads > 0 then threads else 3)
                ~steps:(if mega > 0 then mega else 2000)
                ?condition ~iters ~out_dir:out ?file ~seed t
            in
            match r.Fuzz.Mega.first_failure with
            | None ->
                Printf.printf
                  "fuzz %-14s [%s]: %d iters, %d ops, ok \
                   (streaming-certified)\n"
                  r.Fuzz.Mega.target
                  (Lin.Order.condition_name r.Fuzz.Mega.condition)
                  r.Fuzz.Mega.iters r.Fuzz.Mega.total_ops
            | Some msg ->
                failed := true;
                print_endline msg;
                Printf.printf
                  "fuzz %s [%s]: VIOLATION at iter %d — shrunk to %d ops, \
                   violating event %s, repro: %s\n"
                  r.Fuzz.Mega.target
                  (Lin.Order.condition_name r.Fuzz.Mega.condition)
                  r.Fuzz.Mega.iters
                  (Option.value ~default:0 r.Fuzz.Mega.shrunk_ops)
                  (match r.Fuzz.Mega.violating_index with
                  | Some i -> string_of_int i
                  | None -> "?")
                  (Option.value ~default:"?" r.Fuzz.Mega.repro_path))
          mega_names;
        List.iter
          (fun t ->
            let file =
              if multi then
                Some (Printf.sprintf "%d-%s.repro" seed (sanitize t.Fuzz.Exec.name))
              else None
            in
            let r =
              Fuzz.Driver.fuzz ~size ?condition ~iters ~budget ~out_dir:out
                ?file ~seed t
            in
            (match r.Fuzz.Driver.first_failure with
            | None ->
                Printf.printf "fuzz %-14s [%s]: %d iters, %d ops, ok%s\n"
                  r.Fuzz.Driver.target
                  (Lin.Order.condition_name r.Fuzz.Driver.condition)
                  r.Fuzz.Driver.iters r.Fuzz.Driver.total_ops
                  (if r.Fuzz.Driver.fsc_witnesses > 0 then
                     Printf.sprintf " (%d Figure-3 Fsc witnesses)"
                       r.Fuzz.Driver.fsc_witnesses
                   else "")
            | Some msg ->
                failed := true;
                print_endline msg;
                Printf.printf
                  "fuzz %s [%s]: VIOLATION at iter %d — shrunk to %d ops / \
                   %d plan steps, repro: %s\n"
                  r.Fuzz.Driver.target
                  (Lin.Order.condition_name r.Fuzz.Driver.condition)
                  r.Fuzz.Driver.iters
                  (Option.value ~default:0 r.Fuzz.Driver.shrunk_ops)
                  (Option.value ~default:0 r.Fuzz.Driver.shrunk_plan)
                  (Option.value ~default:"?" r.Fuzz.Driver.repro_path)))
          ts;
        if !failed then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ fuzz_targets_arg $ fuzz_seed_arg $ fuzz_iters_arg
      $ fuzz_budget_arg $ fuzz_condition_arg $ fuzz_threads_arg
      $ fuzz_phases_arg $ fuzz_steps_arg $ fuzz_mega_arg $ fuzz_out_arg
      $ fuzz_replay_arg)

(* ----------------------------- panels ------------------------------ *)

(* Every panel flag is a term yielding an update of the panel config. A
   command applies its flags' updates, in order, to the --quick/--full
   preset, so explicit sizes win whatever their position on the line. *)

let set names kind ~docv ~doc f =
  Term.(
    const (fun v cfg -> Option.fold ~none:cfg ~some:(f cfg) v)
    $ Arg.(value & opt (some kind) None & info names ~docv ~doc))

let switch name ~doc f =
  let on = Arg.(value & flag & info [ name ] ~doc) in
  Term.(const (fun on cfg -> if on then f cfg else cfg) $ on)

let preset =
  Arg.(
    value
    & vflag Panels.default_config
        [
          ( Panels.quick_config,
            info [ "quick" ]
              ~doc:"Start from small sizes for a fast smoke run." );
          ( Panels.full_config,
            info [ "full" ]
              ~doc:"Start from the paper's 100K ops per thread." );
        ])

(* Positive integers, alone or comma-separated. Unlike [Arg.list int],
   an empty element (or list) is an error rather than silently dropped;
   zero or a negative is an error rather than an exception mid-run. *)
let positive s =
  match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None

let pos = Cli.int_at_least 1

let ints =
  let parse s =
    let xs = List.map positive (String.split_on_char ',' s) in
    if List.mem None xs then
      Error (`Msg (Printf.sprintf "%S is not a list of positive integers" s))
    else Ok (List.map Option.get xs)
  in
  let comma f () = Format.pp_print_char f ',' in
  Arg.conv (parse, Format.(pp_print_list ~pp_sep:comma pp_print_int))

let sizes =
  [
    set [ "ops" ] pos ~docv:"N" ~doc:"Operations per thread."
      (fun c ops -> { c with Panels.ops });
    set [ "repeats" ] pos ~docv:"N" ~doc:"Repeats per cell."
      (fun c repeats -> { c with Panels.repeats });
    set [ "threads" ] ints ~docv:"A,B,C"
      ~doc:"Thread counts, one table row each."
      (fun c threads -> { c with Panels.threads });
  ]

let slacks =
  set [ "slacks" ] ints ~docv:"A,B,C" ~doc:"Slacks, one panel each."
    (fun c slacks -> { c with Panels.slacks })

let csv =
  switch "csv" ~doc:"Print tables as CSV." (fun c ->
      { c with Panels.csv = true })

let json =
  set [ "json" ] Arg.string ~docv:"PATH"
    ~doc:"Also write every measurement to PATH as BENCH_*.json records."
    (fun c path -> { c with Panels.json = Some (Json.sink path) })

let seed =
  set [ "seed" ] Arg.int ~docv:"N"
    ~doc:"Seed of the injected faults and the service arrivals (default 2014)."
    (fun c chaos_seed -> { c with Panels.chaos_seed })

let observe =
  [
    switch "obs"
      ~doc:
        "Turn the observability subsystem on (same as FLDS_OBS=1); adds an \
         \"obs\" block to --json."
      (fun c ->
        Obs.set_enabled true;
        c);
    set [ "trace" ] Arg.string ~docv:"PATH"
      ~doc:
        "Implies --obs; at exit export the flight recorder to PATH as Chrome \
         trace_event JSON."
      (fun c path ->
        Obs.set_enabled true;
        { c with Panels.trace_path = Some path });
    (* Conformance traces must be lossless (a dropped completion event
       reads as a violation or an uncertifiable trace), so rings created
       from here on get room for every event of a smoke-sized run. *)
    set [ "conformance-stride" ] Arg.int ~docv:"N"
      ~doc:
        "Implies --obs; record completed-op events for values with residue \
         0 mod N (same as FLDS_OBS_CONFORMANCE=1/N)."
      (fun c n ->
        Obs.set_enabled true;
        Obs.set_conformance_stride n;
        Obs.Trace.set_capacity 65_536;
        c);
  ]

let assert_service =
  switch "assert-service" ~doc:"Exit 1 when a service claim fails."
    (fun c -> { c with Panels.assert_service = true })

let config ?(base = preset) flags =
  List.fold_left
    (fun acc f -> Term.(const (fun c f -> f c) $ acc $ f))
    base flags

let panel name ~doc ?base flags run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ config ?base flags)

let plain f cfg =
  f cfg;
  Panels.finish cfg ~failures:0

let gated f cfg = Panels.finish cfg ~failures:(f cfg)

let panel_cmds =
  let figure = sizes @ [ slacks; csv; json ] @ observe in
  let sized = sizes @ [ csv; json ] @ observe in
  let unsized = Term.const Panels.default_config in
  [
    panel "fig4" ~doc:"Figure 4: stacks, 50% push / 50% pop." figure
      (plain Panels.fig4);
    panel "fig5" ~doc:"Figure 5: queues, 50% enq / 50% deq." figure
      (plain Panels.fig5);
    panel "fig6"
      ~doc:"Figure 6: linked lists, 20% ins / 20% rem / 60% ctn (ops /10)."
      figure (plain Panels.fig6);
    panel "ablation" ~doc:"DESIGN.md ablations A-D."
      (sizes @ [ slacks; csv ] @ observe)
      (plain Panels.ablation);
    panel "micro" ~doc:"Single-thread op cost at slack 1 (paper §5.1)."
      ~base:unsized (json :: observe) (plain Panels.micro);
    panel "cas" ~doc:"Weak-queue CAS-per-op correlation (paper §5.2)."
      (sizes @ [ slacks ] @ observe)
      (plain Panels.cas_experiment);
    panel "extra" ~doc:"Extensions: Zipf-keyed lists, asymmetric queue mix."
      (sizes @ [ slacks; csv ] @ observe)
      (plain Panels.extra);
    panel "shard"
      ~doc:"Sharded store vs the central map, plus kills per transfer step."
      (seed :: sized) (plain Panels.shard_bench);
    panel "chaos" ~doc:"Seeded fault injection and the recovery counters."
      (seed :: sized) (plain Panels.chaos_bench);
    panel "trace" ~doc:"Cross-domain probe for the flight recorder."
      ~base:unsized observe
      (fun cfg -> Panels.finish (Panels.trace_probe cfg) ~failures:0);
    panel "service"
      ~doc:"Open-loop service saturation sweep plus overload chaos."
      (seed :: assert_service :: sized)
      (gated Panels.service_bench);
    panel "conformance"
      ~doc:"Stream-monitor throughput and conformance sampling overhead."
      ((assert_service :: sizes) @ (json :: observe))
      (gated Panels.conformance_bench);
    panel "all" ~doc:"fig4-6, ablation, cas, extra and micro." figure
      (plain Panels.all);
  ]

let () =
  let doc = "Futures-based shared data structures (PODC 2014 reproduction)." in
  let info = Cmd.info "flbench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          ([ list_cmd; run_cmd; check_cmd; fuzz_cmd ] @ panel_cmds)))
