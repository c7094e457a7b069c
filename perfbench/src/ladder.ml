(* The layer ladder: one domain, one op at a time, each rung adding one
   layer an FL operation crosses on its way down. Every rung times calls
   into that layer's public functions from here; the difference between
   adjacent rungs is the added layer's self cost. A stack or queue rung's
   unit of work is a push+pop (enq+deq) pair, reported per op. *)

module F = Futures.Future
module R = Fl.Registry

type rung = {
  name : string;
  ops_per_iter : int;
  make : unit -> int -> unit;  (** fresh state; the closure runs n iterations *)
  around : (unit -> unit) -> unit;  (** switches the rung's layer on for the timing *)
}

let plain f = f ()

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

(* Seeded chaos at probability 0: every Faults.point takes its armed path
   (the per-domain draw) and never perturbs the schedule. *)
let with_obs_and_faults f =
  with_obs (fun () ->
      Faults.enable ~prob:0.0 ~seed:1 ();
      Fun.protect ~finally:Faults.disable f)

module H = Lockfree.Harris_list.Make (Int)

let slack1_stack () =
  let o = ((R.find_stack "weak").R.s_make ()).R.s_handle () in
  let sl = Fl.Slack.create 1 in
  fun n ->
    for i = 1 to n do
      let f = o.R.s_push i in
      Fl.Slack.note sl (fun () -> F.force f);
      let g = o.R.s_pop () in
      Fl.Slack.note sl (fun () -> ignore (F.force g))
    done

let rungs ~keys ~probes =
  let rung ?(around = plain) ?(ops_per_iter = 2) name make =
    { name; ops_per_iter; make; around }
  in
  [
    rung "treiber" (fun () ->
        let s = Lockfree.Treiber_stack.create () in
        fun n ->
          for i = 1 to n do
            Lockfree.Treiber_stack.push s i;
            ignore (Lockfree.Treiber_stack.pop s)
          done);
    rung "msqueue" (fun () ->
        let q = Lockfree.Ms_queue.create () in
        fun n ->
          for i = 1 to n do
            Lockfree.Ms_queue.enqueue q i;
            ignore (Lockfree.Ms_queue.dequeue q)
          done);
    rung "harris" ~ops_per_iter:1 (fun () ->
        let l = H.create () in
        List.iter (fun k -> ignore (H.insert l k)) keys;
        let m = Array.length probes in
        fun n ->
          for i = 1 to n do
            ignore (H.contains l probes.(i mod m))
          done);
    rung "future" ~ops_per_iter:1 (fun () n ->
        for i = 1 to n do
          let f = F.create () in
          F.fulfil f i;
          ignore (F.force f)
        done);
    rung "opbuf" ~ops_per_iter:1 (fun () ->
        let b = Fl.Opbuf.create () in
        fun n ->
          for i = 1 to n do
            Fl.Opbuf.push b i;
            Fl.Opbuf.iter ignore b;
            Fl.Opbuf.clear b
          done);
    rung "weak_stack" (fun () ->
        let h = Fl.Weak_stack.handle (Fl.Weak_stack.create ()) in
        fun n ->
          for i = 1 to n do
            F.force (Fl.Weak_stack.push h i);
            ignore (F.force (Fl.Weak_stack.pop h))
          done);
    rung "medium_queue" (fun () ->
        let h = Fl.Medium_queue.handle (Fl.Medium_queue.create ()) in
        fun n ->
          for i = 1 to n do
            F.force (Fl.Medium_queue.enqueue h i);
            ignore (F.force (Fl.Medium_queue.dequeue h))
          done);
    rung "registry_stack" (fun () ->
        let o = ((R.find_stack "weak").R.s_make ()).R.s_handle () in
        fun n ->
          for i = 1 to n do
            F.force (o.R.s_push i);
            ignore (F.force (o.R.s_pop ()))
          done);
    rung "registry_queue" (fun () ->
        let o = ((R.find_queue "medium").R.q_make ()).R.q_handle () in
        fun n ->
          for i = 1 to n do
            F.force (o.R.q_enq i);
            ignore (F.force (o.R.q_deq ()))
          done);
    rung "slack1" slack1_stack;
    rung "obs_on" ~around:with_obs slack1_stack;
    rung "faults_point" ~around:with_obs_and_faults slack1_stack;
  ]

let names = List.map (fun r -> r.name) (rungs ~keys:[] ~probes:[||])

type result = { rung : string; ns : float array; words : float array }

(* Each rung gets [budget_s]: a calibration pass sizes the batches, then
   [batches] timed batches give per-op ns and minor words. *)
let measure ~budget_s ~batches r =
  let run = r.make () in
  let ns = Array.make batches 0.0 and words = Array.make batches 0.0 in
  r.around (fun () ->
      let calib = 64 in
      let (), t = Util.time_ns (fun () -> run calib) in
      let per_iter = float_of_int (max 1 t) /. float_of_int calib in
      let iters =
        max 16
          (int_of_float (budget_s *. 1e9 /. float_of_int (batches + 1) /. per_iter))
      in
      run iters;
      for b = 0 to batches - 1 do
        let w0 = Gc.minor_words () in
        let (), t = Util.time_ns (fun () -> run iters) in
        let w1 = Gc.minor_words () in
        let ops = float_of_int (iters * r.ops_per_iter) in
        ns.(b) <- float_of_int t /. ops;
        words.(b) <- (w1 -. w0) /. ops
      done);
  { rung = r.name; ns; words }

let run ~budget_s ~seed =
  let keys =
    Workload.Distribution.initial_keys
      ~key_range:Workload.Distribution.default_key_range ~seed ()
  in
  let rng = Workload.Rng.create ~seed ~stream:0x1add in
  let probes =
    Array.init 4096 (fun _ ->
        Workload.Rng.below rng Workload.Distribution.default_key_range)
  in
  let rs = rungs ~keys:(List.sort compare keys) ~probes in
  let per = budget_s /. float_of_int (List.length rs) in
  List.map (measure ~budget_s:per ~batches:9) rs
