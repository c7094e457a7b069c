type t = {
  min_wait : int;
  max_wait : int;
  budget : int; (* rounds per streak before [give_up]; max_int = none *)
  mutable window : int;
  mutable seed : int;
  mutable rounds : int;
  mutable yields : int;
}

(* Number of backoff rounds after which we start sleeping instead of pure
   spinning. On a machine with fewer cores than runnable domains, the domain
   we are waiting for may be descheduled; sleeping hands it the CPU. *)
let yield_threshold = 4

let create ?(min_wait = 16) ?(max_wait = 4096) ?budget () =
  if min_wait <= 0 then invalid_arg "Backoff.create: min_wait must be positive";
  if max_wait < min_wait then
    invalid_arg "Backoff.create: max_wait must be >= min_wait";
  let budget =
    match budget with
    | None -> max_int
    | Some b ->
        if b <= 0 then invalid_arg "Backoff.create: budget must be positive";
        b
  in
  {
    min_wait;
    max_wait;
    budget;
    window = min_wait;
    seed = (Domain.self () :> int) + 0x9e3779b9;
    rounds = 0;
    yields = 0;
  }

(* Cheap xorshift; quality is irrelevant, we only need to decorrelate the
   spin lengths of competing domains. *)
let next_rand t =
  let s = t.seed in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  t.seed <- s;
  s land max_int

let once t =
  Faults.point "backoff.once";
  let limit = 1 + (next_rand t mod t.window) in
  for _ = 1 to limit do
    Domain.cpu_relax ()
  done;
  t.rounds <- t.rounds + 1;
  if t.rounds > yield_threshold then begin
    t.yields <- t.yields + 1;
    Unix.sleepf 1e-6
  end;
  if t.window < t.max_wait then t.window <- min t.max_wait (t.window * 2)

(* The backoff of a CAS retry loop, made on the loop's first failure: an
   attempt that succeeds at once allocates none. *)
let retry = function
  | Some b as o ->
      once b;
      o
  | None ->
      let b = create () in
      once b;
      Some b

let reset t =
  t.window <- t.min_wait;
  t.rounds <- 0

let current_window t = t.window
let rounds t = t.rounds
let yields t = t.yields
let give_up t = t.rounds >= t.budget
