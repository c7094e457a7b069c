(* The single home for the repo's percentile math. Two halves:

   - Exact statistics over sample arrays (mean/std_dev/min/max/
     percentile/median), used by the benchmark reports, so bench tables
     and the obs subsystem share one definition of p50/p99
     (nearest-rank).
   - A log-bucketed (HDR-style) concurrent histogram for hot-path
     latencies and batch sizes: recording is two atomic bumps with no
     allocation, buckets give ≤ 25% relative error (4 sub-buckets per
     power of two), and reported percentiles use the same nearest-rank
     convention as the exact half. *)

(* ------------------------ exact sample stats ------------------------- *)

let check_non_empty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample array")

let mean xs =
  check_non_empty "Histogram.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let std_dev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let sum_sq =
      Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    in
    sqrt (sum_sq /. float_of_int (n - 1))
  end

let min xs =
  check_non_empty "Histogram.min" xs;
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  check_non_empty "Histogram.max" xs;
  Array.fold_left Stdlib.max xs.(0) xs

let percentile xs p =
  check_non_empty "Histogram.percentile" xs;
  if p < 0.0 || p > 100.0 then
    invalid_arg "Histogram.percentile: p out of [0, 100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))

let median xs = percentile xs 50.0

(* ------------------------ log-bucketed histogram --------------------- *)

(* Buckets 0..7 hold the values 0..7 exactly; beyond that each power of
   two is split into 4 sub-buckets (top two bits below the MSB). OCaml
   ints have a 62-bit magnitude, so the largest MSB position is 61 and
   the index space is 8 + (61-3+1)*4 = 244 buckets. *)
let buckets = 244

let bucket_of_value v =
  if v <= 0 then 0
  else if v < 8 then v
  else begin
    (* Highest set bit by binary search — six branches instead of one
       shift per bit (latencies are ~2^30 ns, so the loop form costs
       ~30 iterations right on the record path). *)
    let e = ref 3 and x = ref (v lsr 3) in
    if !x >= 1 lsl 32 then begin
      e := !e + 32;
      x := !x lsr 32
    end;
    if !x >= 1 lsl 16 then begin
      e := !e + 16;
      x := !x lsr 16
    end;
    if !x >= 1 lsl 8 then begin
      e := !e + 8;
      x := !x lsr 8
    end;
    if !x >= 1 lsl 4 then begin
      e := !e + 4;
      x := !x lsr 4
    end;
    if !x >= 1 lsl 2 then begin
      e := !e + 2;
      x := !x lsr 2
    end;
    if !x >= 2 then incr e;
    let sub = (v lsr (!e - 2)) land 3 in
    let idx = 8 + ((!e - 3) * 4) + sub in
    if idx >= buckets then buckets - 1 else idx
  end

(* Lower bound of the bucket's value range — what reported percentiles
   quote, biasing them down by at most one sub-bucket width. *)
let value_of_bucket idx =
  if idx < 0 || idx >= buckets then
    invalid_arg "Histogram.value_of_bucket: index out of range";
  if idx < 8 then idx
  else begin
    let k = idx - 8 in
    let e = 3 + (k / 4) and sub = k mod 4 in
    (1 lsl e) + (sub lsl (e - 2))
  end

type t = {
  counts : int Atomic.t array;
  sum : Sync.Cas_counter.t; (* exact sum of recorded values *)
}

let create () = { counts = Array.init buckets (fun _ -> Atomic.make 0); sum = Sync.Cas_counter.create () }

(* Weighted record: one sampled observation standing for [w] real ones.
   The bucket gains [w] and the sum gains [v * w], so counts, means and
   percentiles over a snapshot stay unbiased estimates of the unsampled
   stream. [w = 1] is the exact (unsampled) path. *)
let record_n t v ~w =
  if w > 0 then begin
    let v = if v < 0 then 0 else v in
    ignore (Atomic.fetch_and_add t.counts.(bucket_of_value v) w);
    Sync.Cas_counter.add t.sum (v * w)
  end

let record t v = record_n t v ~w:1

let reset t =
  Array.iter (fun c -> Atomic.set c 0) t.counts;
  Sync.Cas_counter.reset t.sum

(* A snapshot is plain data: diffable, and safe to read at leisure while
   recording continues (each bucket is read atomically; cross-bucket skew
   during a concurrent snapshot is bounded by in-flight recordings). *)
type s = { counts : int array; sum : int }

let snapshot (t : t) =
  { counts = Array.map Atomic.get t.counts; sum = Sync.Cas_counter.total t.sum }

let diff later earlier =
  {
    counts = Array.init buckets (fun i -> later.counts.(i) - earlier.counts.(i));
    sum = later.sum - earlier.sum;
  }

let count s = Array.fold_left ( + ) 0 s.counts

let mean_value s =
  let n = count s in
  if n = 0 then 0.0 else float_of_int s.sum /. float_of_int n

(* Nearest-rank percentile over the bucket counts, quoting the containing
   bucket's lower bound — the same rank convention as [percentile]. *)
let percentile_value s p =
  if p < 0.0 || p > 100.0 then
    invalid_arg "Histogram.percentile_value: p out of [0, 100]";
  let n = count s in
  if n = 0 then 0
  else begin
    let rank =
      Stdlib.max 1
        (Stdlib.min n (int_of_float (ceil (p /. 100.0 *. float_of_int n))))
    in
    let acc = ref 0 and idx = ref 0 and found = ref (-1) in
    while !found < 0 && !idx < buckets do
      acc := !acc + s.counts.(!idx);
      if !acc >= rank then found := !idx;
      incr idx
    done;
    value_of_bucket (Stdlib.max 0 !found)
  end
