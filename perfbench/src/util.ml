(* Shared plumbing: clock, sample buffers, exact percentiles, and the
   barrier-released domain runner every timed section goes through. *)

let now = Sync.Mono.now_ns_int

(* A growable float buffer owned by one domain; appends allocate only
   when the buffer doubles. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let concat bs = Array.concat (List.map to_array bs)
end

(* Every gated percentile goes through the exact half of Obs.Histogram
   (nearest rank over the raw samples), never through its buckets. *)
let percentile xs p =
  if Array.length xs = 0 then Float.nan else Obs.Histogram.percentile xs p

let median xs = if Array.length xs = 0 then Float.nan else Obs.Histogram.median xs

(* Geometric mean of strictly positive values. *)
let geomean xs =
  let n = List.length xs in
  if n = 0 then Float.nan
  else exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int n)

type 'r run = {
  start_ns : int;  (** barrier release, read by the main domain *)
  results : 'r array;
  prepare_ns : int;  (** slowest domain's pre-barrier preparation *)
}

(* Run [work p] on [n] fresh domains released together by a barrier.
   [prepare i] runs in domain [i] before the barrier (handle creation is
   set-up, not measured work); [main ()] runs on the calling domain right
   after the release (the closed loop's timer). *)
let parallel n ~prepare ~work ~main =
  let barrier = Sync.Barrier.create (n + 1) in
  let prep = Array.make n 0 in
  let domains =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let t0 = now () in
            let p = prepare i in
            prep.(i) <- now () - t0;
            Sync.Barrier.wait barrier;
            work p))
  in
  Sync.Barrier.wait barrier;
  let start_ns = now () in
  main ();
  let results = Array.map Domain.join domains in
  { start_ns; results; prepare_ns = Array.fold_left max 0 prep }

let time_ns f =
  let t0 = now () in
  let r = f () in
  (r, now () - t0)
