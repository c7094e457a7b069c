type 'a t = {
  mutable buf : 'a array;
  mutable head : int; (* physical index of the oldest element *)
  mutable len : int;
}

(* Vacated and never-filled slots hold this immediate. It is never
   returned: every read is bounds-checked against [len] first. Using an
   immediate (rather than demanding a dummy from the caller) keeps the
   API monomorphic-dummy-free; [Array.make] with an immediate always
   builds a uniform (non-float) array, so subsequent polymorphic
   reads/writes are representation-correct for every ['a]. *)
let nil : 'a. 'a = Obj.magic 0

let round_pow2 n =
  let rec go c = if c >= n then c else go (c * 2) in
  go 1

let create ?(capacity = 8) () =
  if capacity < 1 then invalid_arg "Opbuf.create: capacity < 1";
  { buf = Array.make (round_pow2 capacity) nil; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.buf

(* Capacity is a power of two; masking wraps physical indices. *)
let mask t = Array.length t.buf - 1
let phys t i = (t.head + i) land mask t

let grow t =
  let old = t.buf in
  let b = Array.make (Array.length old * 2) nil in
  (* Unroll the ring to the base of the new array. *)
  for i = 0 to t.len - 1 do
    b.(i) <- old.((t.head + i) land (Array.length old - 1))
  done;
  t.buf <- b;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.(phys t t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Opbuf.get: index out of range";
  t.buf.(phys t i)

let pop_back t =
  if t.len = 0 then invalid_arg "Opbuf.pop_back: empty";
  t.len <- t.len - 1;
  let j = phys t t.len in
  let x = t.buf.(j) in
  t.buf.(j) <- nil;
  x

let drop_front t n =
  if n < 0 || n > t.len then invalid_arg "Opbuf.drop_front: bad count";
  for i = 0 to n - 1 do
    t.buf.(phys t i) <- nil
  done;
  t.head <- phys t n;
  t.len <- t.len - n

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Opbuf.truncate: bad count";
  for i = n to t.len - 1 do
    t.buf.(phys t i) <- nil
  done;
  t.len <- n

let clear t = truncate t 0

let compact2 keep a b =
  if a.len <> b.len then invalid_arg "Opbuf.compact2: lengths differ";
  let k = ref 0 in
  for i = 0 to b.len - 1 do
    let y = b.buf.(phys b i) in
    if keep y then begin
      if !k <> i then begin
        b.buf.(phys b !k) <- y;
        a.buf.(phys a !k) <- a.buf.(phys a i)
      end;
      incr k
    end
  done;
  truncate a !k;
  truncate b !k;
  !k

(* A ring is index-aligned with itself: moving slot [i] to [k] in "both"
   rings is one move. *)
let compact keep t = compact2 keep t t

let swap a b =
  let buf = a.buf and head = a.head and len = a.len in
  a.buf <- b.buf;
  a.head <- b.head;
  a.len <- b.len;
  b.buf <- buf;
  b.head <- head;
  b.len <- len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(phys t i)
  done

let to_list t = List.init t.len (fun i -> t.buf.(phys t i))

type ring = Ring : 'a t * ('a -> int) -> ring

let orphan f = if Futures.Future.poison f Futures.Future.Orphaned then 1 else 0

let abandon rings =
  let n = ref 0 in
  List.iter
    (fun (Ring (t, poison)) ->
      iter (fun x -> n := !n + poison x) t;
      clear t)
    rings;
  !n
