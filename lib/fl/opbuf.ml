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

(* Tombstone for cancelled ops: a unique heap block no caller value can
   alias, recognized by physical equality. A tombstoned slot still
   occupies its logical index (so parallel rings stay index-aligned) but
   is skipped by iteration and removed by [compact]. *)
let tomb : Obj.t = Obj.repr (ref (-1))

let is_tomb (x : 'a) = Obj.repr x == tomb

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
  let x = t.buf.(phys t i) in
  if is_tomb x then invalid_arg "Opbuf.get: deleted slot";
  x

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Opbuf.set: index out of range";
  t.buf.(phys t i) <- x

let delete t i =
  if i < 0 || i >= t.len then invalid_arg "Opbuf.delete: index out of range";
  t.buf.(phys t i) <- Obj.magic tomb

let deleted t i =
  if i < 0 || i >= t.len then invalid_arg "Opbuf.deleted: index out of range";
  is_tomb t.buf.(phys t i)

let live t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if not (is_tomb t.buf.(phys t i)) then incr n
  done;
  !n

let compact t =
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.buf.(phys t i) in
    if not (is_tomb x) then begin
      if !k <> i then t.buf.(phys t !k) <- x;
      incr k
    end
  done;
  for i = !k to t.len - 1 do
    t.buf.(phys t i) <- nil
  done;
  t.len <- !k;
  !k

let rec pop_back t =
  if t.len = 0 then invalid_arg "Opbuf.pop_back: empty";
  t.len <- t.len - 1;
  let j = phys t t.len in
  let x = t.buf.(j) in
  t.buf.(j) <- nil;
  (* Tombstoned slots are not elements: discard and keep looking. *)
  if is_tomb x then pop_back t else x

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
    let x = t.buf.(phys t i) in
    if not (is_tomb x) then f x
  done

let to_list t =
  List.filter (fun x -> not (is_tomb x)) (List.init t.len (fun i -> t.buf.(phys t i)))
