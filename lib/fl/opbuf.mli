(** Preallocated, growable ring buffer for pending-operation windows.

    The weak/medium-FL handles and the {!Slack} policy used to keep their
    pending windows as ['a list]s: every invocation consed a cell and
    every flush paid a [List.rev] (and usually a [List.map]) before the
    window could be spliced into the shared structure. An [Opbuf] stores
    the window in a circular array instead: appending is a store, a flush
    walks the ring in invocation order in place, and the buffer is reused
    window after window — the hot path allocates nothing once the ring
    has grown to the steady-state window size.

    Orientation: index 0 is the {e oldest} element (first pushed);
    {!push} appends at the newest end, {!pop_back} removes the newest
    (the handle-local elimination case), {!drop_front} retires the oldest
    (the prefix-run flush case). A buffer is owned by a single thread —
    no operation synchronizes.

    Vacated slots are overwritten with a dummy so the buffer never
    retains references to flushed elements.

    {b Withdrawal.} Whether an op is still wanted is recorded in one
    place, its future's fate. A handle withdraws cancelled (or otherwise
    already-settled) ops by {!compact}ing its window on "the future is
    pending" before the window is spliced into the shared structure;
    {!compact2} does the same to two index-aligned rings (values in one,
    futures in the other) in lockstep, so they stay aligned. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** A fresh empty buffer. [capacity] (default 8) is the initial
    allocation, rounded up to a power of two; the buffer grows by
    doubling whenever full. Raises [Invalid_argument] if
    [capacity < 1]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current allocated size (for tests; never shrinks). *)

val push : 'a t -> 'a -> unit
(** Append at the newest end, growing if full. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th oldest element, [0 <= i < length t]. Raises
    [Invalid_argument] out of range. *)

val compact : ('a -> bool) -> 'a t -> int
(** [compact keep t] keeps the elements satisfying [keep], in their
    order, and returns the new length. Allocates nothing; a buffer whose
    elements all satisfy [keep] is only read. *)

val compact2 : ('b -> bool) -> 'a t -> 'b t -> int
(** [compact2 keep a b]: the lockstep form of {!compact} for
    index-aligned parallel rings. Slot [i] survives in both iff [keep]
    holds of [b]'s slot [i]; survivors keep their order and pairing.
    Returns the new (common) length. Raises [Invalid_argument] if the
    lengths differ. *)

val pop_back : 'a t -> 'a
(** Remove and return the newest element. Raises [Invalid_argument] if
    the buffer is empty. *)

val drop_front : 'a t -> int -> unit
(** Retire the [n] oldest elements. Raises [Invalid_argument] if
    [n < 0] or [n > length t]. *)

val truncate : 'a t -> int -> unit
(** Keep only the [n] oldest elements, dropping the newest ones.
    Raises [Invalid_argument] if [n < 0] or [n > length t]. *)

val clear : 'a t -> unit
(** Empty the buffer (capacity is retained). *)

val swap : 'a t -> 'a t -> unit
(** Exchange the contents of two buffers in O(1) — detaching a window
    for processing while the handle keeps an empty buffer to accumulate
    into. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. The buffer must not be mutated during iteration. *)

val to_list : 'a t -> 'a list
(** Oldest first; for tests. *)

(** {2 Owner-death recovery} *)

type ring = Ring : 'a t * ('a -> int) -> ring
(** A ring a handle owns, with the poisoner of one of its elements: it
    poisons the element's future(s) and returns how many this call
    poisoned ([Fun.const 0] for a ring of plain values). *)

val orphan : 'a Futures.Future.t -> int
(** Poison [f] with [Future.Orphaned]: [1] if this call did, [0] if [f]
    was already terminal. The one poisoner every handle's [abandon]
    counts with. *)

val abandon : ring list -> int
(** A handle's [abandon]: run each ring's poisoner over its elements,
    clear every ring, and return the total poisoned. *)
