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

    {b Tombstones.} A slot can be {!delete}d in place — e.g. when the op
    it holds was cancelled. The tombstone keeps its logical index (so
    parallel rings — values in one, futures in another — stay aligned)
    but is invisible to {!iter}/{!to_list}, discarded by
    {!pop_back}, and removed by {!compact} before a window is spliced
    into the shared structure with the [*_seg] operations. *)

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
    [Invalid_argument] out of range or if the slot is tombstoned. *)

val set : 'a t -> int -> 'a -> unit
(** Replace the [i]-th oldest element (used to compact a window in
    place); overwriting a tombstone revives the slot. Raises
    [Invalid_argument] out of range. *)

val delete : 'a t -> int -> unit
(** Tombstone the [i]-th slot in place: the cancelled-op case. [length]
    is unchanged — the slot still counts — but the element is gone.
    Raises [Invalid_argument] out of range. *)

val deleted : 'a t -> int -> bool
(** Is the [i]-th slot tombstoned? Raises [Invalid_argument] out of
    range. *)

val live : 'a t -> int
(** Number of non-tombstoned slots ([length t] minus tombstones). *)

val compact : 'a t -> int
(** Remove tombstoned slots, preserving the order of the survivors, and
    return the new length. Applying [compact] to index-aligned parallel
    rings with identical tombstone positions keeps them aligned. *)

val pop_back : 'a t -> 'a
(** Remove and return the newest element, discarding any tombstoned
    slots in the way. Raises [Invalid_argument] if no element remains. *)

val drop_front : 'a t -> int -> unit
(** Retire the [n] oldest elements. Raises [Invalid_argument] if
    [n < 0] or [n > length t]. *)

val truncate : 'a t -> int -> unit
(** Keep only the [n] oldest elements, dropping the newest ones (used
    after in-place compaction). Raises [Invalid_argument] if [n < 0] or
    [n > length t]. *)

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
