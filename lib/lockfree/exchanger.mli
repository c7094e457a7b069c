(** Sharded elimination array: a set of cache-line-padded exchange slots
    through which a value producer ("give") and a value consumer
    ("take") pair off without touching any shared structure.

    This factors the exchange machinery of the elimination-backoff stack
    (Hendler, Shavit & Yerushalmi) out of {!Elimination_stack} so the
    futures-based weak stack can eliminate {e across handles} through
    the same array, following the sharded-elimination direction of
    Singh, Metaxakis & Fatourou (see PAPERS.md): one slot saturates
    quickly, so the array is sharded and its {e active width} adapts to
    the collision rate — widening when offers collide in a slot,
    narrowing when parked offers time out unmatched, so lone threads pay
    a single-slot probe while storms spread across the whole array.

    Offers are fresh heap values, never reused, so physical-equality CAS
    on slots is ABA-free. An exchange delivers the given value to
    exactly one taker.

    Every offer carries a three-state cell — waiting, taken/fed,
    cancelled — and claiming races against cancellation on that cell, so
    an offer whose owner withdrew (timed out, or died: an exception
    unwinding through the park loop cancels the offer on the way out)
    can never capture a live partner's value, and a cancelled offer
    found parked in a slot is reclaimed by the next prober.
    Fault-injection points: ["elim.offer"] before an offer is parked,
    ["elim.exchange"] before a parked offer is claimed, ["elim.park"]
    on every round of a parked wait. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 8) is the number of slots; the active width
    starts at [min 2 capacity] and adapts within [1..capacity]. Raises
    [Invalid_argument] if [capacity <= 0]. *)

val capacity : 'a t -> int

val width : 'a t -> int
(** Current adaptive width (slots actually probed). *)

val exchanged : 'a t -> int
(** Number of completed give/take pairs. *)

val cancelled : 'a t -> int
(** Number of offers withdrawn by their owner — parked waits that timed
    out plus offers cancelled by an exception (e.g. an injected kill)
    unwinding through the park loop. *)

val reclaimed : 'a t -> int
(** Number of cancelled offers removed from slots by a later prober (or
    by a claimant that lost the state race) — dead partners cleaned out
    of the array. *)

val try_give : 'a t -> 'a -> bool
(** One probe: if the chosen slot holds a waiting taker, hand it the
    value and return [true]; never parks, never waits. *)

val try_take : 'a t -> 'a option
(** One probe: claim a waiting give offer if the chosen slot holds one;
    never parks. *)

val give : ?patience:int -> 'a t -> 'a -> bool
(** [give t v] probes once and otherwise parks a give offer, waiting up
    to [patience] (default 64) spin rounds for a taker before
    withdrawing. [true] iff the value was handed to a taker. *)

val take : ?patience:int -> 'a t -> 'a option
(** Symmetric to {!give}: claims a parked give immediately, or parks a
    take offer and waits up to [patience] rounds to be fed. *)

val takers_waiting : 'a t -> bool
(** Whether some slot currently holds a parked take offer — a cheap
    read-only scan letting producers skip the exchange path entirely
    when nobody is waiting. *)
