(** Truncated exponential backoff for contended atomic retry loops.

    Each [once] call spins for a pseudo-random number of iterations drawn
    from a window that doubles (up to a ceiling) on every call. On a
    single-core host a pure spin can starve the lock holder, so past a
    configurable threshold [once] also yields the processor with a short
    sleep, letting the holder run.

    A backoff may carry a {e spin budget}: a bound on the rounds spent in
    one waiting streak. The backoff never blocks the caller by itself —
    [once] keeps working past the budget — but {!give_up} turns true, and
    wait loops that support graceful degradation (combiner takeover,
    timeouts) poll it to stop spinning on a helper that is never coming
    back. [reset] starts a new streak.

    A value of type [t] is owned by one domain and must not be shared. *)

type t

val create : ?min_wait:int -> ?max_wait:int -> ?budget:int -> unit -> t
(** [create ()] returns a fresh backoff in its initial (smallest) window.
    [min_wait] and [max_wait] bound the spin-iteration window; defaults are
    [16] and [4096]. [budget], if given, is the number of rounds per
    streak after which {!give_up} turns true; by default there is no
    budget and {!give_up} is always false. Raises [Invalid_argument] if
    [min_wait <= 0 || max_wait < min_wait || budget <= 0]. *)

val once : t -> unit
(** Spin (and possibly yield) once, then widen the window. *)

val retry : t option -> t option
(** [retry b] backs off once after a failed attempt and returns the
    backoff for the next failure. [None] stands for "no attempt has
    failed yet": the backoff is created (with the defaults) on the first
    failure. A retry loop threads it from [None], so an operation whose
    first CAS succeeds allocates no backoff. *)

val reset : t -> unit
(** Shrink the window back to [min_wait] and start a new streak
    (zeroing {!rounds}); call after a successful CAS or any observed
    progress. *)

val give_up : t -> bool
(** True when this streak has used at least its [budget] rounds; always
    false for budget-less backoffs. *)

val rounds : t -> int
(** Rounds spent in the current streak. *)

val yields : t -> int
(** Total yield-sleeps performed over the backoff's lifetime (rounds past
    the single-core yield threshold; for tests and diagnostics). *)

val current_window : t -> int
(** Current window size in spin iterations (for tests and diagnostics). *)
