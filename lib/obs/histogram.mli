(** Percentile math and latency histograms — the one module where p50/p99
    are defined. The benchmark reports use the exact sample half, the
    metrics layer the log-bucketed half; both quote nearest-rank
    percentiles. *)

(** {2 Exact statistics over sample arrays} *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val std_dev : float array -> float
(** Sample standard deviation (n-1 denominator); [0.] for fewer than two
    samples. *)

val min : float array -> float
val max : float array -> float

val median : float array -> float
(** Does not modify its argument. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], nearest-rank on the sorted
    samples. Raises [Invalid_argument] if [p] is out of range or [xs] is
    empty. *)

(** {2 Log-bucketed concurrent histogram}

    Fixed 244 buckets: values 0..7 exact, then 4 sub-buckets per power of
    two (≤ 25% relative error). Recording is two atomic increments —
    no allocation, safe from any domain. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t v] files [v] (clamped at 0) into its bucket and adds it to
    the exact running sum. *)

val record_n : t -> int -> w:int -> unit
(** [record_n t v ~w] files one sampled observation of [v] standing for
    [w] real ones: the bucket gains [w], the sum gains [v * w]. No-op
    when [w <= 0]; [w = 1] is {!record}. *)

val reset : t -> unit

type s = { counts : int array; sum : int }
(** A snapshot: per-bucket counts plus the exact value sum. Plain data —
    diff two snapshots to scope a measurement interval. *)

val snapshot : t -> s
val diff : s -> s -> s
(** [diff later earlier] — per-bucket and sum subtraction. *)

val count : s -> int
val mean_value : s -> float
(** Exact mean of recorded values (sum is tracked exactly). [0.] when
    empty. *)

val percentile_value : s -> float -> int
(** Nearest-rank percentile over the buckets, quoting the containing
    bucket's {e lower bound}. [0] when empty. Raises [Invalid_argument]
    if [p] is out of [0, 100]. *)

(** {2 Bucket geometry (exposed for tests)} *)

val buckets : int
val bucket_of_value : int -> int
val value_of_bucket : int -> int
(** Lower bound of bucket [i]'s value range; raises [Invalid_argument]
    out of range. *)
