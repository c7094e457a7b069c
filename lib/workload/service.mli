(** The open-loop service layer: "production traffic" for the FL
    structures.

    A session model — a job queue ({!Fl.Weak_queue}) plus a session
    store ({!Fl.Shard_map} or the centralized {!Fl.Weak_map}) — driven
    by {!Arrival} open-loop schedules and guarded by an {!Overload}
    admission controller. Each worker draws the {e intended} arrival
    time of every request before issuing it; when the system falls
    behind, requests queue with their clocks already running, so the
    recorded sojourn (intended arrival → result forced) is
    coordinated-omission-safe. Offered load that the controller refuses
    takes the {!Futures.Future.Rejected} bounded-retry path and is
    counted as shed, never as latency.

    Chaos composes: [run] threads its [?chaos]/[?plan]/[?watchdog]
    straight into {!Runner.run}, so seeded victims and scripted kills
    at the [service.admit]/[service.shed]/[service.degrade] (and any
    structure) fault points kill real workers mid-overload; abandon
    hooks poison their windows and the run still terminates. *)

type backend = Central | Sharded

val backend_name : backend -> string

type config = {
  workers : int;
  requests_per_worker : int;
  process : Arrival.process;  (** per-worker arrival process *)
  backend : backend;
  slack : int;  (** per-worker pending-window bound *)
  buckets : int;  (** shard count for the [Sharded] backend *)
  lease_s : float;
      (** [Sharded] bucket-ownership lease. Short by default (5 ms):
          a quiet owner stalls other workers' ops for up to one lease,
          so long leases feed straight into the sojourn tail. *)
  grant_timeout_s : float;  (** initial grant patience, doubled on retry *)
  key_range : int;
  seed : int;
  retry_attempts : int;  (** bounded-retry attempts per shed request *)
  queue_drain : int;  (** dequeue this many jobs every [queue_drain] requests *)
  overload : Overload.config;
  epoch_s : float;  (** controller epoch *)
}

val default_config : config

type result = {
  offered : int;  (** admission decisions, retries included *)
  admitted : int;  (** requests accepted (after retries) *)
  shed : int;  (** requests whose final fate was [Rejected] *)
  completed : int;  (** admitted ops whose result was forced *)
  failed : int;  (** admitted ops cancelled/poisoned (chaos) *)
  store_poisoned : int;
      (** futures the sharded store poisoned ([Shard_map.stats.poisoned],
          summed over repeats; 0 for [Central]) — lease-expiry recovery
          poisons a window lost in flight, so on [Sharded] an op can fail
          without any kill *)
  degraded_writes : int;  (** writes refused while the store was degraded *)
  retries : int;  (** resubmissions attempted by the retry path *)
  max_stage : Overload.stage;  (** deepest stage any worker observed *)
  final_stage : Overload.stage;
  escalations : int;
  recoveries : int;
  controller_epochs : int;
  sojourn : Obs.Histogram.s;
      (** per-request sojourn (intended arrival → forced), ns *)
  measurement : Runner.measurement;  (** killed/recovered/poisoned etc. *)
}

val sojourn_p : result -> float -> int
(** [sojourn_p r 99.9] — nearest-rank percentile of the sojourn
    histogram, ns. *)

val shed_rate : result -> float
(** sheds / offered; [0.] when nothing was offered. *)

val run :
  ?plan:Faults.plan_step list ->
  ?chaos:Runner.chaos ->
  ?watchdog:float ->
  ?repeats:int ->
  config ->
  result
(** Run the service: start the controller, drive [workers] open-loop
    domains for [requests_per_worker] requests each (via {!Runner.run},
    which handles kills, watchdog recovery and teardown), stop the
    controller, and report. Counters accumulate over [repeats] (default
    1); structures are fresh per repeat. Raises [Invalid_argument] on
    non-positive sizes. *)
