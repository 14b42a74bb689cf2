(** Measurement harness: one "on-device measurement" of the tuning loop is
    one profiler run of the candidate program on the machine simulator.
    Measurements are served through a canonical-program cache, can be
    batched over a {!Alt_parallel.Pool} without changing the trajectory,
    and survive injected faults through bounded retry and quarantine (see
    the implementation header for the determinism contract). *)

module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Program = Alt_ir.Program
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime
module Propagate = Alt_graph.Propagate
module Pool = Alt_parallel.Pool
module Fault = Alt_faults.Fault

type cache_stats = { mutable hits : int; mutable misses : int }
(** Measurement-cache counters: [hits] were served without simulation. *)

type lower_stats = {
  mutable prog_hits : int;
      (** lowerings served from the (choice, schedule) memo cache *)
  mutable prog_misses : int;  (** actual [Lower.lower] invocations *)
  mutable feat_hits : int;
      (** feature vectors served from the memo cache *)
  mutable feat_misses : int;  (** actual [Features.extract] invocations *)
}
(** Counters of the lowering/feature memo cache (DESIGN.md §10): with the
    memo on, each candidate is lowered and featurized at most once per
    task, shared between the tuner's ranking and measurement passes. *)

type fault_stats = {
  mutable faulted : int;
      (** candidates whose first simulation attempt failed *)
  mutable retried : int;  (** retry attempts performed *)
  mutable recovered : int;  (** candidates that succeeded on a retry *)
  mutable quarantined : int;  (** candidates given up on *)
  mutable backoff_ms : float;  (** total simulated retry backoff *)
}

(** The structured result of one measurement — the error taxonomy real
    tuners treat as first-class results. *)
type outcome =
  | Ok of Profiler.result  (** the simulation succeeded *)
  | Lower_error
      (** the candidate failed to lower (illegal layout/schedule
          combination); costs no budget, like real tuners filtering
          invalid configs before measuring *)
  | Sim_error of string
      (** the simulation crashed or reported an error, and retries were
          exhausted *)
  | Timeout
      (** the watchdog killed the simulation for exceeding the
          per-measurement point budget *)
  | Quarantined
      (** the candidate was already quarantined by an earlier terminal
          failure; answered without simulating *)

type shared_store = {
  s_find_result : string -> Profiler.result option;
  s_publish_result : string -> Profiler.result -> unit;
  s_find_quarantine : string -> string option;
  s_publish_quarantine : string -> string -> unit;
}
(** Hooks into a measurement store shared across tasks (the serve
    daemon's sharded cache + quarantine).  Before a batch computes its
    misses, each key is looked up in the store and an entry found there
    is imported into the task's own tables — indistinguishable from a
    checkpoint restore, so sharing is trajectory-neutral: imported
    results are served as cache hits (budget still charged) and a
    candidate quarantined by one session is answered from quarantine by
    every other session instead of being re-measured.  Fresh results and
    fresh quarantine decisions are published back.  The implementations
    must be thread-safe when tasks on different domains share one store;
    correctness requires all sharing tasks to agree on everything in
    {!fingerprint} except [seed]/[tag] — the store is keyed by
    measurement context in [lib/serve].  Like [fast]/[memo], [shared] is
    deliberately excluded from {!fingerprint}. *)

type buf_stats = { mutable buf_hits : int; mutable buf_misses : int }
(** Counters of the physical-buffer reuse cache in the measurement path:
    a hit is a slot served without allocating (a shared input pack, or a
    recycled zero-filled scratch array), a miss is a fresh allocation.
    Counts are per slot acquisition.  With [--jobs > 1] the split
    between hits and misses depends on worker interleaving (free-list
    reuse is first-come-first-served); the measured results never do. *)

type buf_cache
(** Mutex-protected per-task buffer cache (internal): packed input
    arrays keyed by (slot, layout), scratch arrays in per-length free
    lists. *)

type task = {
  op : Opdef.t;
  fused : Opdef.t list;
      (** elementwise chain co-tuned with the operator (end-to-end flow) *)
  machine : Machine.t;
  max_points : int; (** per-measurement simulation budget *)
  fast : bool;
      (** use the profiler's line-granular fast engine; counters are
          identical either way, so [fast] is deliberately excluded from
          {!fingerprint} — checkpoints are interchangeable across it *)
  backend : Runtime.backend;
      (** which device measures candidates: the cache simulator
          ({!Runtime.Sim}, default) or compiled macro-kernels timed for
          real ({!Runtime.Exec}); included in {!fingerprint}, so sim and
          exec checkpoints never mix *)
  feeds : (string * float array) list;
  bufcache : buf_cache;  (** physical-buffer reuse; see {!buf_stats} *)
  mutable spent : int; (** measurements consumed (cache hits included) *)
  cache : (string, Profiler.result) Hashtbl.t;
      (** canonical program digest -> result; internal *)
  stats : cache_stats;
  faults : Fault.t; (** fault injector; {!Fault.none} = no faults *)
  retries : int; (** extra attempts after a failed simulation *)
  watchdog_points : int option;
      (** hard cap on a candidate's iteration points; candidates above it
          report {!Timeout} without simulating ([None] = no cap) *)
  quarantine : (string, string) Hashtbl.t; (** digest -> reason; internal *)
  fstats : fault_stats;
  memo : bool;
      (** memoize lowering and feature extraction per (choice, schedule);
          trajectory-neutral, so — like [fast] — deliberately excluded
          from {!fingerprint} *)
  lcache : (string, Program.t option) Hashtbl.t;
      (** candidate digest -> lowered program; internal *)
  fcache : (string, float array) Hashtbl.t;
      (** candidate digest -> feature vector; internal *)
  lstats : lower_stats;
  shared : shared_store option;
      (** cross-task result/quarantine sharing (see {!shared_store});
          trajectory-neutral, excluded from {!fingerprint} *)
}

val make_task :
  ?fused:Opdef.t list -> ?max_points:int -> ?seed:int -> ?faults:Fault.t ->
  ?retries:int -> ?watchdog_points:int -> ?fast:bool -> ?memo:bool ->
  ?backend:Runtime.backend -> ?shared:shared_store ->
  machine:Machine.t -> Opdef.t -> task
(** [retries] defaults to 2.  With the default [faults] ({!Fault.none})
    and no [watchdog_points], the measurement pipeline is byte-identical
    to a fault-free build.  [fast] (default true) is passed to
    {!Profiler.run}; [~fast:false] pins the scalar reference engine.
    [memo] (default true) enables the per-task lowering/feature memo cache —
    results are identical either way, only repeated work changes.
    [backend] (default {!Runtime.Sim}) selects the measuring device;
    fault injection, retries, the watchdog and quarantine apply
    identically to either backend — they wrap the measurement, not the
    simulator. *)

val cache_stats : task -> cache_stats
val fault_stats : task -> fault_stats

val lower_stats : task -> lower_stats

val buf_stats : task -> buf_stats
(** Hit/miss counters of the buffer-reuse cache (see {!buf_stats}). *)

val lower_cache_sizes : task -> int * int
(** [(lowered entries, feature entries)] currently memoized — with the
    memo on, [feat_misses = snd (lower_cache_sizes t)] (each distinct
    candidate is featurized exactly once). *)

val program_of : task -> Propagate.choice -> Schedule.t -> Program.t option
(** Lower a candidate; [None] when the combination is illegal (costs no
    budget, like real tuners filtering invalid configs).  Served from the
    per-task memo cache when [memo] is on. *)

val features_of : task -> Propagate.choice -> Schedule.t -> float array option
(** Cost-model feature vector of a candidate ([None] iff it does not
    lower), memoized per (choice, schedule) alongside the lowering so the
    ranking pass and the measurement pass share one extraction. *)

val program_key : Program.t -> string
(** Canonical serialization of a lowered program, invariant under variable
    renaming: two programs serialize equally iff the simulator cannot tell
    them apart.  Cache keys are digests of this string. *)

val candidate_key : task -> Propagate.choice -> Schedule.t -> string option
(** The measurement-cache key of a candidate ([None] if it does not
    lower).  Keys collide exactly when two candidates lower to the same
    canonical program. *)

val program_points : Program.t -> float
(** Iteration points of a program — what the watchdog compares against
    its hard cap. *)

val measure_programs :
  ?pool:Pool.t ->
  ?on_result:(int -> outcome -> unit) ->
  task -> Program.t option array -> outcome array
(** Measure a batch of already-lowered candidates.  Cache misses are
    simulated concurrently over [pool] (serially without one) with bounded
    retry on injected faults; budget charging, cache/quarantine updates
    and the [on_result] callback happen on the calling domain in
    submission order, so for a fixed seed the observable trajectory is
    identical for every pool size.  [None] entries (failed lowering) cost
    no budget and report {!Lower_error}; every other entry costs one unit
    whatever its outcome. *)

val measure_batch :
  ?pool:Pool.t ->
  task -> (Propagate.choice * Schedule.t) list -> outcome array
(** [measure_programs] over freshly lowered candidates, in order. *)

val measure : task -> Propagate.choice -> Schedule.t -> outcome
(** Lower, pack inputs, simulate (through the cache and the recovery
    policy).  Consumes one unit of budget unless lowering fails. *)

val result_of : outcome -> Profiler.result option
(** The profiler result, if the measurement succeeded. *)

val latency_of : outcome -> float
(** Latency in ms, or infinity for every failed outcome — explorers rank
    by this, so failures are steered away from, never selected. *)

val penalty_latency_ms : float
(** Ansor-style penalty cost fed to learned cost models for candidates
    that lowered but failed to measure: large enough to steer the search
    away, finite so log-space fitting stays NaN-free. *)

val pp_outcome : outcome Fmt.t

val publish_obs : task -> unit
(** Publish this task's per-task stats structs ({!cache_stats},
    {!lower_stats}, {!fault_stats}, budget spent) into the global
    {!Alt_obs.Metrics} registry as [measure.*] counters, unconditionally
    (bypassing the enabled gate).  Call once per task at the end of a
    run; the structs remain the live source of truth during the run, so
    nothing is double-counted. *)

(** {1 Checkpoint support} *)

val snapshot :
  task -> (string * Profiler.result) list * (string * string) list
(** Dump of the measurement cache and the quarantine table, for
    checkpointing. *)

val restore :
  task ->
  cache:(string * Profiler.result) list ->
  quarantine:(string * string) list -> unit
(** Warm a fresh task from a checkpoint dump.  Because cache hits charge
    budget exactly like fresh simulations, a tuning run over a restored
    task replays the interrupted run's trajectory byte-identically while
    skipping the already-simulated work. *)

val fingerprint : seed:int -> tag:string -> task -> string
(** Digest of everything that shapes a tuning trajectory besides the
    tuner's own parameters (operator, fused chain, machine, simulation
    budget, input data, fault configuration, plus the caller's [tag] and
    [seed]); checkpoints can only be resumed under a matching
    fingerprint. *)
