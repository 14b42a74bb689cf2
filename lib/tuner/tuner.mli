(** The auto-tuning module (Section 5): ALT's two-stage joint tuner
    (cross-exploration joint stage + loop-only stage) and the baseline
    systems of the evaluation.

    Every tuner takes [?pool] (default: a fresh serial pool): the domain
    pool the measurement engine uses for concurrent cache simulations
    (callers pass [Pool.create ~jobs ()]; the serve daemon shares one pool
    across all sessions).  The tuning trajectory — [best_latency],
    [best_choice], [best_schedule], [history], [spent] — is byte-identical
    for every pool size at a fixed seed; only wall-clock time changes (see
    DESIGN.md §7).

    Every tuner also takes the fault-tolerance/checkpoint triple (see
    DESIGN.md §8):
    - [?checkpoint:path] — journal the tuning state to [path] after every
      measurement round (atomic write);
    - [?resume:path] — before tuning, warm the measurement cache and
      quarantine table from the checkpoint at [path] (a missing file means
      a fresh start; a checkpoint from a differently-configured run is
      rejected with [Invalid_argument]).  Resuming replays the interrupted
      trajectory byte-identically, then continues past the interruption.

    The scheduler triple (DESIGN.md §14) rides the same round boundary:
    - [?stop:(unit -> bool)] — cooperative preemption probe, checked
      before every measurement round; when it returns [true] the tuner
      skips all remaining rounds and returns its best-so-far [result].
      The default never stops, leaving trajectories untouched;
    - [?on_progress:(progress -> unit)] — fired after each round's
      checkpoint is written (so it is already durable); {!Step} performs
      its suspension effect from this hook, and tests raise from it to
      simulate kills;
    - [?transfer] — cross-task cost-model transfer: the first GBDT fit
      warm-starts from [donor ()] (if any) via [Gbdt.refit], and every
      fitted model is handed to [publish].  Folded into the checkpoint
      fingerprint as ":tx" since it changes the trajectory. *)

module Schedule = Alt_ir.Schedule
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Propagate = Alt_graph.Propagate
module Ppo = Alt_rl.Ppo

type result = {
  best_latency : float; (** ms; infinity if nothing measured *)
  best_choice : Propagate.choice;
  best_schedule : Schedule.t;
  best_result : Profiler.result option;
  history : (int * float) list; (** (budget spent, best-so-far), increasing *)
  spent : int;
}

type progress = {
  rounds : int; (** measurement rounds completed *)
  spent : int; (** trials charged to the task budget *)
  best_latency : float; (** ms; infinity if nothing measured yet *)
}
(** Best-so-far snapshot handed to [on_progress] after every measurement
    round — the scheduler's unit of observation. *)

type transfer = {
  donor : unit -> Alt_costmodel.Gbdt.t option;
      (** consulted once, at the first fit; a donated ensemble is
          warm-started on this task's samples via [Gbdt.refit] *)
  publish : Alt_costmodel.Gbdt.t -> unit;
      (** receives every fitted model, for later similar tasks *)
}
(** Cross-task cost-model transfer hooks (DESIGN.md §14).  Both callbacks
    run inside the tuner's fit path: they must not measure, draw
    randomness, or raise. *)

(** Loop-space exploration policy. *)
type loop_explorer =
  | Guided (** elite mutations + random, cost-model-ranked (Ansor/ALT) *)
  | Walk (** random walk, everything measured (FlexTensor: no cost model) *)
  | Restricted (** AutoTVM-like: restricted knob space *)

val state_dim : int
val actor_input_dim : int
(** Input width of the layout PPO actor (state embedding + knob features). *)

val tune_alt :
  ?seed:int -> ?pool:Alt_parallel.Pool.t -> ?levels:int ->
  ?layout_explorer:[ `Random | `Ppo_fresh | `Ppo of Ppo.t ] ->
  ?seed_layouts:bool -> ?warm_start:bool -> ?checkpoint:string ->
  ?resume:string -> ?stop:(unit -> bool) ->
  ?on_progress:(progress -> unit) -> ?transfer:transfer ->
  joint_budget:int -> loop_budget:int -> Measure.task -> result
(** The ALT tuner.  The joint stage seeds with heuristic layouts, then
    cross-explores template layouts with the layout agent, assessing each
    by rounds of loop tuning; the loop-only stage greedily allocates the
    remaining budget over the best-ranked layouts.

    [warm_start] (default false) makes the cost model keep its trees
    across batches and boost a few new ones on the grown dataset instead
    of refitting from scratch (DESIGN.md §10).  Off by default because a
    warm model ranks candidates differently than a from-scratch fit, so
    the tuning trajectory diverges from the reference one — with it off,
    trajectories are bit-identical to the pre-warm-start tuner. *)

val tune_loop_only :
  ?seed:int -> ?pool:Alt_parallel.Pool.t -> ?warm_start:bool ->
  ?checkpoint:string -> ?resume:string -> ?stop:(unit -> bool) ->
  ?on_progress:(progress -> unit) -> ?transfer:transfer ->
  explorer:loop_explorer ->
  budget:int -> layouts:Propagate.choice list -> Measure.task -> result
(** Loop tuning over fixed layout candidates, splitting the budget across
    them (the paper tries NOHW and NHWO for baselines and reports the
    best). *)

(** The systems of the single-operator benchmark (Fig. 9). *)
type system =
  | Vendor
  | Autotvm_like
  | Flextensor_like
  | Ansor_like
  | Alt
  | Alt_ol (** loop-only on fixed channels-last layouts *)

val system_name : system -> string

val tune_vendor :
  ?pool:Alt_parallel.Pool.t -> ?checkpoint:string -> ?resume:string ->
  ?stop:(unit -> bool) -> ?on_progress:(progress -> unit) -> Measure.task ->
  result
(** Vendor-library stand-in: a small set of expert schedules on a fixed
    blocked layout; no search. *)

val tune_op :
  ?seed:int -> ?pool:Alt_parallel.Pool.t -> ?warm_start:bool ->
  ?checkpoint:string -> ?resume:string -> ?stop:(unit -> bool) ->
  ?on_progress:(progress -> unit) -> ?transfer:transfer ->
  system:system -> budget:int -> Measure.task -> result

(** Resumable stepping over any tuning entry point — the suspension
    primitive of both the {!Scheduler} and the serve daemon's sessions.
    [start f] wraps the tuner thunk [f] (which
    receives the [stop] probe and the [on_progress] hook to pass through);
    each [step] runs exactly one measurement round and pauses, returning
    the round's {!progress}; [finish] flips the stop probe and drives the
    fiber through the tuner's normal finalization, returning its
    best-so-far {!result}.  Stepping a fiber to completion yields the
    byte-identical [result] of calling the entry point directly. *)
module Step : sig
  type status = Running of progress | Done of result

  type t

  val start :
    (stop:(unit -> bool) -> on_progress:(progress -> unit) -> result) -> t

  val step : t -> status
  (** Run one more measurement round (or the final wind-down).  An
      exception raised by the tuner escapes [step] and is terminal: the
      fiber is {!finished} and every later [step]/[finish]/[abort]
      re-raises the same exception. *)

  val finish : t -> result
  (** Stop cooperatively: no further rounds are measured; the fiber's own
      finalization runs and its result is returned.  Idempotent. *)

  val abort : t -> exn -> status
  (** [abort t e] raises [e] inside the paused fiber at its suspension
      point: the tuner's [Fun.protect] finalizers run and, unless the
      tuner handles [e], [e] escapes [abort] (terminally, as for
      {!step}).  A tuner that handles [e] yields its next status.  On a
      never-stepped fiber [e] is raised without running anything; on a
      [Done] fiber [abort] is a no-op returning [Done]. *)

  val finished : t -> bool
  (** [true] once the fiber returned its result or raised. *)

  val progress : t -> progress
  (** Last yielded snapshot (zero rounds / infinite latency before the
      first step). *)
end
