(** Gradient task scheduler (DESIGN.md §14): one global trial budget
    across a model zoo.

    Every unique task — deduplicated by {!Taskset.signature} across all
    graphs — runs as a suspendable tuner fiber ({!Tuner.Step}); the
    scheduler repeatedly picks a fiber and steps it one measurement
    round.  Under [Gradient], picks maximize expected end-to-end gain
    (zoo latency share x recent improvement slope) with an
    ε-round-robin heartbeat for starvation freedom; [Roundrobin] always
    steps the least-recently-picked task; [Static] runs the paper's
    fixed per-task budget split, each task to completion in first-seen
    order.

    No RNG is drawn and every scheduling input is a deterministic
    function of the simulated measurements, so trajectories are
    byte-identical for every [jobs] value. *)

module Graph = Alt_graph.Graph
module Pool = Alt_parallel.Pool

type policy = Gradient | Roundrobin | Static

val policy_name : policy -> string
val policy_of_string : string -> policy option

type make_tuner =
  pool:Pool.t ->
  share:int ->
  total:int ->
  transfer:Tuner.transfer option ->
  stop:(unit -> bool) ->
  on_progress:(Tuner.progress -> unit) ->
  Measure.task ->
  Tuner.result
(** Builds and runs one task's tuner ({!Graph_tuner} supplies the
    per-system factory).  [share] is the task's static slice of the
    global budget — phase splits (e.g. ALT's joint stage) must be
    derived from it so that [Static] runs the paper's fixed per-task
    split; [total] caps the fiber's own budget and exceeds
    [share] under [Gradient]/[Roundrobin] so the scheduler may feed a
    well-improving task past its share. *)

type task_report = {
  signature : string;
  occurrences : (string * int) list; (** model -> node count *)
  trials : int; (** measurement trials charged to this task *)
  rounds : int;
  best_latency : float; (** ms; infinity if nothing measured *)
  transferred : bool; (** first GBDT fit warm-started from a donor *)
  result : Tuner.result;
}

type report = {
  policy : policy;
  budget : int;
  share : int; (** static per-task share, [max 8 (budget / tasks)] *)
  spent : int; (** trials actually charged across all tasks *)
  picks : int;
  eps_picks : int; (** picks taken by the ε-round-robin heartbeat *)
  transfer : bool; (** cross-task cost-model transfer was active *)
  tasks : task_report list; (** first-seen order *)
  curves : (string * (int * float) list) list;
      (** per model, in zoo order: (global trials spent, estimated model
          latency = Σ occurrences x task best) — recorded once all of
          the model's tasks have a finite best, deduplicated *)
}

val tune_models :
  ?jobs:int ->
  ?transfer:bool ->
  policy:policy ->
  make_task:(Taskset.entry -> Measure.task) ->
  make_tuner:make_tuner ->
  budget:int ->
  (string * Graph.t) list ->
  report
(** Tune a zoo of named graphs under one global [budget].  [transfer]
    defaults to on under [Gradient] and off otherwise.  Under
    [Gradient], every 7th pick is a round-robin heartbeat and the
    improvement slope is estimated over the last 5 of the task's own
    rounds.  One shared measurement pool of [jobs] domains, owned by
    the scheduler, drives all fibers; trajectories are byte-identical
    for every [jobs] value. *)
