(** End-to-end graph tuning (Sections 6 and 7.2): task deduplication,
    per-task tuning through {!Scheduler} (every task a {!Tuner.Step}
    fiber), then propagation (Algorithm 1), compilation and execution. *)

module Schedule = Alt_ir.Schedule
module Machine = Alt_machine.Machine
module Graph = Alt_graph.Graph
module Propagate = Alt_graph.Propagate
module Compile = Alt_graph.Compile

(** Systems of the end-to-end benchmark (Fig. 10). *)
type gsystem =
  | Gvendor
  | Gautotvm
  | Gansor
  | Galt
  | Galt_ol (** no joint stage; fixed channels-last layouts; fusion on *)
  | Galt_wp (** joint tuning, adjacent-only propagation; fusion lost *)

val gsystem_name : gsystem -> string

type tuned_graph = {
  system : gsystem;
  compiled : Compile.compiled;
  choices : (string * Propagate.choice) list;
  schedules : (string * Schedule.t) list;
  tasks_tuned : int; (** unique tuning tasks after deduplication *)
  measurements : int;
  per_task : (string * Tuner.result) list;
}

val tune_graph :
  ?seed:int -> ?jobs:int -> ?levels:int -> ?max_points:int ->
  ?faults:Alt_faults.Fault.t -> ?retries:int ->
  ?backend:Alt_machine.Runtime.backend -> ?warm_start:bool ->
  ?policy:Scheduler.policy ->
  system:gsystem -> machine:Machine.t -> budget:int ->
  Graph.t -> tuned_graph
(** [jobs] bounds the domains used for concurrent measurements per tuning
    task; results are identical for every value (see {!Tuner}).  [faults]
    and [retries] configure each per-task measurement pipeline (see
    {!Measure}).  [backend] selects the measuring device per task (see
    {!Measure.make_task}).  [warm_start] keeps each task's cost model
    across batches (off by default; changes trajectories — see
    {!Tuner.tune_alt}).
    The graph is tuned as a one-model zoo by {!tune_models} under
    [policy] (default [Static]: each unique task gets
    [max 8 (budget / tasks)] trials, in first-seen order). *)

val tune_models :
  ?seed:int -> ?jobs:int -> ?levels:int -> ?max_points:int ->
  ?faults:Alt_faults.Fault.t -> ?retries:int ->
  ?backend:Alt_machine.Runtime.backend -> ?warm_start:bool ->
  ?transfer:bool -> ?policy:Scheduler.policy ->
  system:gsystem -> machine:Machine.t -> budget:int ->
  (string * Graph.t) list -> Scheduler.report * (string * tuned_graph) list
(** Tune a zoo of named graphs under one global [budget] (DESIGN.md §14):
    tasks are deduplicated across all models ({!Taskset.of_graphs}), the
    scheduler ([policy], default [Gradient]) allocates trials round by
    round, and every model is assembled from the shared task results.
    [transfer] is forwarded to {!Scheduler.tune_models}. *)

val assemble :
  system:gsystem -> results:(string * Tuner.result) list -> Graph.t ->
  tuned_graph
(** Assemble a graph from per-task results keyed by {!Taskset.signature}:
    per-node layout/schedule selection, propagation, compilation.
    [results] may cover more tasks than the graph uses; raises
    [Invalid_argument] if one of the graph's tasks is missing. *)

val run :
  ?max_points:int -> ?seed:int -> tuned_graph -> machine:Machine.t ->
  Compile.exec_result
(** Execute the tuned graph on random feeds, returning the simulated
    end-to-end latency and per-stage profiles. *)
