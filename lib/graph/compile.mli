(** End-to-end graph compilation and execution: lowers a propagation plan
    (plus per-operator schedules) into one program per stage, then executes
    the stages in order against a tensor environment, accumulating
    simulated latency. *)

module Layout = Alt_tensor.Layout
module Schedule = Alt_ir.Schedule
module Program = Alt_ir.Program
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler

type compiled_stage = {
  stage : Propagate.stage;
  prog : Program.t;
  label : string;
}

type compiled = {
  graph : Graph.t;
  plan : Propagate.plan;
  stages : compiled_stage list;
}

val simple_schedule : rank:int -> nred:int -> Schedule.t
(** Default schedule for simple stages (parallel outer + vectorized
    innermost). *)

val compile :
  ?schedules:(string * Schedule.t) list -> Graph.t -> Propagate.plan ->
  compiled
(** [schedules] maps complex-operator names to tuned loop schedules. *)

type exec_result = {
  latency_ms : float;
  per_stage : (string * Profiler.result) list;
  outputs : (string * float array) list; (** logical; valid when unsampled *)
  sampled : bool;
}

val execute :
  ?machine:Machine.t -> ?max_points:int -> compiled ->
  feeds:(string * float array) list -> exec_result

val trivial_choices : Graph.t -> (string * Propagate.choice) list
(** Identity layouts for every complex operator — the
    baseline configuration of loop-only systems. *)
