(** Workload specifications: the wire-level description of a tuning
    request, its canonical JSON, and the two digests the daemon keys
    everything by — the {!session_key} (full trajectory identity) and
    the coarser {!context_key} (measurement-result identity, governing
    which sessions may share the measurement store). *)

module Opdef = Alt_ir.Opdef
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Machine = Alt_machine.Machine
module Json = Alt_obs.Json

type op_spec = {
  kind : string;  (** c2d, dil, grp, dep, c1d, c3d, gmm, t2d *)
  batch : int;
  channels : int;
  out_channels : int;
  spatial : int;
  kernel : int;
  stride : int;
}

val default_op : op_spec

val int_field : Json.t -> string -> int -> int
(** [int_field j name dflt]: member [name] of [j] as an int, or [dflt]. *)

val float_field : Json.t -> string -> float -> float
val string_field : Json.t -> string -> string -> string

val op_of_spec : op_spec -> Opdef.t
(** Construct the operator (raises [Failure] on an unknown kind — use
    {!op_spec_of_json} for validated wire input). *)

val max_op_elements : int
(** Cap on an operator's total input and output elements. *)

val op_spec_to_json : op_spec -> Json.t
val op_spec_of_json : Json.t -> (op_spec, string) result
(** Missing fields take {!default_op} values; the spec is validated by
    constructing the operator once, and rejected if an extent is below 1
    or its tensors exceed {!max_op_elements} elements in total. *)

type tune_spec = {
  op : op_spec;
  machine : string;
  system : string;
  budget : int;
  seed : int;  (** tuner seed *)
  max_points : int;
  data_seed : int;  (** input-data seed *)
  fault_rate : float;
  fault_seed : int;
  retries : int;
  watchdog_points : int option;
}

val default_tune_spec : tune_spec
val machine_of_name : string -> Machine.t option
val system_of_name : string -> Tuner.system option
val systems : (string * Tuner.system) list

val tune_spec_to_json : tune_spec -> Json.t
(** Canonical: fixed field order, shortest-round-trip floats — rendering
    this is the session's canonical serialization. *)

val max_budget : int
(** Cap on a tune request's trial [budget]. *)

val tune_spec_of_json : Json.t -> (tune_spec, string) result
(** Missing fields take {!default_tune_spec} values; machine, system and
    numeric ranges are validated: [budget] in [1, {!max_budget}],
    [max_points >= 1], [watchdog_points >= 1] when given, [retries >= 0],
    [fault_rate] in [0, 1]. *)

val session_key : tune_spec -> string
(** Digest of the canonical spec: requests with equal keys are one
    session and share one tuning run (and its checkpoint journal). *)

val context_key : tune_spec -> string
(** Digest of everything that determines the result of one measurement
    (operator, machine, simulation budget, input data, fault injector,
    retries, watchdog) — and nothing that doesn't (tuner seed, system,
    tuning budget).  Sessions with equal context keys may share
    measurement results and quarantine decisions: a measurement is a
    pure function of (context, canonical program). *)

val task_of_spec : ?shared:Measure.shared_store -> tune_spec -> Measure.task
(** The measurement task a spec describes.  Raises [Invalid_argument] on
    an unvalidated spec (unknown machine). *)

val system_of_spec : tune_spec -> Tuner.system
