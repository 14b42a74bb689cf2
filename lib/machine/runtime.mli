(** Convenience runtime: allocate physical buffers from logical inputs,
    execute a program under the profiler, and unpack results — the path
    tests and examples use to check transformed programs bit-for-bit
    against the reference interpreter. *)

module Program = Alt_ir.Program

val alloc_bufs :
  Program.t -> inputs:(string * float array) list -> float array array
(** Inputs are packed through their slot layouts; non-inputs are
    zero-initialized. *)

val output_logical : Program.t -> float array array -> string -> float array
(** Unpack a non-input slot back to logical row-major data. *)

(** Which device measures a program (DESIGN.md §12): [Sim] interprets it
    under the cache simulator (the default everywhere); [Exec] compiles
    it to macro-kernels and times real execution with the given
    warmup/repeat discipline.  Both produce element-wise identical
    outputs and a {!Profiler.result}. *)
type backend = Sim | Exec of Alt_exec.Exec.cfg

val backend_tag : backend -> string
(** Short stable tag ("sim", "exec:w2:r5:wall", "exec:w2:r5:wall:d4",
    ...) used in measurement-cache fingerprints: sim and exec results
    never mix, and neither do exec results at different domain counts.
    The [:dN] suffix is omitted at [domains = 1] so fingerprints from
    before the knob existed remain valid. *)

val result_of_wall :
  machine:Machine.t -> Program.t -> Alt_exec.Exec.wall -> Profiler.result
(** Present an exec measurement as a profiler result ([latency_ms] is
    the median wall time; counter fields are zero, [sampled] is false)
    so caches, checkpoints and tuners consume it unchanged. *)

val run_logical :
  ?machine:Machine.t -> ?max_points:int -> ?backend:backend ->
  Program.t ->
  inputs:(string * float array) list ->
  (string * float array) list * Profiler.result
(** Run end-to-end on logical inputs; returns the logical contents of every
    non-input slot plus the profile.  [max_points] is passed to
    {!Profiler.run} and ignored by the [Exec] backend (which always runs
    the full program). *)
