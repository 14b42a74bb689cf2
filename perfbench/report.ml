(* The benchmark's result line and the metric names BENCHMARK.json
   declares. *)

type t = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list; (* name, value, unit *)
}

let end_to_end =
  [
    "setup_s";
    "compile_s";
    "trials_per_s";
    "model_sim_ms";
    "model_exec_ms";
    "peak_heap_mb";
  ]

(* Every per-layer metric; a workload that does not exercise a layer
   reports 0 for it. *)
let per_layer =
  [
    ("tuner.picks", "count");
    ("tuner.max_task_pick_share", "ratio");
    ("tuner.round_s_p50", "s");
    ("tuner.round_s_tail", "s");
    ("tuner.round_s_tail_pct", "pct");
    ("tuner.round_samples", "count");
    ("tuner.measure.cache_hit_ratio", "ratio");
    ("tuner.lower.memo_hit_ratio", "ratio");
    ("tuner.features.memo_hit_ratio", "ratio");
    ("tuner.measure.self_s", "s");
    ("tuner.checkpoint.save_s", "s");
    ("tuner.checkpoint.saves", "count");
    ("tuner.other_s", "s");
    ("costmodel.fit_s", "s");
    ("costmodel.fit_max_ms", "ms");
    ("costmodel.fit_share", "ratio");
    ("costmodel.max_task_fit_share", "ratio");
    ("costmodel.unpaired_rounds", "count");
    ("machine.profiler.runs", "count");
    ("machine.profiler.run_s", "s");
    ("machine.profiler.sampled_share", "ratio");
    ("machine.sim.points_per_s", "1/s");
    ("exec.kernel.compile_s", "s");
    ("exec.run_s", "s");
    ("exec.macro_group_share", "ratio");
    ("exec.d2_speedup", "ratio");
    ("exec.parallel.fallbacks", "count");
    ("exec.imbalance_pct", "pct");
    ("graph.assemble_s", "s");
    ("graph.plan_s", "s");
    ("graph.compile_s", "s");
    ("graph.stages", "count");
    ("graph.conversions", "count");
    ("graph.fused_ops", "count");
    ("ir.lowerings", "count");
    ("ir.lower_ms_per_call", "ms");
    ("tensor.relation.validate", "count");
    ("tensor.relation.compose", "count");
    ("parallel.pool.tasks", "count");
    ("parallel.pool.batches", "count");
    ("serve.store.hit_ratio", "ratio");
    ("serve.attached", "count");
    ("serve.shed", "count");
    ("serve.rounds_stepped", "count");
    ("serve.step_s_p50", "s");
    ("serve.step_s_tail", "s");
    ("serve.step_s_tail_pct", "pct");
    ("serve.sessions", "count");
    ("serve.sessions_per_s", "1/s");
    ("serve.session_ms_p50", "ms");
    ("serve.session_ms_tail", "ms");
    ("serve.session_ms_tail_pct", "pct");
    ("obs.trace_overhead", "ratio");
  ]

(* Print the result line: with tracing off every end-to-end metric, with
   tracing on every per-layer one.  A metric the workload should have
   produced but did not is a benchmark bug and raises. *)
let print ~trace (r : t) =
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
    | Some (_, v, u) -> Some (v, u)
    | None -> None
  in
  let declared =
    if trace then List.map fst per_layer else end_to_end
  in
  List.iter
    (fun (n, _, _) ->
      if not (List.mem n declared) then Fmt.failwith "undeclared metric %s" n)
    r.metrics;
  let entries =
    if trace then
      List.map
        (fun (name, unit) ->
          let v = match value name with Some (v, _) -> v | None -> 0.0 in
          (name, v, unit))
        per_layer
    else
      List.map
        (fun name ->
          match value name with
          | Some (v, u) -> (name, v, u)
          | None -> Fmt.failwith "workload did not report %s" name)
        end_to_end
  in
  let correct = !Util.failures = [] && r.failed = 0 in
  let num v = Alt.Json.Float (if Float.is_finite v then v else 0.0) in
  let json =
    Alt.Json.Obj
      [
        ("correct", Alt.Json.Bool correct);
        ("attempted", Alt.Json.Int r.attempted);
        ("failed", Alt.Json.Int r.failed);
        ( "metrics",
          Alt.Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 ( name,
                   Alt.Json.Obj
                     [ ("value", num v); ("unit", Alt.Json.String unit) ] ))
               entries) );
      ]
  in
  print_endline (Alt.Json.to_string json);
  correct
