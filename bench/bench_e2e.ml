(* End-to-end scheduler benchmark: the repo's first full-model perf
   trajectory.  The whole zoo is tuned twice under one global trial
   budget — once with the legacy static per-task split, once with the
   gradient scheduler plus cross-task cost-model transfer (DESIGN.md
   §14) — and each model's tuned graph is executed for its end-to-end
   latency.  Per-model latency-vs-trials curves from the gradient run
   and the equal-budget comparison go to BENCH_e2e.json; the run is a
   gate: gradient must not lose to static at equal budget
   (static_total / gradient_total >= 1.0).

   ALT_BENCH_SCALE=smoke|quick|full controls the zoo and the budget. *)

open Alt

let pick = Bench_util.pick

let zoo () : (string * Graph.t) list =
  let specs =
    pick
      ~smoke:
        (lazy [ Zoo.resnet18 ~size:8 ~base:4 (); Zoo.bert_tiny () ])
      ~quick:
        (lazy
          [
            Zoo.resnet18 ~size:8 ~base:4 ();
            Zoo.mobilenet_v2 ~size:8 ();
            Zoo.bert_tiny ();
            Zoo.resnet3d_18 ~size:8 ~depth:4 ~base:4 ();
          ])
      ~full:
        (lazy
          [
            Zoo.resnet18 ();
            Zoo.mobilenet_v2 ();
            Zoo.bert_tiny ();
            Zoo.resnet3d_18 ();
          ])
  in
  List.map (fun (s : Zoo.spec) -> (s.Zoo.name, s.Zoo.graph)) (Lazy.force specs)

let max_points = pick ~smoke:2_000 ~quick:8_000 ~full:30_000
let per_task = pick ~smoke:16 ~quick:48 ~full:96

type run = {
  policy : Scheduler.policy;
  report : Scheduler.report;
  models : (string * float) list; (* e2e latency per model, ms *)
  total_ms : float;
}

let tune_zoo ~policy graphs : run =
  let report, tuned =
    Graph_tuner.tune_models ~jobs:(Bench_util.effective_jobs ()) ~max_points
      ~policy ~system:Graph_tuner.Galt ~machine:Machine.intel_cpu
      ~budget:(per_task * List.length (Taskset.of_graphs graphs))
      graphs
  in
  let models =
    List.map
      (fun (name, tg) ->
        let r =
          Graph_tuner.run ~max_points:(4 * max_points) tg
            ~machine:Machine.intel_cpu
        in
        (name, r.Compile.latency_ms))
      tuned
  in
  let total_ms = List.fold_left (fun a (_, l) -> a +. l) 0.0 models in
  { policy; report; models; total_ms }

let json_of_runs (static : run) (gradient : run) ~speedup =
  let b = Stdlib.Buffer.create 4096 in
  let add fmt = Fmt.kstr (Stdlib.Buffer.add_string b) fmt in
  let models r =
    String.concat ",\n"
      (List.map
         (fun (name, l) ->
           Fmt.str "        {\"name\": %S, \"latency_ms\": %.6f}" name l)
         r.models)
  in
  let policy_obj r =
    Fmt.str
      "{\n\
      \      \"spent\": %d, \"picks\": %d, \"eps_picks\": %d,\n\
      \      \"transferred_tasks\": %d, \"total_ms\": %.6f,\n\
      \      \"models\": [\n\
       %s\n\
      \      ]\n\
      \    }"
      r.report.Scheduler.spent r.report.Scheduler.picks
      r.report.Scheduler.eps_picks
      (List.length
         (List.filter
            (fun (t : Scheduler.task_report) -> t.Scheduler.transferred)
            r.report.Scheduler.tasks))
      r.total_ms (models r)
  in
  let curve (m, pts) =
    Fmt.str "    {\"model\": %S, \"points\": [%s]}" m
      (String.concat ", "
         (List.map (fun (t, l) -> Fmt.str "[%d, %.6f]" t l) pts))
  in
  add "{\n  \"bench\": \"e2e\",\n  \"scale\": %S,\n" Bench_util.scale_name;
  add "  \"budget\": %d,\n  \"share\": %d,\n  \"tasks\": %d,\n"
    gradient.report.Scheduler.budget gradient.report.Scheduler.share
    (List.length gradient.report.Scheduler.tasks);
  add "  \"static\": %s,\n" (policy_obj static);
  add "  \"gradient\": %s,\n" (policy_obj gradient);
  add "  \"curves\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map curve gradient.report.Scheduler.curves));
  add "  \"speedup_static_over_gradient\": %.4f\n}\n" speedup;
  Stdlib.Buffer.contents b

let () =
  let graphs = zoo () in
  Bench_util.section
    (Fmt.str "end-to-end scheduler benchmark (%s scale, %d models)"
       Bench_util.scale_name (List.length graphs));
  let static = tune_zoo ~policy:Scheduler.Static graphs in
  let gradient = tune_zoo ~policy:Scheduler.Gradient graphs in
  List.iter
    (fun r ->
      Fmt.pr "%-10s spent %4d trials in %4d picks: total %.4f ms@."
        (Scheduler.policy_name r.policy)
        r.report.Scheduler.spent r.report.Scheduler.picks r.total_ms;
      List.iter
        (fun (name, l) -> Fmt.pr "  %-16s %.4f ms@." name l)
        r.models)
    [ static; gradient ];
  let speedup = static.total_ms /. gradient.total_ms in
  Fmt.pr "static/gradient latency ratio at equal budget: %.4f@." speedup;
  let json = json_of_runs static gradient ~speedup in
  let path = Bench_util.bench_json "e2e" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." path;
  Fmt.pr "%s" json;
  (* the gate: the gradient scheduler must not lose the zoo total to the
     static split when both spend the same global budget *)
  if not (speedup >= 1.0) then
    Fmt.failwith
      "e2e: gradient total %.4f ms worse than static %.4f ms (ratio %.4f < \
       1.0) at equal budget %d"
      gradient.total_ms static.total_ms speedup gradient.report.Scheduler.budget
