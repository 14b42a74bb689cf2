(* The zoo workloads, zoo_gradient and zoo_static: the four quick-scale
   models tuned together under one global trial budget (the `alt
   schedule` path), then their generated code run on the simulator and
   on the exec backend and checked against the reference interpreter. *)

open Alt

(* 32 trials per unique task (53 tasks).  Tuning cost grows much faster
   than the budget (README.md), and this is the largest budget whose
   gradient compile still repeats several times in one run. *)
let budget = 1696
let max_points = 8_000
let machine = Machine.intel_cpu

(* Output tolerances of test/test_models.ml. *)
let build_zoo () : (string * Graph.t * float) list =
  List.map
    (fun ((s : Zoo.spec), tol) -> (s.Zoo.name, s.Zoo.graph, tol))
    [
      (Zoo.resnet18 ~size:8 ~base:4 (), 1e-3);
      (Zoo.mobilenet_v2 ~size:8 (), 1e-3);
      (Zoo.bert_tiny (), 5e-3);
      (Zoo.resnet3d_18 ~size:8 ~depth:4 ~base:4 (), 1e-3);
    ]

let graphs_of zoo = List.map (fun (n, g, _) -> (n, g)) zoo

(* What a user pays before tuning starts. *)
let setup () =
  Util.time (fun () ->
      let zoo = build_zoo () in
      ignore (Taskset.of_graphs (graphs_of zoo));
      zoo)

let compile policy zoo =
  Graph_tuner.tune_models ~max_points ~policy ~system:Graph_tuner.Galt
    ~machine ~budget (graphs_of zoo)

(* A model with its seeded feeds and reference outputs; the oracle's
   work is done here, outside every timed region. *)
type model = {
  name : string;
  graph : Graph.t;
  tol : float;
  feeds : (string * float array) list;
  reference : (string * float array) list;
}

let models ~seed zoo =
  List.map
    (fun (name, graph, tol) ->
      let feeds = Graph.random_feeds ~seed graph in
      { name; graph; tol; feeds; reference = Graph.reference_execute graph ~feeds })
    zoo

let outputs_match ~what m outputs =
  List.for_all
    (fun (t, actual) ->
      let expected = List.assoc t m.reference in
      Buffer.allclose ~tol:m.tol expected actual
      || begin
           Util.fail "%s %s: output %s differs by %g" m.name what t
             (Buffer.max_abs_diff expected actual);
           false
         end)
    outputs

(* Unsampled simulation of a tuned model: its simulated latency, checked
   against the reference.  [None] when the check fails. *)
let simulate m (tg : Graph_tuner.tuned_graph) =
  let r =
    Compile.execute ~machine ~max_points:max_int tg.Graph_tuner.compiled
      ~feeds:m.feeds
  in
  if r.Compile.sampled then (
    Util.fail "%s: simulation was sampled" m.name;
    None)
  else if not (Float.is_finite r.Compile.latency_ms && r.Compile.latency_ms > 0.0)
  then (
    Util.fail "%s: simulated latency %g" m.name r.Compile.latency_ms;
    None)
  else if outputs_match ~what:"sim" m r.Compile.outputs then
    Some r.Compile.latency_ms
  else None

(* Run a compiled model stage by stage on the exec backend, threading
   tensors between stages as Compile.execute does: every stage program is
   compiled to a kernel and timed by Exec.measure.  [before] sees each
   stage's program and buffers first.  Returns the stage measurements and
   the logical outputs. *)
let exec_model ?(before = fun _ _ -> ()) ~cfg (c : Compile.compiled) ~feeds =
  let g = c.Compile.graph in
  let env : (string, (Layout.t * float array) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let add name l d =
    Hashtbl.replace env name
      ((l, d) :: Option.value ~default:[] (Hashtbl.find_opt env name))
  in
  let find name l =
    snd (List.find (fun (l', _) -> Layout.equal l l') (Hashtbl.find env name))
  in
  let storage name =
    match List.assoc_opt name c.Compile.plan.Propagate.storage with
    | Some l -> l
    | None -> Layout.create (Graph.tensor_shape g name)
  in
  List.iter
    (fun (name, _) ->
      add name (storage name) (Layout.pack (storage name) (List.assoc name feeds)))
    (g.Graph.inputs @ g.Graph.params);
  let walls =
    List.map
      (fun (cs : Compile.compiled_stage) ->
        let prog = cs.Compile.prog in
        let bufs =
          Array.map
            (fun (s : Program.slot) ->
              match (cs.Compile.stage, s.Program.role) with
              | Propagate.Convert { tensor; src; _ }, Program.Input ->
                  find tensor src
              | _, Program.Input -> find s.Program.sname s.Program.layout
              | _, (Program.Output | Program.Temp) ->
                  Array.make (Layout.num_physical_elements s.Program.layout) 0.0)
            prog.Program.slots
        in
        before prog bufs;
        let w = Exec.measure ~cfg prog ~bufs in
        Array.iteri
          (fun i (s : Program.slot) ->
            match (cs.Compile.stage, s.Program.role) with
            | Propagate.Convert { tensor; dst; _ }, Program.Output ->
                add tensor dst bufs.(i)
            | _, (Program.Output | Program.Temp) ->
                add s.Program.sname s.Program.layout bufs.(i)
            | _, Program.Input -> ())
          prog.Program.slots;
        w)
      c.Compile.stages
  in
  let outputs =
    List.map
      (fun name ->
        let l, d = List.hd (Hashtbl.find env name) in
        (name, Layout.unpack l d))
      g.Graph.outputs
  in
  (walls, outputs)

let exec_cfg domains = { Exec.default_cfg with Exec.domains }

let conversions (tg : Graph_tuner.tuned_graph) =
  List.length
    (List.filter
       (function Propagate.Convert _ -> true | _ -> false)
       tg.Graph_tuner.compiled.Compile.plan.Propagate.stages)

let fused_ops (tg : Graph_tuner.tuned_graph) =
  List.fold_left
    (fun a -> function
      | Propagate.Complex_stage { fused; _ } -> a + List.length fused
      | _ -> a)
    0 tg.Graph_tuner.compiled.Compile.plan.Propagate.stages

(* Registry counters that Measure.publish_obs adds at the end of every
   tune, whether or not collection is enabled. *)
let memo_counters =
  [
    "measure.budget_spent";
    "measure.cache.hits";
    "measure.cache.misses";
    "measure.lower.prog_hits";
    "measure.lower.prog_misses";
    "measure.lower.feat_hits";
    "measure.lower.feat_misses";
  ]

(* Everything that must repeat exactly between compiles of one seed. *)
type fingerprint = {
  spent : int;
  picks : int;
  sim_ms : float list;
  convs : int list;
  fused : int list;
  memo : (string * int) list;
  rel : (string * int) list; (* Util.relation_counters; 0 unless metrics are on *)
  plans : string;
}

let fingerprint (report : Scheduler.report) tuned ~memo ~rel ~sim_ms =
  let plan (_, (tg : Graph_tuner.tuned_graph)) =
    Fmt.str "%a|%a" Propagate.pp tg.Graph_tuner.compiled.Compile.plan
      Fmt.(list (pair string Schedule.pp))
      tg.Graph_tuner.schedules
  in
  {
    spent = report.Scheduler.spent;
    picks = report.Scheduler.picks;
    sim_ms;
    convs = List.map (fun (_, tg) -> conversions tg) tuned;
    fused = List.map (fun (_, tg) -> fused_ops tg) tuned;
    memo;
    rel;
    plans = Digest.to_hex (Digest.string (String.concat "\n" (List.map plan tuned)));
  }

let check_same ?(rel = true) a b =
  Util.same "trials spent" a.spent b.spent;
  Util.same "picks" a.picks b.picks;
  Util.same "per-model model_sim_ms" a.sim_ms b.sim_ms;
  Util.same "conversions" a.convs b.convs;
  Util.same "fused ops" a.fused b.fused;
  Util.same "memo counts" a.memo b.memo;
  if rel then Util.same "layout.relation counts" a.rel b.rel;
  Util.same "tuned plans" a.plans b.plans

(* One checked compile: the compile is timed, the oracle is not.  [wrap]
   runs around the timed compile only.  Failed models are counted;
   [sim_ms] holds nan for them. *)
type rep = {
  compile_s : float;
  report : Scheduler.report;
  tuned : (string * Graph_tuner.tuned_graph) list;
  fp : fingerprint;
  failed : int;
}

let checked_compile ?(wrap = fun f -> f ()) policy zoo models =
  let before = Util.read memo_counters in
  let rel0 = Util.read Util.relation_counters in
  let (report, tuned), compile_s =
    wrap (fun () -> Util.time (fun () -> compile policy zoo))
  in
  let memo = Util.delta before (Util.read memo_counters) in
  let rel = Util.delta rel0 (Util.read Util.relation_counters) in
  let sims = List.map2 (fun m (_, tg) -> simulate m tg) models tuned in
  let sim_ms = List.map (Option.value ~default:Float.nan) sims in
  {
    compile_s;
    report;
    tuned;
    fp = fingerprint report tuned ~memo ~rel ~sim_ms;
    failed = List.length (List.filter Option.is_none sims);
  }

(* One exec pass over every model, checked against the reference; each
   stage's median joins [per_stage].  Returns the number of failed
   models. *)
let exec_pass per_stage models tuned =
  List.fold_left2
    (fun failed m (_, (tg : Graph_tuner.tuned_graph)) ->
      let walls, outputs =
        exec_model ~cfg:(exec_cfg 1) tg.Graph_tuner.compiled ~feeds:m.feeds
      in
      List.iteri
        (fun i (w : Exec.wall) ->
          let k = (m.name, i) in
          Hashtbl.replace per_stage k
            (w.Exec.median_ms
            :: Option.value ~default:[] (Hashtbl.find_opt per_stage k)))
        walls;
      if outputs_match ~what:"exec" m outputs then failed else failed + 1)
    0 models tuned

(* A model's wall time: the sum of its stages' medians over the passes. *)
let exec_ms per_stage m (tg : Graph_tuner.tuned_graph) =
  Util.sum
    (List.mapi
       (fun i _ -> Util.median (Hashtbl.find per_stage (m.name, i)))
       tg.Graph_tuner.compiled.Compile.stages)

(* tracing off: the end-to-end metrics.  Set-ups, compiles and exec
   passes interleave for the whole run, so that each median samples the
   same stretch of machine time. *)
let run_plain ~policy ~seed ~seconds : Report.t =
  let zoo, _ = setup () in
  let models = models ~seed zoo in
  let per_stage = Hashtbl.create 256 in
  let t0 = Util.now () in
  let reps = ref [] and setups = ref [] and exec_failed = ref 0 in
  while List.length !reps < 3 || Util.now () -. t0 < seconds do
    setups := List.init 5 (fun _ -> snd (setup ())) @ !setups;
    let r = checked_compile policy zoo models in
    exec_failed := !exec_failed + exec_pass per_stage models r.tuned;
    reps := r :: !reps
  done;
  let reps = List.rev !reps in
  let first = List.hd reps in
  List.iter (fun r -> check_same first.fp r.fp) reps;
  let compile_s = Util.median (List.map (fun r -> r.compile_s) reps) in
  let sims = List.filter Float.is_finite first.fp.sim_ms in
  {
    Report.attempted = List.length models * List.length reps;
    failed = !exec_failed + List.fold_left (fun a r -> a + r.failed) 0 reps;
    metrics =
      [
        ("setup_s", Util.median !setups, "s");
        ("compile_s", compile_s, "s");
        ("trials_per_s", float_of_int first.fp.spent /. compile_s, "1/s");
        ( "model_sim_ms",
          (if sims = [] then Float.nan else Util.geomean sims),
          "sim_ms" );
        ( "model_exec_ms",
          Util.geomean
            (List.map2 (fun m (_, tg) -> exec_ms per_stage m tg) models first.tuned),
          "ms" );
        ("peak_heap_mb", Util.peak_heap_mb (), "MB");
      ];
  }

(* Counters the traced run reads and ground-truths; collection is on
   only in that run. *)
let traced_counters =
  memo_counters
  @ [
      "scheduler.picks";
      "tuner.rounds";
      "profiler.runs";
      "profiler.sampled_runs";
      "pool.batches";
      "pool.tasks.submitted";
    ]

let exec_counters = [ "exec.compiles"; "exec.macro_groups"; "exec.generic_groups" ]

let ground_truth what counter observed =
  if counter <> observed then
    Util.fail "ground truth: %s counter %d, observed %d" what counter observed

(* tracing on: the per-layer ledger.  Metric collection is on for three
   compiles.  The first compile of the process meets a Layout memo that
   only set-up has filled; it gives the layout.relation counts, as one
   `alt schedule` run would see them.  The second, untraced, is the base
   of the tracing overhead.  The third is traced and folded into
   self-time per layer; then the generated code is planned, compiled,
   lowered and run again under the benchmark's own spans.  The second
   and third meet the same warm memo, so their layout.relation counts
   must repeat. *)
let run_traced ~policy ~seed ~seconds:_ ~tmp : Report.t =
  let zoo, _ = setup () in
  let models = models ~seed zoo in
  Metrics.reset ();
  Metrics.enable ();
  let cold = checked_compile policy zoo models in
  let base = checked_compile policy zoo models in
  check_same ~rel:false cold.fp base.fp;
  let counted = ref [] and ct = ref Ledger.empty in
  let traced =
    checked_compile policy zoo models ~wrap:(fun f ->
        let before = Util.read traced_counters in
        let r, l =
          Ledger.record ~path:(Filename.concat tmp "compile.jsonl") (fun () ->
              Trace.with_span "bench.compile" f)
        in
        counted := Util.delta before (Util.read traced_counters);
        ct := l;
        r)
  in
  let c n = List.assoc n !counted and ct = !ct in
  check_same base.fp traced.fp;
  let report = traced.report and tuned = traced.tuned in
  (* ground truth: every counter reported below against the trace *)
  ground_truth "measure.budget_spent" (c "measure.budget_spent") report.Scheduler.spent;
  ground_truth "scheduler.picks" (c "scheduler.picks") report.Scheduler.picks;
  let picks = Ledger.instants ct "scheduler.pick" in
  ground_truth "scheduler.pick instants" (List.length picks) report.Scheduler.picks;
  ground_truth "tuner.rounds" (c "tuner.rounds")
    (List.length (Ledger.instants ct "tuner.round"));
  ground_truth "profiler.runs" (c "profiler.runs") (Ledger.count ct "profiler.run");
  ground_truth "profiler.sampled_runs" (c "profiler.sampled_runs")
    (List.length (Ledger.sampled_runs ct));
  ground_truth "measure.cache.misses" (c "measure.cache.misses")
    (Ledger.count ct "measure.sim");
  let batches =
    List.filter_map
      (fun s -> Ledger.int_attr "pending" s.Ledger.attrs)
      (Ledger.named ct "measure.batch")
    |> List.filter (fun n -> n > 0)
  in
  ground_truth "pool.batches" (c "pool.batches") (List.length batches);
  ground_truth "pool.tasks.submitted" (c "pool.tasks.submitted")
    (List.fold_left ( + ) 0 batches);
  (* the evaluation, under the benchmark's own spans *)
  let exec_before = Util.read exec_counters in
  let (walls1, walls2, stages), et =
    Ledger.record ~path:(Filename.concat tmp "eval.jsonl") (fun () ->
        let stages =
          List.map2
            (fun (_, graph, _) (_, (tg : Graph_tuner.tuned_graph)) ->
              let plan =
                Trace.with_span "bench.graph.plan" (fun () ->
                    Propagate.plan ~mode:Propagate.Full graph
                      ~choices:tg.Graph_tuner.choices)
              in
              let c =
                Trace.with_span "bench.graph.compile" (fun () ->
                    Compile.compile ~schedules:tg.Graph_tuner.schedules graph plan)
              in
              List.length c.Compile.stages)
            zoo tuned
        in
        List.iter2
          (fun (e : Taskset.entry) (t : Scheduler.task_report) ->
            let task =
              Measure.make_task ~max_points ~machine
                ~fused:(List.map (fun (n : Graph.node) -> n.Graph.op) e.Taskset.chain)
                e.Taskset.node.Graph.op
            in
            let r = t.Scheduler.result in
            match
              Trace.with_span "bench.ir.lower" (fun () ->
                  Measure.program_of task r.Tuner.best_choice r.Tuner.best_schedule)
            with
            | Some _ -> ()
            | None ->
                Util.fail "task %s: best schedule does not lower"
                  t.Scheduler.signature)
          (Taskset.of_graphs (graphs_of zoo))
          report.Scheduler.tasks;
        let pass ?before domains =
          List.map2
            (fun m (_, (tg : Graph_tuner.tuned_graph)) ->
              let walls, outputs =
                exec_model ?before ~cfg:(exec_cfg domains) tg.Graph_tuner.compiled
                  ~feeds:m.feeds
              in
              ignore (outputs_match ~what:(Fmt.str "exec d%d" domains) m outputs);
              walls)
            models tuned
        in
        let kernel_compile _ prog bufs =
          Trace.with_span "bench.exec.kernel_compile" (fun () ->
              ignore (Kernel.compile prog ~bufs))
        in
        let w1 = pass ~before:(kernel_compile ()) 1 in
        let w2 = pass 2 in
        (w1, w2, stages))
  in
  let e = Util.delta exec_before (Util.read exec_counters) in
  Metrics.disable ();
  let all1 = List.concat walls1 and all2 = List.concat walls2 in
  let total field ws = List.fold_left (fun a w -> a + field w) 0 ws in
  let macro = total (fun (w : Exec.wall) -> w.Exec.macro_groups) all1 in
  let generic = total (fun (w : Exec.wall) -> w.Exec.generic_groups) all1 in
  ground_truth "exec.compiles" (List.assoc "exec.compiles" e)
    (Ledger.count et "exec.measure");
  ground_truth "exec.macro_groups" (List.assoc "exec.macro_groups" e)
    (macro + total (fun (w : Exec.wall) -> w.Exec.macro_groups) all2);
  let model_ms ws =
    Util.sum (List.map (fun (w : Exec.wall) -> w.Exec.median_ms) ws)
  in
  let d2_speedup =
    Util.geomean (List.map2 (fun a b -> model_ms a /. model_ms b) walls1 walls2)
  in
  let run_s =
    1e-3
    *. Util.sum
         (List.map
            (fun (w : Exec.wall) -> Util.sum (Array.to_list w.Exec.samples))
            all1)
  in
  let imbalances =
    List.filter_map
      (fun (w : Exec.wall) ->
        if w.Exec.par_chunks > 0 then Some w.Exec.imbalance_pct else None)
      all2
  in
  let fits = Ledger.fits ~closer:"scheduler.pick" ct in
  let fit_s = Util.sum (List.map snd fits.Ledger.per_task) in
  let max_task_fit =
    List.fold_left (fun a (_, s) -> Float.max a s) 0.0 fits.Ledger.per_task
  in
  let picks_of = Hashtbl.create 64 in
  List.iter
    (fun (_, _, attrs) ->
      Option.iter
        (fun t ->
          Hashtbl.replace picks_of t
            (1 + Option.value ~default:0 (Hashtbl.find_opt picks_of t)))
        (Ledger.int_attr "task" attrs))
    picks;
  let max_picks = Hashtbl.fold (fun _ n a -> max n a) picks_of 0 in
  (* a round is the gap between consecutive picks *)
  let rec gaps = function
    | a :: (b :: _ as tl) -> (b -. a) :: gaps tl
    | _ -> []
  in
  let rounds =
    match gaps (List.map (fun (t, _, _) -> t) picks) with [] -> [ 0.0 ] | g -> g
  in
  let tail_p, tail_v = Util.tail rounds in
  let f = float_of_int in
  let hit_ratio h m = Util.ratio (f (c h)) (f (c h + c m)) in
  let lowers = Ledger.count et "bench.ir.lower" in
  {
    Report.attempted = 3 * List.length models;
    failed = cold.failed + base.failed + traced.failed;
    metrics =
      Ledger.measurement_metrics ct
      @ [
          ("tuner.picks", f report.Scheduler.picks, "count");
          ( "tuner.max_task_pick_share",
            Util.ratio (f max_picks) (f report.Scheduler.picks),
            "ratio" );
          ("tuner.round_s_p50", Util.median rounds, "s");
          ("tuner.round_s_tail", tail_v, "s");
          ("tuner.round_s_tail_pct", tail_p, "pct");
          ("tuner.round_samples", f (List.length rounds), "count");
          ( "tuner.measure.cache_hit_ratio",
            hit_ratio "measure.cache.hits" "measure.cache.misses",
            "ratio" );
          ( "tuner.lower.memo_hit_ratio",
            hit_ratio "measure.lower.prog_hits" "measure.lower.prog_misses",
            "ratio" );
          ( "tuner.features.memo_hit_ratio",
            hit_ratio "measure.lower.feat_hits" "measure.lower.feat_misses",
            "ratio" );
          ( "tuner.other_s",
            Ledger.self_prefix ct [ "scheduler."; "tuner." ] -. fit_s,
            "s" );
          ("costmodel.fit_s", fit_s, "s");
          ("costmodel.fit_max_ms", fits.Ledger.max_ms, "ms");
          ("costmodel.fit_share", Util.ratio fit_s traced.compile_s, "ratio");
          ("costmodel.max_task_fit_share", Util.ratio max_task_fit fit_s, "ratio");
          ("costmodel.unpaired_rounds", f fits.Ledger.unpaired, "count");
          ("exec.kernel.compile_s", Ledger.total et "bench.exec.kernel_compile", "s");
          ("exec.run_s", run_s, "s");
          ( "exec.macro_group_share",
            Util.ratio (f macro) (f (macro + generic)),
            "ratio" );
          ("exec.d2_speedup", d2_speedup, "ratio");
          ( "exec.parallel.fallbacks",
            f (total (fun (w : Exec.wall) -> w.Exec.par_fallbacks) all2),
            "count" );
          ( "exec.imbalance_pct",
            (if imbalances = [] then 0.0 else Util.median imbalances),
            "pct" );
          ("graph.assemble_s", Ledger.self ct "bench.compile", "s");
          ("graph.plan_s", Ledger.total et "bench.graph.plan", "s");
          ("graph.compile_s", Ledger.total et "bench.graph.compile", "s");
          ("graph.stages", f (List.fold_left ( + ) 0 stages), "count");
          ("graph.conversions", f (List.fold_left ( + ) 0 traced.fp.convs), "count");
          ("graph.fused_ops", f (List.fold_left ( + ) 0 traced.fp.fused), "count");
          ("ir.lowerings", f (c "measure.lower.prog_misses"), "count");
          ( "ir.lower_ms_per_call",
            1e3 *. Util.ratio (Ledger.total et "bench.ir.lower") (f lowers),
            "ms" );
          ( "tensor.relation.validate",
            f (List.assoc "layout.relation.validate" cold.fp.rel),
            "count" );
          ( "tensor.relation.compose",
            f (List.assoc "layout.relation.compose" cold.fp.rel),
            "count" );
          ("parallel.pool.tasks", f (c "pool.tasks.submitted"), "count");
          ("parallel.pool.batches", f (c "pool.batches"), "count");
          ("obs.trace_overhead", traced.compile_s /. base.compile_s, "ratio");
        ];
  }
