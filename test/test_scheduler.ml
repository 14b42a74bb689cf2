(* Differential tests for the gradient task scheduler (DESIGN.md §14):
   jobs-count invariance of whole-zoo trajectories; goldens pinning
   tune_graph (Static through the scheduler) to digests captured from the
   deleted legacy sequential loop; Tuner.Step fiber equivalence with
   direct tuner calls, plus its failure paths (a raising tuner, abort at
   a yield, abort after completion); and the headline perf property —
   gradient scheduling with cost-model transfer beats (or matches) the
   static split on end-to-end latency at equal budget. *)

module Graph = Alt_graph.Graph
module Ops = Alt_graph.Ops
module Machine = Alt_machine.Machine
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Taskset = Alt_tuner.Taskset
module Scheduler = Alt_tuner.Scheduler
module Graph_tuner = Alt_tuner.Graph_tuner
module Fault = Alt_faults.Fault

(* --- tiny two-model zoo: a conv net and an MLP sharing one gmm task --- *)

let conv_model () =
  let b = Graph.builder () in
  let x = Graph.input b "x" [| 1; 4; 8; 8 |] in
  let k = Graph.param b "k" [| 8; 4; 3; 3 |] in
  let y =
    Graph.add b
      (Ops.c2d ~name:"conv" ~inp:x ~ker:k ~out:"y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
         ~kh:3 ~kw:3 ())
  in
  let yr =
    Graph.add b (Ops.relu ~name:"relu" ~inp:y ~out:"yr" ~shape:[| 1; 8; 6; 6 |] ())
  in
  ignore yr;
  Graph.finish b ~outputs:[ yr ]

let mlp_model () =
  let b = Graph.builder () in
  let x = Graph.input b "x" [| 8; 8 |] in
  let w0 = Graph.param b "w0" [| 8; 8 |] in
  let w1 = Graph.param b "w1" [| 8; 12 |] in
  let h =
    Graph.add b (Ops.gmm ~name:"fc0" ~a:x ~b:w0 ~out:"h" ~m:8 ~k:8 ~n:8 ())
  in
  let hr =
    Graph.add b (Ops.relu ~name:"relu0" ~inp:h ~out:"hr" ~shape:[| 8; 8 |] ())
  in
  let o =
    Graph.add b (Ops.gmm ~name:"fc1" ~a:hr ~b:w1 ~out:"o" ~m:8 ~k:8 ~n:12 ())
  in
  ignore o;
  Graph.finish b ~outputs:[ o ]

(* the mlp's fc0 (gmm 8x8x8 + relu chain) also appears here, so the zoo
   exercises cross-model task dedup *)
let mixed_model () =
  let b = Graph.builder () in
  let x = Graph.input b "x" [| 8; 8 |] in
  let w0 = Graph.param b "w0" [| 8; 8 |] in
  let h =
    Graph.add b (Ops.gmm ~name:"g0" ~a:x ~b:w0 ~out:"h" ~m:8 ~k:8 ~n:8 ())
  in
  let hr =
    Graph.add b (Ops.relu ~name:"r0" ~inp:h ~out:"hr" ~shape:[| 8; 8 |] ())
  in
  let h2 =
    Graph.add b (Ops.gmm ~name:"g1" ~a:hr ~b:w0 ~out:"h2" ~m:8 ~k:8 ~n:8 ())
  in
  let h2r =
    Graph.add b (Ops.relu ~name:"r1" ~inp:h2 ~out:"h2r" ~shape:[| 8; 8 |] ())
  in
  ignore h2r;
  Graph.finish b ~outputs:[ h2r ]

let zoo () = [ ("convnet", conv_model ()); ("mlp", mlp_model ()) ]

let tune ?(jobs = 1) ?transfer ~policy ~budget graphs =
  Graph_tuner.tune_models ~jobs ~max_points:2_000 ?transfer ~policy
    ~system:Graph_tuner.Galt ~machine:Machine.intel_cpu ~budget graphs

(* --- task extraction across the zoo --- *)

let test_taskset_dedup () =
  let graphs =
    [ ("mlp", mlp_model ()); ("mixed", mixed_model ()) ]
  in
  let entries = Taskset.of_graphs graphs in
  (* fc0 and both of mixed's gmms share one signature; fc1 is its own *)
  Alcotest.(check int) "unique tasks" 2 (List.length entries);
  let shared = List.hd entries in
  Alcotest.(check (list (pair string int)))
    "occurrence counts"
    [ ("mlp", 1); ("mixed", 2) ]
    shared.Taskset.occurrences;
  Alcotest.(check int) "total occurrences" 3 (Taskset.occurrences_total shared)

(* --- determinism: jobs=1 and jobs=4 trajectories are byte-identical --- *)

let task_key (t : Scheduler.task_report) =
  ( t.Scheduler.signature,
    t.Scheduler.trials,
    t.Scheduler.rounds,
    t.Scheduler.best_latency,
    t.Scheduler.result.Tuner.history )

let check_reports_equal what (a : Scheduler.report) (b : Scheduler.report) =
  Alcotest.(check int) (what ^ ": picks") a.Scheduler.picks b.Scheduler.picks;
  Alcotest.(check int)
    (what ^ ": eps picks") a.Scheduler.eps_picks b.Scheduler.eps_picks;
  Alcotest.(check int) (what ^ ": spent") a.Scheduler.spent b.Scheduler.spent;
  List.iter2
    (fun ta tb ->
      if task_key ta <> task_key tb then
        Alcotest.failf "%s: task %s trajectory differs" what
          ta.Scheduler.signature)
    a.Scheduler.tasks b.Scheduler.tasks;
  Alcotest.(check (list (pair string (list (pair int (float 1e-12))))))
    (what ^ ": curves") a.Scheduler.curves b.Scheduler.curves

let test_jobs_invariance policy () =
  let budget = 72 in
  let r1, _ = tune ~jobs:1 ~policy ~budget (zoo ()) in
  let r4, _ = tune ~jobs:4 ~policy ~budget (zoo ()) in
  check_reports_equal (Scheduler.policy_name policy) r1 r4

(* --- Static through the scheduler == the legacy sequential loop ---

   Goldens captured from the legacy sequential tune_graph loop before it
   was deleted; tune_graph now runs Static through the scheduler.  Every
   system on both models, plain, under 30% injected faults with one
   retry, and with warm-started cost models.  Each digest covers the
   graph-level result (tasks, measurements, per-node choices and
   schedules) and every task's full trajectory. *)

let tuned_digest (tg : Graph_tuner.tuned_graph) =
  let per_task =
    List.map
      (fun (s, (r : Tuner.result)) ->
        ( s,
          r.Tuner.best_latency,
          r.Tuner.spent,
          r.Tuner.history,
          r.Tuner.best_choice,
          r.Tuner.best_schedule ))
      tg.Graph_tuner.per_task
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( tg.Graph_tuner.tasks_tuned,
            tg.Graph_tuner.measurements,
            tg.Graph_tuner.choices,
            tg.Graph_tuner.schedules,
            per_task )
          []))

let static_goldens =
  [
    ("conv", "vendor", "plain", "4200ceb2d666e5d2fcac3b44beaa80f8");
    ("conv", "autotvm", "plain", "bc2d1cf03e5da7f959fbbb1cc6e86e0d");
    ("conv", "ansor", "plain", "97ff56715841072ca9a8348c2b1ff876");
    ("conv", "alt", "plain", "9bd520382974259eb35f6e2ac6cbaf9c");
    ("conv", "alt-ol", "plain", "5ae6ccb21b0a36545ab60cdf67c45cbf");
    ("conv", "alt-wp", "plain", "1c3a9a97acbb82d3ef5b39d3f3ec81bd");
    ("mlp", "vendor", "plain", "9d71dde8e6ee45ad8cfe739dd8d36897");
    ("mlp", "autotvm", "plain", "7dc2b302aa3ca7a192e2151987bb514b");
    ("mlp", "ansor", "plain", "b5139a7deca28d93e160bb37e2ac7819");
    ("mlp", "alt", "plain", "ca266ffd38baa81aeebdfb5c9b698aa5");
    ("mlp", "alt-ol", "plain", "6af6044416d3e82065beee0239d1460e");
    ("mlp", "alt-wp", "plain", "00b71f1d22151cf2b2ecfc4a7a3fb0f8");
    ("conv", "vendor", "faults", "4200ceb2d666e5d2fcac3b44beaa80f8");
    ("conv", "autotvm", "faults", "bc2d1cf03e5da7f959fbbb1cc6e86e0d");
    ("conv", "ansor", "faults", "97ff56715841072ca9a8348c2b1ff876");
    ("conv", "alt", "faults", "6c8ebbda97bc117dbcc3373300299920");
    ("conv", "alt-ol", "faults", "773582071451e79bc33e8f524d68d571");
    ("conv", "alt-wp", "faults", "f594b5b654d975db19a4cf31feae0016");
    ("mlp", "vendor", "faults", "9d71dde8e6ee45ad8cfe739dd8d36897");
    ("mlp", "autotvm", "faults", "25fe7c400e5e8f03c1903c975f00deb0");
    ("mlp", "ansor", "faults", "b5139a7deca28d93e160bb37e2ac7819");
    ("mlp", "alt", "faults", "ffd3a459f8b61d4d63da40e501691628");
    ("mlp", "alt-ol", "faults", "df91f811a3b87729ef9fdb544f6da23a");
    ("mlp", "alt-wp", "faults", "0f145555854eec791f3fa7c4daa90281");
    ("conv", "vendor", "warm", "4200ceb2d666e5d2fcac3b44beaa80f8");
    ("conv", "autotvm", "warm", "bc2d1cf03e5da7f959fbbb1cc6e86e0d");
    ("conv", "ansor", "warm", "97ff56715841072ca9a8348c2b1ff876");
    ("conv", "alt", "warm", "67625713ea64f8f4da28afa493f16fba");
    ("conv", "alt-ol", "warm", "46fe9a8e5c4386ef747e3556b1210913");
    ("conv", "alt-wp", "warm", "d5ea8b36c91770b5aee85fbad1e78a94");
    ("mlp", "vendor", "warm", "9d71dde8e6ee45ad8cfe739dd8d36897");
    ("mlp", "autotvm", "warm", "7dc2b302aa3ca7a192e2151987bb514b");
    ("mlp", "ansor", "warm", "b5139a7deca28d93e160bb37e2ac7819");
    ("mlp", "alt", "warm", "ca266ffd38baa81aeebdfb5c9b698aa5");
    ("mlp", "alt-ol", "warm", "6af6044416d3e82065beee0239d1460e");
    ("mlp", "alt-wp", "warm", "00b71f1d22151cf2b2ecfc4a7a3fb0f8");
  ]

let gsystems =
  Graph_tuner.[ Gvendor; Gautotvm; Gansor; Galt; Galt_ol; Galt_wp ]

let test_static_goldens () =
  let failures =
    List.filter_map
      (fun (model, sys, variant, want) ->
        let system =
          List.find (fun s -> Graph_tuner.gsystem_name s = sys) gsystems
        in
        let g = if model = "conv" then conv_model () else mlp_model () in
        let faults, retries =
          if variant = "faults" then
            (Some (Fault.create ~seed:1 ~rate:0.3 ()), Some 1)
          else (None, None)
        in
        let tg =
          Graph_tuner.tune_graph ~max_points:2_000 ?faults ?retries
            ~warm_start:(variant = "warm") ~system
            ~machine:Machine.intel_cpu ~budget:64 g
        in
        let got = tuned_digest tg in
        if got = want then None
        else Some (Fmt.str "(%S, %S, %S, %S)" model sys variant got))
      static_goldens
  in
  if failures <> [] then
    Alcotest.failf "%d digests differ:\n%s" (List.length failures)
      (String.concat ";\n" failures)

(* --- Tuner.Step: stepping to completion == calling the tuner directly --- *)

let step_task () =
  Measure.make_task ~machine:Machine.intel_cpu ~max_points:2_000
    (Ops.gmm ~name:"gmm" ~a:"A" ~b:"B" ~out:"C" ~m:8 ~k:8 ~n:8 ())

let test_step_equals_direct () =
  let direct =
    Tuner.tune_alt ~seed:0 ~joint_budget:12 ~loop_budget:20 (step_task ())
  in
  let fiber =
    Tuner.Step.start (fun ~stop ~on_progress ->
        Tuner.tune_alt ~seed:0 ~stop ~on_progress ~joint_budget:12
          ~loop_budget:20 (step_task ()))
  in
  let rec drive n =
    if n > 10_000 then Alcotest.fail "fiber did not finish";
    match Tuner.Step.step fiber with
    | Tuner.Step.Done r -> r
    | Tuner.Step.Running _ -> drive (n + 1)
  in
  let stepped = drive 0 in
  Alcotest.(check (float 0.0))
    "best latency" direct.Tuner.best_latency stepped.Tuner.best_latency;
  Alcotest.(check int) "spent" direct.Tuner.spent stepped.Tuner.spent;
  if direct.Tuner.history <> stepped.Tuner.history then
    Alcotest.fail "history differs";
  Alcotest.(check bool) "finished" true (Tuner.Step.finished fiber);
  (* finish is idempotent on a done fiber *)
  let again = Tuner.Step.finish fiber in
  Alcotest.(check (float 0.0))
    "finish after done" stepped.Tuner.best_latency again.Tuner.best_latency

let test_step_early_finish () =
  let fiber =
    Tuner.Step.start (fun ~stop ~on_progress ->
        Tuner.tune_alt ~seed:0 ~stop ~on_progress ~joint_budget:12
          ~loop_budget:20 (step_task ()))
  in
  (match Tuner.Step.step fiber with
  | Tuner.Step.Done _ -> Alcotest.fail "finished after one round"
  | Tuner.Step.Running p ->
      Alcotest.(check bool) "one round" true (p.Tuner.rounds >= 1));
  let r = Tuner.Step.finish fiber in
  Alcotest.(check bool)
    "early result measured something" true
    (Float.is_finite r.Tuner.best_latency);
  Alcotest.(check bool) "finished" true (Tuner.Step.finished fiber);
  let p = Tuner.Step.progress fiber in
  Alcotest.(check bool)
    "progress tracks result" true
    (p.Tuner.best_latency >= r.Tuner.best_latency)

(* --- Tuner.Step failure paths: a raising tuner and injected aborts --- *)

exception Injected

(* [hook] runs inside the tuner's [on_progress], just before the fiber
   yields: raising from it fails the tuner after that round *)
let stepped_alt ?(hook = ignore) ?(finally = ignore) () =
  Tuner.Step.start (fun ~stop ~on_progress ->
      Fun.protect ~finally (fun () ->
          Tuner.tune_alt ~seed:0 ~stop
            ~on_progress:(fun p ->
              hook p;
              on_progress p)
            ~joint_budget:12 ~loop_budget:20 (step_task ())))

let test_step_raise_then_finish () =
  let fiber =
    stepped_alt
      ~hook:(fun p -> if p.Tuner.rounds = 2 then failwith "boom")
      ()
  in
  (match Tuner.Step.step fiber with
  | Tuner.Step.Running _ -> ()
  | Tuner.Step.Done _ -> Alcotest.fail "finished after one round");
  let boom = Failure "boom" in
  Alcotest.check_raises "step raises the tuner's exception" boom (fun () ->
      ignore (Tuner.Step.step fiber));
  Alcotest.(check bool) "finished" true (Tuner.Step.finished fiber);
  Alcotest.check_raises "finish re-raises" boom (fun () ->
      ignore (Tuner.Step.finish fiber));
  Alcotest.check_raises "step re-raises" boom (fun () ->
      ignore (Tuner.Step.step fiber))

let test_step_abort_at_yield () =
  let finalized = ref 0 in
  let fiber = stepped_alt ~finally:(fun () -> incr finalized) () in
  (match Tuner.Step.step fiber with
  | Tuner.Step.Running _ -> ()
  | Tuner.Step.Done _ -> Alcotest.fail "finished after one round");
  Alcotest.(check int) "not finalized while paused" 0 !finalized;
  Alcotest.check_raises "abort surfaces the exception" Injected (fun () ->
      ignore (Tuner.Step.abort fiber Injected));
  Alcotest.(check int) "finalizer ran once" 1 !finalized;
  Alcotest.(check bool) "finished" true (Tuner.Step.finished fiber);
  Alcotest.check_raises "step after abort" Injected (fun () ->
      ignore (Tuner.Step.step fiber));
  Alcotest.(check int) "finalizer not rerun" 1 !finalized

let test_step_abort_after_done () =
  let fiber = stepped_alt () in
  let r = Tuner.Step.finish fiber in
  match Tuner.Step.abort fiber Injected with
  | Tuner.Step.Done r' ->
      Alcotest.(check (float 0.0))
        "same result" r.Tuner.best_latency r'.Tuner.best_latency;
      Alcotest.(check bool) "finished" true (Tuner.Step.finished fiber)
  | Tuner.Step.Running _ -> Alcotest.fail "done fiber resumed"

(* --- the perf property: gradient + transfer >= static at equal budget --- *)

let e2e_latency tuned =
  List.fold_left
    (fun acc (_, tg) ->
      let r = Graph_tuner.run ~max_points:2_000 tg ~machine:Machine.intel_cpu in
      acc +. r.Alt_graph.Compile.latency_ms)
    0.0 tuned

let test_gradient_beats_static () =
  let budget = 96 in
  let rs, static = tune ~policy:Scheduler.Static ~budget (zoo ()) in
  let rg, gradient = tune ~policy:Scheduler.Gradient ~budget (zoo ()) in
  Alcotest.(check bool) "transfer on under gradient" true rg.Scheduler.transfer;
  Alcotest.(check bool) "transfer off under static" false rs.Scheduler.transfer;
  Alcotest.(check bool)
    "gradient spends within budget" true
    (rg.Scheduler.spent <= budget);
  let ls = e2e_latency static and lg = e2e_latency gradient in
  if not (lg <= ls *. 1.0001) then
    Alcotest.failf "gradient %g ms worse than static %g ms at budget %d" lg ls
      budget;
  (* curves exist for every model and spend is non-decreasing *)
  List.iter
    (fun (m, pts) ->
      Alcotest.(check bool) (m ^ ": has curve points") true (pts <> []);
      let rec mono = function
        | (s0, _) :: ((s1, _) :: _ as tl) ->
            if s0 > s1 then Alcotest.failf "%s: curve spend decreases" m;
            mono tl
        | _ -> ()
      in
      mono pts)
    rg.Scheduler.curves

(* --- QCheck2: jobs invariance over random seeds and job counts --- *)

let prop_jobs_invariant =
  QCheck2.Test.make ~count:3 ~name:"scheduler trajectory independent of jobs"
    QCheck2.Gen.(pair (int_range 0 3) (int_range 2 4))
    (fun (seed, jobs) ->
      let budget = 48 in
      let go jobs =
        Graph_tuner.tune_models ~seed ~jobs ~max_points:2_000
          ~policy:Scheduler.Gradient ~system:Graph_tuner.Galt
          ~machine:Machine.intel_cpu ~budget
          [ ("mlp", mlp_model ()); ("mixed", mixed_model ()) ]
      in
      let r1, _ = go 1 and rn, _ = go jobs in
      r1.Scheduler.picks = rn.Scheduler.picks
      && r1.Scheduler.spent = rn.Scheduler.spent
      && r1.Scheduler.curves = rn.Scheduler.curves
      && List.for_all2
           (fun a b -> task_key a = task_key b)
           r1.Scheduler.tasks rn.Scheduler.tasks)

let () =
  Alcotest.run "scheduler"
    [
      ( "taskset",
        [ Alcotest.test_case "cross-model dedup" `Quick test_taskset_dedup ] );
      ( "determinism",
        [
          Alcotest.test_case "gradient jobs=1 == jobs=4" `Quick
            (test_jobs_invariance Scheduler.Gradient);
          Alcotest.test_case "roundrobin jobs=1 == jobs=4" `Quick
            (test_jobs_invariance Scheduler.Roundrobin);
          QCheck_alcotest.to_alcotest prop_jobs_invariant;
        ] );
      ( "static",
        [
          Alcotest.test_case "scheduler static == legacy loop" `Quick
            test_static_goldens;
        ] );
      ( "step",
        [
          Alcotest.test_case "stepping == direct call" `Quick
            test_step_equals_direct;
          Alcotest.test_case "early finish is valid" `Quick
            test_step_early_finish;
          Alcotest.test_case "raise then finish re-raises" `Quick
            test_step_raise_then_finish;
          Alcotest.test_case "abort at a yield runs finalizers" `Quick
            test_step_abort_at_yield;
          Alcotest.test_case "abort after done is a no-op" `Quick
            test_step_abort_after_done;
        ] );
      ( "perf",
        [
          Alcotest.test_case "gradient+transfer >= static" `Quick
            test_gradient_beats_static;
        ] );
    ]
