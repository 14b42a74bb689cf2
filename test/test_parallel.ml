(* Differential tests for the parallel measurement engine.

   Three layers, matching the engine's determinism contract (DESIGN.md §7):
   - the domain pool itself: submission-order results, exception draining,
     serial degeneration, nested-use rejection;
   - the measurement cache: a hit is structurally equal to a fresh
     simulation, and keys collide exactly when two candidates lower to the
     same canonical program;
   - the tuners end to end: [tune_alt] and [tune_loop_only] (under every
     explorer policy) produce byte-identical results for [~jobs:1] and
     [~jobs:4] at a fixed seed. *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Ops = Alt_graph.Ops
module Propagate = Alt_graph.Propagate
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Templates = Alt_tuner.Templates
module Loopspace = Alt_tuner.Loopspace
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Pool = Alt_parallel.Pool

(* tiny workloads keep the 40-case properties fast *)
let tiny_c2d () =
  Ops.c2d ~name:"c2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
    ~kh:3 ~kw:3 ()

let tiny_gmm () = Ops.gmm ~name:"gmm" ~a:"A" ~b:"B" ~out:"C" ~m:8 ~k:8 ~n:8 ()

let make_task ~seed op =
  Measure.make_task ~machine:Machine.intel_cpu ~max_points:2_000 ~seed op

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_submission_order () =
  let p = Pool.create ~jobs:4 () in
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun x -> x * x) xs)
    (Pool.map p (fun x -> x * x) xs)

let test_exception_drains () =
  let p = Pool.create ~jobs:3 () in
  let started = Atomic.make 0 in
  let xs = List.init 12 Fun.id in
  (match
     Pool.map p
       (fun i ->
         Atomic.incr started;
         if i = 5 || i = 9 then failwith (Fmt.str "boom-%d" i);
         i)
       xs
   with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed (i, Failure msg) ->
      Alcotest.(check int) "submission index of the failing task" 5 i;
      Alcotest.(check string) "lowest-index failure re-raised" "boom-5" msg);
  (* every task still ran: the batch drained, no domain was left hung *)
  Alcotest.(check int) "batch drained" 12 (Atomic.get started)

(* The discipline the measurement pipeline uses: exceptions surface as
   per-task [Error] outcomes in submission order, identical for every
   pool size, and never wedge or poison the batch. *)
let test_map_result_surfaces_errors () =
  let run jobs =
    let p = Pool.create ~jobs () in
    Pool.map_result p
      (fun i -> if i mod 3 = 1 then failwith (Fmt.str "boom-%d" i) else i * i)
      (List.init 10 Fun.id)
  in
  let expect =
    List.init 10 (fun i ->
        if i mod 3 = 1 then Error (Failure (Fmt.str "boom-%d" i))
        else Ok (i * i))
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Fmt.str "per-task outcomes, jobs=%d" jobs)
        true
        (run jobs = expect))
    [ 1; 4 ]

let test_size_one_degenerates () =
  let p = Pool.create () in
  Alcotest.(check int) "jobs" 1 (Pool.jobs p);
  let self = Domain.self () in
  let on_caller = ref true in
  let ys =
    Pool.map p
      (fun x ->
        if Domain.self () <> self then on_caller := false;
        x + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "List.map result" [ 2; 3; 4 ] ys;
  Alcotest.(check bool) "ran on the calling domain" true !on_caller;
  (* an exception propagates immediately, like List.map: later tasks
     never execute *)
  let count = ref 0 in
  (match
     Pool.map p
       (fun i ->
         incr count;
         if i = 1 then failwith "stop";
         i)
       [ 0; 1; 2; 3 ]
   with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed (1, Failure _) -> ());
  Alcotest.(check int) "stopped at the failing task" 2 !count

let test_nested_rejected () =
  let outer = Pool.create ~jobs:2 () in
  let inner = Pool.create ~jobs:2 () in
  match Pool.map outer (fun _ -> Pool.map inner Fun.id [ 1 ]) [ 1; 2 ] with
  | _ -> Alcotest.fail "expected Nested_pool"
  | exception Pool.Task_failed (0, Pool.Nested_pool) -> ()

let test_bad_jobs_rejected () =
  match Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Shutdown racing a submitter: every batch either delivers its full
   result (and its side effects are included in the count observed when
   [shutdown] returns) or raises [Closed] having run nothing — no task
   lost, none duplicated, and the pool is quiescent once [shutdown]
   returns. *)
let test_shutdown_races_submission () =
  let p = Pool.create ~jobs:3 () in
  let effects = Atomic.make 0 in
  let delivered = Atomic.make 0 in
  let batches = Atomic.make 0 in
  let submitter =
    Domain.spawn (fun () ->
        let rec loop () =
          match
            Pool.map p
              (fun i ->
                Atomic.incr effects;
                i * i)
              (List.init 8 Fun.id)
          with
          | ys ->
              Atomic.fetch_and_add delivered (List.length ys) |> ignore;
              Atomic.incr batches;
              loop ()
          | exception Pool.Closed -> ()
        in
        loop ())
  in
  (* let some batches land before pulling the plug *)
  while Atomic.get batches < 3 do
    Domain.cpu_relax ()
  done;
  Pool.shutdown p;
  let at_shutdown = Atomic.get effects in
  Domain.join submitter;
  Alcotest.(check bool) "closed" true (Pool.is_closed p);
  (* quiescence: no task ran after shutdown returned *)
  Alcotest.(check int) "no task ran after shutdown" at_shutdown
    (Atomic.get effects);
  (* conservation: each task effect corresponds to exactly one delivered
     result — nothing lost, nothing duplicated *)
  Alcotest.(check int) "delivered = executed" (Atomic.get effects)
    (Atomic.get delivered);
  (* post-shutdown submissions are rejected without running anything, on
     both the parallel and the serial (jobs=1-or-singleton) paths *)
  (match Pool.map p (fun i -> Atomic.incr effects; i) [ 1; 2 ] with
  | _ -> Alcotest.fail "expected Closed"
  | exception Pool.Closed -> ());
  (match Pool.map p (fun i -> Atomic.incr effects; i) [ 1 ] with
  | _ -> Alcotest.fail "expected Closed (serial path)"
  | exception Pool.Closed -> ());
  Alcotest.(check int) "rejected submissions ran nothing" at_shutdown
    (Atomic.get effects);
  (* idempotent *)
  Pool.shutdown p

let test_drain_waits_without_closing () =
  let p = Pool.create ~jobs:2 () in
  let started = Atomic.make false in
  let done_ = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        Pool.map p
          (fun i ->
            Atomic.set started true;
            Unix.sleepf 0.05;
            Atomic.set done_ true;
            i)
          [ 0 ]
        |> ignore)
  in
  (* wait until the batch is actually in flight, then drain must block
     until it completes *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Pool.drain p;
  Alcotest.(check bool) "drain waited for the batch" true (Atomic.get done_);
  Domain.join worker;
  Alcotest.(check bool) "still open" false (Pool.is_closed p);
  Alcotest.(check (list int)) "still accepts work" [ 42 ]
    (Pool.map p Fun.id [ 42 ])

let prop_pool_map_is_list_map =
  QCheck2.Test.make ~count:100 ~name:"Pool.map = List.map for every jobs"
    QCheck2.Gen.(pair (int_range 1 6) (small_list int))
    (fun (jobs, xs) ->
      let p = Pool.create ~jobs () in
      Pool.map p (fun x -> (2 * x) - 7) xs = List.map (fun x -> (2 * x) - 7) xs)

(* ------------------------------------------------------------------ *)
(* Measurement cache                                                  *)
(* ------------------------------------------------------------------ *)

(* a random candidate = template decode vector + loop-space point *)
let gen_candidate =
  QCheck2.Gen.(
    pair (array_size (return 6) (float_bound_exclusive 1.0)) (int_bound 9_999))

let candidate_of (knobs, sseed) =
  let op = tiny_c2d () in
  let tpl = Option.get (Templates.for_op op) in
  let choice = tpl.Templates.decode knobs in
  let space = Loopspace.of_layout op choice.Propagate.out_layout in
  let rng = Random.State.make [| sseed |] in
  let sched = Loopspace.decode space (Loopspace.random_point ~rng space) in
  (op, choice, sched)

(* A cache hit must return a result structurally equal to a fresh
   simulation (here: the same candidate on a fresh task with the same
   feeds), and hits must still charge budget. *)
let prop_cache_hit_equals_fresh =
  QCheck2.Test.make ~count:40 ~name:"cache hit = fresh simulation"
    gen_candidate
    (fun g ->
      let op, choice, sched = candidate_of g in
      let t1 = make_task ~seed:5 op in
      let r_first = Measure.measure t1 choice sched in
      let r_hit = Measure.measure t1 choice sched in
      let t2 = make_task ~seed:5 op in
      let r_fresh = Measure.measure t2 choice sched in
      let st = Measure.cache_stats t1 in
      match r_first with
      | Measure.Lower_error ->
          (* failed lowering: no key, no budget, no counters *)
          r_hit = Measure.Lower_error
          && r_fresh = Measure.Lower_error
          && st.Measure.hits = 0 && st.Measure.misses = 0
          && t1.Measure.spent = 0
      | Measure.Ok _ ->
          st.Measure.misses = 1 && st.Measure.hits = 1 && r_hit = r_first
          && r_fresh = r_first
          && t1.Measure.spent = 2
      | Measure.Sim_error _ | Measure.Timeout | Measure.Quarantined ->
          (* no fault injector on these tasks: impossible *)
          false)

(* Keys are rename-invariant (every [candidate_key] call re-lowers with
   fresh variable ids) and collide exactly when two candidates lower to
   the same canonical program. *)
let prop_key_collision_iff_same_program =
  QCheck2.Test.make ~count:60 ~name:"keys collide iff same canonical program"
    QCheck2.Gen.(pair gen_candidate gen_candidate)
    (fun (g1, g2) ->
      let op, c1, s1 = candidate_of g1 in
      let _, c2, s2 = candidate_of g2 in
      let t = make_task ~seed:1 op in
      Measure.candidate_key t c1 s1 = Measure.candidate_key t c1 s1
      &&
      match (Measure.program_of t c1 s1, Measure.program_of t c2 s2) with
      | Some p1, Some p2 ->
          Measure.candidate_key t c1 s1 = Measure.candidate_key t c2 s2
          = (Measure.program_key p1 = Measure.program_key p2)
      | None, _ | _, None ->
          Measure.candidate_key t c1 s1 = None
          || Measure.candidate_key t c2 s2 = None)

(* ------------------------------------------------------------------ *)
(* Serial/parallel tuner equivalence                                  *)
(* ------------------------------------------------------------------ *)

let choice_equal (a : Propagate.choice) (b : Propagate.choice) =
  Layout.equal a.Propagate.out_layout b.Propagate.out_layout
  && List.length a.Propagate.in_layouts = List.length b.Propagate.in_layouts
  && List.for_all2
       (fun (n1, l1) (n2, l2) -> n1 = n2 && Layout.equal l1 l2)
       a.Propagate.in_layouts b.Propagate.in_layouts

(* byte-identical trajectories: exact float equality on latency and every
   history entry, structural equality on the schedule *)
let result_equal (a : Tuner.result) (b : Tuner.result) =
  a.Tuner.best_latency = b.Tuner.best_latency
  && choice_equal a.Tuner.best_choice b.Tuner.best_choice
  && a.Tuner.best_schedule = b.Tuner.best_schedule
  && a.Tuner.history = b.Tuner.history
  && a.Tuner.spent = b.Tuner.spent
  && a.Tuner.best_result = b.Tuner.best_result

let prop_tune_alt_differential =
  QCheck2.Test.make ~count:40 ~name:"tune_alt: jobs=1 = jobs=4"
    QCheck2.Gen.(triple bool (int_bound 999) bool)
    (fun (use_gmm, seed, use_ppo) ->
      let op = if use_gmm then tiny_gmm () else tiny_c2d () in
      let layout_explorer = if use_ppo then `Ppo_fresh else `Random in
      let run jobs =
        let task = make_task ~seed:7 op in
        Tuner.tune_alt ~seed ~pool:(Pool.create ~jobs ()) ~layout_explorer
          ~joint_budget:8 ~loop_budget:6 task
      in
      result_equal (run 1) (run 4))

let prop_tune_loop_only_differential =
  QCheck2.Test.make ~count:40
    ~name:"tune_loop_only: jobs=1 = jobs=4, all explorers"
    QCheck2.Gen.(pair (int_bound 2) (int_bound 999))
    (fun (e, seed) ->
      let explorer =
        match e with 0 -> Tuner.Guided | 1 -> Tuner.Walk | _ -> Tuner.Restricted
      in
      let op = tiny_c2d () in
      let layouts =
        [ Templates.trivial_choice op; Templates.blocked_choice op ~block:4 ]
      in
      let run jobs =
        let task = make_task ~seed:3 op in
        Tuner.tune_loop_only ~seed ~pool:(Pool.create ~jobs ()) ~explorer
          ~budget:10 ~layouts task
      in
      result_equal (run 1) (run 4))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "alt_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_submission_order;
          Alcotest.test_case "exception drains batch" `Quick
            test_exception_drains;
          Alcotest.test_case "map_result surfaces per-task errors" `Quick
            test_map_result_surfaces_errors;
          Alcotest.test_case "size-1 degenerates to List.map" `Quick
            test_size_one_degenerates;
          Alcotest.test_case "nested use rejected" `Quick test_nested_rejected;
          Alcotest.test_case "jobs < 1 rejected" `Quick test_bad_jobs_rejected;
          Alcotest.test_case "shutdown races submission" `Quick
            test_shutdown_races_submission;
          Alcotest.test_case "drain waits without closing" `Quick
            test_drain_waits_without_closing;
        ] );
      qsuite "pool-props" [ prop_pool_map_is_list_map ];
      qsuite "cache-props"
        [ prop_cache_hit_equals_fresh; prop_key_collision_iff_same_program ];
      qsuite "differential"
        [ prop_tune_alt_differential; prop_tune_loop_only_differential ];
    ]
