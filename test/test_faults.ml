(* Tests for the fault-tolerant measurement pipeline (DESIGN.md §8):
   deterministic fault injection, bounded retry and quarantine, explorer
   and cost-model tolerance of failed measurements, and checkpoint/resume.

   The load-bearing properties:
   - the fault pattern is a pure function of (fault seed, candidate key),
     so tuning trajectories under faults stay byte-identical for every
     pool size;
   - a 100% fault rate degrades the tuner to a clean "nothing measured"
     result instead of a crash, with every explorer policy and the GBDT
     cost model tolerating infinite/penalty latencies;
   - killing a checkpointed run after an arbitrary round and resuming
     reproduces the uninterrupted run's result exactly. *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Ops = Alt_graph.Ops
module Propagate = Alt_graph.Propagate
module Machine = Alt_machine.Machine
module Runtime = Alt_machine.Runtime
module Exec = Alt_exec.Exec
module Program = Alt_ir.Program
module Fault = Alt_faults.Fault
module Templates = Alt_tuner.Templates
module Loopspace = Alt_tuner.Loopspace
module Measure = Alt_tuner.Measure
module Checkpoint = Alt_tuner.Checkpoint
module Tuner = Alt_tuner.Tuner
module Pool = Alt_parallel.Pool

let tiny_c2d () =
  Ops.c2d ~name:"c2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
    ~kh:3 ~kw:3 ()

let make_task ?faults ?retries ?watchdog_points ?backend op =
  Measure.make_task ~machine:Machine.intel_cpu ~max_points:2_000 ~seed:7
    ?faults ?retries ?watchdog_points ?backend op

(* Exec backend with a virtual clock: the kernel still compiles and runs
   once (so a crashing candidate crashes here too), but the reported
   latency is a pure function of the program — deterministic, so the
   jobs differential below can demand byte-identical trajectories. *)
let exec_backend =
  Runtime.Exec
    {
      Exec.warmup = 0;
      repeats = 1;
      clock = Exec.Virtual (fun p -> 0.001 *. float_of_int p.Program.flops);
      domains = 1;
    }

let choice_equal (a : Propagate.choice) (b : Propagate.choice) =
  Layout.equal a.Propagate.out_layout b.Propagate.out_layout
  && List.length a.Propagate.in_layouts = List.length b.Propagate.in_layouts
  && List.for_all2
       (fun (n1, l1) (n2, l2) -> n1 = n2 && Layout.equal l1 l2)
       a.Propagate.in_layouts b.Propagate.in_layouts

let result_equal (a : Tuner.result) (b : Tuner.result) =
  a.Tuner.best_latency = b.Tuner.best_latency
  && choice_equal a.Tuner.best_choice b.Tuner.best_choice
  && a.Tuner.best_schedule = b.Tuner.best_schedule
  && a.Tuner.history = b.Tuner.history
  && a.Tuner.spent = b.Tuner.spent
  && a.Tuner.best_result = b.Tuner.best_result

(* a fixed, lowerable candidate for the unit tests *)
let fixed_candidate op =
  let choice = Templates.channels_last_choice op in
  let sched = Schedule.vectorize (Schedule.default ~rank:4 ~nred:3) in
  (choice, sched)

(* The injector is deterministic: scan fault seeds for one that gives the
   wanted failure mode on this candidate's key. *)
let seed_with_mode op pred =
  let t = make_task op in
  let choice, sched = fixed_candidate op in
  let key = Option.get (Measure.candidate_key t choice sched) in
  let rec scan seed =
    if seed > 10_000 then Alcotest.fail "no fault seed with the wanted mode"
    else
      match Fault.decide (Fault.create ~seed ~rate:1.0 ()) ~key with
      | Some m when pred m -> seed
      | _ -> scan (seed + 1)
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* Injector                                                           *)
(* ------------------------------------------------------------------ *)

let test_injector_deterministic () =
  let f = Fault.create ~seed:3 ~rate:0.5 () in
  for i = 0 to 99 do
    let key = Fmt.str "cand-%d" i in
    Alcotest.(check bool)
      "same key, same decision" true
      (Fault.decide f ~key = Fault.decide f ~key)
  done;
  Alcotest.(check bool)
    "inactive injector never fires" true
    (Fault.decide Fault.none ~key:"cand-0" = None);
  (match Fault.create ~rate:1.5 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* rate 1.0 fires on every key *)
  let all = Fault.create ~rate:1.0 () in
  for i = 0 to 99 do
    Alcotest.(check bool)
      "rate 1.0 always fires" true
      (Fault.decide all ~key:(Fmt.str "cand-%d" i) <> None)
  done

(* ------------------------------------------------------------------ *)
(* Retry, recovery and quarantine                                     *)
(* ------------------------------------------------------------------ *)

(* A transient (Flaky) fault recovers within the retry budget: the final
   outcome is Ok, indistinguishable from a fault-free measurement. *)
let test_flaky_recovers () =
  let op = tiny_c2d () in
  let seed = seed_with_mode op (function Fault.Flaky _ -> true | _ -> false) in
  let choice, sched = fixed_candidate op in
  let faulty = make_task ~faults:(Fault.create ~seed ~rate:1.0 ()) ~retries:2 op in
  let clean = make_task op in
  (match (Measure.measure faulty choice sched, Measure.measure clean choice sched) with
  | Measure.Ok a, Measure.Ok b ->
      Alcotest.(check bool) "recovered result = clean result" true (a = b)
  | a, b ->
      Alcotest.failf "expected Ok/Ok, got %a / %a" Measure.pp_outcome a
        Measure.pp_outcome b);
  let fs = Measure.fault_stats faulty in
  Alcotest.(check int) "faulted" 1 fs.Measure.faulted;
  Alcotest.(check bool) "retried" true (fs.Measure.retried >= 1);
  Alcotest.(check int) "recovered" 1 fs.Measure.recovered;
  Alcotest.(check int) "not quarantined" 0 fs.Measure.quarantined;
  Alcotest.(check bool) "backoff accrued" true (fs.Measure.backoff_ms > 0.0)

(* An injected crash exhausts its retries, surfaces as a structured
   Sim_error, and quarantines the candidate: re-proposing it is answered
   from the quarantine table (still charging budget) without simulating. *)
let test_crash_quarantines () =
  let op = tiny_c2d () in
  let seed = seed_with_mode op (function Fault.Crash -> true | _ -> false) in
  let choice, sched = fixed_candidate op in
  let t = make_task ~faults:(Fault.create ~seed ~rate:1.0 ()) ~retries:1 op in
  (match Measure.measure t choice sched with
  | Measure.Sim_error msg ->
      Alcotest.(check string)
        "crash message" "injected simulation crash" msg
  | o -> Alcotest.failf "expected Sim_error, got %a" Measure.pp_outcome o);
  (match Measure.measure t choice sched with
  | Measure.Quarantined -> ()
  | o -> Alcotest.failf "expected Quarantined, got %a" Measure.pp_outcome o);
  let fs = Measure.fault_stats t in
  Alcotest.(check int) "quarantined once" 1 fs.Measure.quarantined;
  Alcotest.(check int) "retried once" 1 fs.Measure.retried;
  Alcotest.(check int) "both attempts charged budget" 2 t.Measure.spent;
  Alcotest.(check bool)
    "failure latency is infinite" true
    (Measure.latency_of (Measure.measure t choice sched) = Float.infinity)

(* The watchdog cap converts oversized candidates into Timeouts without
   simulating them. *)
let test_watchdog_timeout () =
  let op = tiny_c2d () in
  let choice, sched = fixed_candidate op in
  let t = make_task ~watchdog_points:1 op in
  (match Measure.measure t choice sched with
  | Measure.Timeout -> ()
  | o -> Alcotest.failf "expected Timeout, got %a" Measure.pp_outcome o);
  let st = Measure.cache_stats t in
  Alcotest.(check int) "nothing simulated into the cache" 1 st.Measure.misses;
  (* a roomy cap changes nothing *)
  let t2 = make_task ~watchdog_points:max_int op in
  let clean = make_task op in
  Alcotest.(check bool)
    "roomy watchdog = no watchdog" true
    (Measure.measure t2 choice sched = Measure.measure clean choice sched)

(* Fault injection sits above the backend dispatch, so a crashing
   candidate must follow the exact same retry/quarantine path whether
   the measurement below it is the simulator or a compiled kernel: same
   structured error, same quarantine answer on re-proposal, same fault
   counters and budget charges. *)
let test_exec_crash_quarantines_identically () =
  let op = tiny_c2d () in
  let seed = seed_with_mode op (function Fault.Crash -> true | _ -> false) in
  let choice, sched = fixed_candidate op in
  let faults () = Fault.create ~seed ~rate:1.0 () in
  let sim = make_task ~faults:(faults ()) ~retries:1 op in
  let exec = make_task ~faults:(faults ()) ~retries:1 ~backend:exec_backend op in
  let sim1 = Measure.measure sim choice sched in
  let exec1 = Measure.measure exec choice sched in
  Alcotest.(check bool)
    (Fmt.str "first outcome identical (%a)" Measure.pp_outcome exec1)
    true (sim1 = exec1);
  (match exec1 with
  | Measure.Sim_error _ -> ()
  | o -> Alcotest.failf "expected Sim_error, got %a" Measure.pp_outcome o);
  let sim2 = Measure.measure sim choice sched in
  let exec2 = Measure.measure exec choice sched in
  Alcotest.(check bool) "re-proposal quarantined on both" true
    (sim2 = Measure.Quarantined && exec2 = Measure.Quarantined);
  let fs = Measure.fault_stats sim and fe = Measure.fault_stats exec in
  Alcotest.(check bool) "fault counters identical" true (fs = fe);
  Alcotest.(check int) "budget charged identically" sim.Measure.spent
    exec.Measure.spent

(* ------------------------------------------------------------------ *)
(* Fault-off identity; tuners under faults                             *)
(* ------------------------------------------------------------------ *)

(* With the injector off, the retry budget is dead code: trajectories are
   byte-identical whatever its value (the fault-free pipeline is the
   pre-fault-model pipeline). *)
let prop_fault_off_retries_inert =
  QCheck2.Test.make ~count:20 ~name:"fault off: retries/watchdog are inert"
    QCheck2.Gen.(pair (int_bound 999) (int_bound 4))
    (fun (seed, retries) ->
      let op = tiny_c2d () in
      let run ?watchdog_points retries =
        let task = make_task ~retries ?watchdog_points op in
        Tuner.tune_loop_only ~seed ~explorer:Tuner.Guided ~budget:12
          ~layouts:[ Templates.trivial_choice op ]
          task
      in
      result_equal (run 0) (run retries)
      && result_equal (run 0) (run ~watchdog_points:max_int 0))

(* Under faults the trajectory must still be independent of the pool
   size: faults are decided per candidate key, retries are replayed on
   the calling domain, so jobs=1 and jobs=4 agree byte-for-byte. *)
let prop_faulty_differential =
  QCheck2.Test.make ~count:20 ~name:"fault rate 0.3: jobs=1 = jobs=4"
    QCheck2.Gen.(pair (int_bound 999) (int_bound 2))
    (fun (seed, e) ->
      let explorer =
        match e with 0 -> Tuner.Guided | 1 -> Tuner.Walk | _ -> Tuner.Restricted
      in
      let op = tiny_c2d () in
      let run jobs =
        let task =
          make_task ~faults:(Fault.create ~seed ~rate:0.3 ()) ~retries:2 op
        in
        Tuner.tune_loop_only ~seed ~pool:(Pool.create ~jobs ()) ~explorer
          ~budget:14
          ~layouts:[ Templates.trivial_choice op ]
          task
      in
      result_equal (run 1) (run 4))

(* The same pool-size independence must hold when the measurements are
   exec-backend kernel runs (virtual clock: deterministic latencies). *)
let prop_exec_faulty_differential =
  QCheck2.Test.make ~count:20
    ~name:"exec backend, fault rate 0.3: jobs=1 = jobs=4"
    QCheck2.Gen.(pair (int_bound 999) (int_bound 2))
    (fun (seed, e) ->
      let explorer =
        match e with 0 -> Tuner.Guided | 1 -> Tuner.Walk | _ -> Tuner.Restricted
      in
      let op = tiny_c2d () in
      let run jobs =
        let task =
          make_task
            ~faults:(Fault.create ~seed ~rate:0.3 ())
            ~retries:2 ~backend:exec_backend op
        in
        Tuner.tune_loop_only ~seed ~pool:(Pool.create ~jobs ()) ~explorer
          ~budget:14
          ~layouts:[ Templates.trivial_choice op ]
          task
      in
      result_equal (run 1) (run 4))

(* jobs x domains composition (DESIGN.md §15): pool workers measuring
   concurrently, each kernel fanning its parallel band out over the
   shared 4-domain team, under 30% faults — the trajectory must still be
   byte-identical to the serial pool, serial kernels.  Exercises
   Team.parallel_for being entered from inside Pool tasks. *)
let exec_domains_backend domains =
  Runtime.Exec
    {
      Exec.warmup = 0;
      repeats = 1;
      clock = Exec.Virtual (fun p -> 0.001 *. float_of_int p.Program.flops);
      domains;
    }

let prop_jobs_domains_composition =
  QCheck2.Test.make ~count:10
    ~name:"exec backend, 30% faults: jobs=1/domains=1 = jobs=4/domains=4"
    QCheck2.Gen.(int_bound 999)
    (fun seed ->
      let op = tiny_c2d () in
      let run jobs domains =
        let task =
          make_task
            ~faults:(Fault.create ~seed ~rate:0.3 ())
            ~retries:2
            ~backend:(exec_domains_backend domains)
            op
        in
        Tuner.tune_loop_only ~seed ~pool:(Pool.create ~jobs ())
          ~explorer:Tuner.Guided ~budget:12
          ~layouts:[ Templates.trivial_choice op ]
          task
      in
      (* the backend tag (and so the fingerprint) differs at domains=4,
         but the measured trajectory must not: compare fields *)
      result_equal (run 1 1) (run 4 4) && result_equal (run 1 4) (run 1 1))

(* Every explorer policy (and the GBDT cost model they feed) must survive
   a run where every measurement fails: finite budget fully spent, no NaN
   anywhere in the trajectory, and a well-formed fallback result. *)
let test_all_fail_still_completes () =
  let op = tiny_c2d () in
  List.iter
    (fun explorer ->
      let task =
        make_task ~faults:(Fault.create ~seed:1 ~rate:1.0 ()) ~retries:0 op
      in
      let r =
        Tuner.tune_loop_only ~seed:3 ~explorer ~budget:20
          ~layouts:[ Templates.trivial_choice op ]
          task
      in
      Alcotest.(check bool)
        "best latency is infinite, not NaN" true
        (r.Tuner.best_latency = Float.infinity);
      Alcotest.(check bool)
        "no NaN in history" true
        (List.for_all (fun (_, l) -> not (Float.is_nan l)) r.Tuner.history);
      Alcotest.(check bool) "budget spent" true (r.Tuner.spent >= 20);
      Alcotest.(check bool)
        "fallback candidate lowers" true
        (Measure.program_of task r.Tuner.best_choice r.Tuner.best_schedule
        <> None);
      let fs = Measure.fault_stats task in
      Alcotest.(check bool) "faults recorded" true (fs.Measure.faulted > 0))
    [ Tuner.Guided; Tuner.Walk; Tuner.Restricted ]

(* At a moderate fault rate the tuner must still find a finite best; the
   run with faults can never beat the fault-free run (it only loses
   measurements). *)
let test_partial_faults_still_tune () =
  let op = tiny_c2d () in
  let run faults =
    let task = make_task ?faults ~retries:2 op in
    let r =
      Tuner.tune_alt ~seed:5 ~layout_explorer:`Random ~joint_budget:10
        ~loop_budget:10 task
    in
    (r, Measure.fault_stats task)
  in
  let clean, _ = run None in
  let faulty, fs = run (Some (Fault.create ~seed:2 ~rate:0.3 ())) in
  Alcotest.(check bool)
    "faulty run finds a finite best" true
    (Float.is_finite faulty.Tuner.best_latency);
  Alcotest.(check bool) "faults were injected" true (fs.Measure.faulted > 0);
  Alcotest.(check bool)
    "faulty best >= clean best" true
    (faulty.Tuner.best_latency >= clean.Tuner.best_latency);
  Alcotest.(check int) "same budget spent" clean.Tuner.spent faulty.Tuner.spent

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume                                                  *)
(* ------------------------------------------------------------------ *)

let with_tmp f =
  let path = Filename.temp_file "altckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_tmp (fun path ->
      let op = tiny_c2d () in
      let t = make_task op in
      let choice, sched = fixed_candidate op in
      ignore (Measure.measure t choice sched : Measure.outcome);
      let cache, quarantine = Measure.snapshot t in
      let c =
        {
          Checkpoint.fingerprint = Measure.fingerprint ~seed:0 ~tag:"t" t;
          rounds = 3;
          spent = t.Measure.spent;
          best_latency = 1.5;
          rng_digest = "d";
          cache;
          quarantine;
        }
      in
      Checkpoint.save ~path c;
      Alcotest.(check bool) "roundtrip" true (Checkpoint.load ~path = c);
      (* restoring into a fresh task turns the measurement into a hit *)
      let t2 = make_task op in
      Measure.restore t2 ~cache ~quarantine;
      (match Measure.measure t2 choice sched with
      | Measure.Ok _ -> ()
      | o -> Alcotest.failf "expected Ok from cache, got %a" Measure.pp_outcome o);
      Alcotest.(check int)
        "restored measurement is a cache hit" 1
        (Measure.cache_stats t2).Measure.hits)

let test_checkpoint_rejects_garbage () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a checkpoint";
      close_out oc;
      match Checkpoint.load ~path with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ());
  Alcotest.(check bool)
    "load_opt on a missing path" true
    (Checkpoint.load_opt ~path:"/nonexistent/alt.ckpt" = None)

exception Killed

(* A tuning run as a function of the checkpoint triple; each call builds
   its own fresh task, as a restarted process would. *)
type runner = {
  run :
    checkpoint:string option ->
    resume:string option ->
    on_progress:(Tuner.progress -> unit) option ->
    Tuner.result;
}

let loop_runner ~faults =
  {
    run =
      (fun ~checkpoint ~resume ~on_progress ->
        let op = tiny_c2d () in
        let task = make_task ?faults ~retries:1 op in
        Tuner.tune_loop_only ~seed:11 ?checkpoint ?resume ?on_progress
          ~explorer:Tuner.Guided ~budget:30
          ~layouts:
            [ Templates.trivial_choice op; Templates.channels_last_choice op ]
          task);
  }

let alt_runner ~faults =
  {
    run =
      (fun ~checkpoint ~resume ~on_progress ->
        let op = tiny_c2d () in
        let task = make_task ?faults ~retries:1 op in
        Tuner.tune_alt ~seed:4 ~layout_explorer:`Ppo_fresh ?checkpoint ?resume
          ?on_progress ~joint_budget:12 ~loop_budget:12 task);
  }

(* Kill a checkpointed run after round [kill_round] (the hook raising
   stands in for a killed process), resume from the journal, and require
   the exact result of the uninterrupted run. *)
let kill_and_resume ~kill_round { run } =
  with_tmp (fun path ->
      let uninterrupted =
        run ~checkpoint:None ~resume:None ~on_progress:None
      in
      (try
         ignore
           (run ~checkpoint:(Some path) ~resume:None
              ~on_progress:
                (Some
                   (fun p -> if p.Tuner.rounds = kill_round then raise Killed))
             : Tuner.result)
       with Killed -> ());
      Alcotest.(check bool)
        "a checkpoint was written" true
        (Checkpoint.load_opt ~path <> None);
      let resumed =
        run ~checkpoint:(Some path) ~resume:(Some path) ~on_progress:None
      in
      Alcotest.(check bool)
        "resumed = uninterrupted" true
        (result_equal uninterrupted resumed))

let test_kill_resume_loop_only () =
  List.iter
    (fun kill_round -> kill_and_resume ~kill_round (loop_runner ~faults:None))
    [ 1; 2; 3 ]

(* With faults on, the quarantine table rides through the journal too:
   the resumed run answers quarantined candidates without re-simulating
   and still reproduces the uninterrupted trajectory. *)
let test_kill_resume_alt_under_faults () =
  let faults = Some (Fault.create ~seed:6 ~rate:0.25 ()) in
  List.iter
    (fun kill_round -> kill_and_resume ~kill_round (alt_runner ~faults))
    [ 2; 4 ]

(* A checkpoint written under one tuner configuration must not resume a
   differently-configured run whose trajectory it would silently
   corrupt. *)
let test_fingerprint_mismatch_rejected () =
  with_tmp (fun path ->
      ignore
        ((loop_runner ~faults:None).run ~checkpoint:(Some path) ~resume:None
           ~on_progress:None
          : Tuner.result);
      let op = tiny_c2d () in
      let task = make_task ~retries:1 op in
      match
        Tuner.tune_loop_only ~seed:11 ~resume:path ~explorer:Tuner.Walk
          ~budget:10
          ~layouts:[ Templates.trivial_choice op ]
          task
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "alt_faults"
    [
      ( "injector",
        [
          Alcotest.test_case "deterministic per (seed, key)" `Quick
            test_injector_deterministic;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "flaky fault recovers by retry" `Quick
            test_flaky_recovers;
          Alcotest.test_case "crash exhausts retries, quarantines" `Quick
            test_crash_quarantines;
          Alcotest.test_case "watchdog timeout" `Quick test_watchdog_timeout;
          Alcotest.test_case "exec backend quarantines identically" `Quick
            test_exec_crash_quarantines_identically;
        ] );
      ( "tuners-under-faults",
        [
          Alcotest.test_case "100% faults: every explorer completes" `Quick
            test_all_fail_still_completes;
          Alcotest.test_case "30% faults: still tunes" `Quick
            test_partial_faults_still_tune;
        ] );
      qsuite "fault-props"
        [
          prop_fault_off_retries_inert;
          prop_faulty_differential;
          prop_exec_faulty_differential;
          prop_jobs_domains_composition;
        ];
      ( "checkpoint",
        [
          Alcotest.test_case "save/load roundtrip + restore" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "garbage and missing files" `Quick
            test_checkpoint_rejects_garbage;
          Alcotest.test_case "kill+resume = uninterrupted (loop-only)" `Quick
            test_kill_resume_loop_only;
          Alcotest.test_case "kill+resume = uninterrupted (alt, faults)"
            `Quick test_kill_resume_alt_under_faults;
          Alcotest.test_case "foreign checkpoint rejected" `Quick
            test_fingerprint_mismatch_rejected;
        ] );
    ]
