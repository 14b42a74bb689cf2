(* alt_cli — command-line front end for the ALT compiler.

   Subcommands:
     tune-op     tune a single operator with a chosen system
     tune-model  tune and run an end-to-end model
     show-op     print the lowered program for an operator + layout preset

   Examples:
     dune exec bin/alt_cli.exe -- tune-op --op c2d --channels 32 --out-channels 64 \
         --spatial 28 --machine intel-cpu --system alt --budget 128
     dune exec bin/alt_cli.exe -- tune-model --model mv2 --system ansor
     dune exec bin/alt_cli.exe -- show-op --op gmm --spatial 64 --layout blocked *)

open Alt
open Cmdliner

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info)

(* ------------------------------------------------------------------ *)
(* Common arguments                                                   *)
(* ------------------------------------------------------------------ *)

let machine_arg =
  let machines = List.map (fun m -> (m.Machine.name, m)) Machine.all in
  Arg.(
    value
    & opt (enum machines) Machine.intel_cpu
    & info [ "machine" ] ~docv:"NAME"
        ~doc:"Machine model: intel-cpu, nvidia-gpu or arm-cpu.")

let budget_arg =
  Arg.(
    value & opt int 128
    & info [ "budget" ] ~docv:"N" ~doc:"Measurement budget (simulated runs).")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains used for concurrent measurements (0 = all cores).  The \
           tuning result is identical for every value; only wall-clock time \
           changes.")

let resolve_jobs jobs = if jobs <= 0 then Pool.default_jobs () else jobs

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Probability in [0,1] that a measurement is hit by an injected \
           fault (crash, timeout, transient flake or persistent failure).  \
           Deterministic per candidate: the fault pattern is a pure \
           function of --fault-seed, independent of --jobs, retries and \
           resume.")

let fault_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Seed of the deterministic fault injector.")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra simulation attempts after a failed measurement before the \
           candidate is quarantined.")

let watchdog_arg =
  Arg.(
    value & opt (some int) None
    & info [ "watchdog" ] ~docv:"POINTS"
        ~doc:
          "Watchdog cap on a candidate's iteration points: candidates \
           above it report a timeout instead of simulating (off by \
           default).")

let checkpoint_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal the tuning state to $(docv) after every measurement \
           round (atomic write).")

let resume_arg =
  Arg.(
    value & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from the checkpoint at $(docv): replays the interrupted \
           trajectory from the warmed measurement cache, byte-identically, \
           then continues.  A missing file starts fresh, so the same path \
           can be passed to --checkpoint and --resume across restarts.")

let faults_of ~rate ~seed =
  if rate > 0.0 then Fault.create ~seed ~rate () else Fault.none

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured JSONL trace of the run (spans and per-round \
           tuner telemetry) to $(docv).  Off by default; the ALT_TRACE \
           environment variable is an equivalent knob.  Tracing is \
           trajectory-neutral: the tuning result is bit-identical with it \
           on or off.")

let metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable metrics collection and write the final registry snapshot \
           as JSON to $(docv) at exit.  Off by default; the ALT_METRICS \
           environment variable is an equivalent knob.  Collection is \
           trajectory-neutral.")

(* Install the observability sinks: explicit flags win, otherwise the
   ALT_TRACE / ALT_METRICS environment knobs apply. *)
let setup_obs ~trace ~metrics =
  (match trace with
  | Some path -> Trace.configure ~path
  | None -> Trace.configure_from_env ());
  match metrics with
  | Some path -> Metrics.set_output path
  | None -> Metrics.configure_from_env ()

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("exec", `Exec) ]) `Sim
    & info [ "backend" ] ~docv:"DEV"
        ~doc:
          "Measurement device: 'sim' (the cache simulator, default) or \
           'exec' (compile each candidate to macro-kernels and time real \
           execution with warmup/repeat/median discipline).")

let exec_warmup_arg =
  Arg.(
    value & opt int 2
    & info [ "exec-warmup" ] ~docv:"N"
        ~doc:"Untimed warmup runs per exec-backend measurement.")

let exec_repeats_arg =
  Arg.(
    value & opt int 5
    & info [ "exec-repeats" ] ~docv:"N"
        ~doc:
          "Timed runs per exec-backend measurement; the median is the \
           reported latency.")

let exec_domains_arg =
  Arg.(
    value & opt int 1
    & info [ "exec-domains" ] ~docv:"N"
        ~doc:
          "Domains each exec-backend kernel runs its leading parallel loops \
           across (0 = all cores; default 1 = serial, today's behavior).  \
           Outputs are bit-identical for every value; kernels whose \
           schedules cannot be proven write-disjoint fall back to serial \
           and are counted in exec.parallel.fallbacks.  Composes with \
           --jobs: each concurrently measured candidate uses the shared \
           domain team in turn.")

let backend_of sel ~warmup ~repeats ~domains =
  let domains = if domains <= 0 then Pool.default_jobs () else domains in
  match sel with
  | `Sim -> Runtime.Sim
  | `Exec -> Runtime.Exec { Exec.warmup; repeats; clock = Exec.Wall; domains }

let warm_start_arg =
  Arg.(
    value & flag
    & info [ "warm-start-model" ]
        ~doc:
          "Keep the GBDT cost model's trees across measurement batches and \
           boost a few new trees on the grown dataset instead of refitting \
           from scratch.  Faster fits, but the model (and therefore the \
           tuning trajectory) differs from a from-scratch fit, so this is \
           off by default.")

let op_kind_arg =
  Arg.(
    value & opt string "c2d"
    & info [ "op" ] ~docv:"KIND"
        ~doc:"Operator: c2d, grp, dep, dil, c1d, c3d, gmm, t2d.")

let batch_arg =
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc:"Batch size.")

let channels_arg =
  Arg.(
    value & opt int 16
    & info [ "channels" ] ~docv:"N" ~doc:"Input channels (or GMM K).")

let out_channels_arg =
  Arg.(
    value & opt int 32
    & info [ "out-channels" ] ~docv:"N" ~doc:"Output channels (or GMM N).")

let spatial_arg =
  Arg.(
    value & opt int 14
    & info [ "spatial" ] ~docv:"N" ~doc:"Spatial size (or GMM M).")

let kernel_arg =
  Arg.(value & opt int 3 & info [ "kernel" ] ~docv:"N" ~doc:"Kernel size.")

let stride_arg =
  Arg.(value & opt int 1 & info [ "stride" ] ~docv:"N" ~doc:"Stride.")

(* One definition of the CLI operator space: the serve workload spec is
   the wire-level twin of these flags, so the construction lives there. *)
let op_spec_of kind ~batch ~channels ~out_channels ~spatial ~kernel ~stride =
  { Workload.kind; batch; channels; out_channels; spatial; kernel; stride }

let make_op kind ~batch ~channels ~out_channels ~spatial ~kernel ~stride =
  Workload.op_of_spec
    (op_spec_of kind ~batch ~channels ~out_channels ~spatial ~kernel ~stride)

(* ------------------------------------------------------------------ *)
(* tune-op                                                            *)
(* ------------------------------------------------------------------ *)

let system_arg =
  let all =
    [
      ("vendor", Tuner.Vendor); ("autotvm", Tuner.Autotvm_like);
      ("flextensor", Tuner.Flextensor_like); ("ansor", Tuner.Ansor_like);
      ("alt", Tuner.Alt); ("alt-ol", Tuner.Alt_ol);
    ]
  in
  Arg.(
    value
    & opt (enum all) Tuner.Alt
    & info [ "system" ] ~docv:"SYS"
        ~doc:"Tuner: vendor, autotvm, flextensor, ansor, alt, alt-ol.")

let tune_op_cmd =
  let run machine budget seed jobs kind batch channels out_channels spatial
      kernel stride system fault_rate fault_seed retries watchdog checkpoint
      resume backend_sel exec_warmup exec_repeats exec_domains warm_start trace
      metrics =
    setup_logs ();
    setup_obs ~trace ~metrics;
    let jobs = resolve_jobs jobs in
    let op =
      make_op kind ~batch ~channels ~out_channels ~spatial ~kernel ~stride
    in
    let faults = faults_of ~rate:fault_rate ~seed:fault_seed in
    let backend =
      backend_of backend_sel ~warmup:exec_warmup ~repeats:exec_repeats
        ~domains:exec_domains
    in
    let task =
      Measure.make_task ~machine ~faults ~retries ?watchdog_points:watchdog
        ~backend op
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Tuner.tune_op ~seed ~pool:(Pool.create ~jobs ()) ~warm_start ?checkpoint
        ?resume ~system ~budget task
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    (* the summary below prints from the metrics registry: the task's
       stats structs are published once (unconditionally), so the output
       is byte-identical to the struct-printing code it replaced, with or
       without --metrics *)
    Measure.publish_obs task;
    let c name = Metrics.counter_value (Metrics.counter name) in
    let g name =
      match Metrics.gauge_value (Metrics.gauge name) with
      | Some v -> v
      | None -> 0.0
    in
    Fmt.pr "system      : %s@." (Tuner.system_name system);
    (match backend with
    | Runtime.Sim -> ()
    | Runtime.Exec cfg ->
        (* the serial line is byte-identical to before the knob existed *)
        if cfg.Exec.domains = 1 then
          Fmt.pr "backend     : %s (wall-clock, serial device)@."
            (Runtime.backend_tag backend)
        else
          Fmt.pr "backend     : %s (wall-clock, %d domains)@."
            (Runtime.backend_tag backend) cfg.Exec.domains);
    Fmt.pr "machine     : %a@." Machine.pp machine;
    Fmt.pr "jobs        : %d (%.2fs wall; cache %d hits / %d misses)@." jobs
      elapsed
      (c "measure.cache.hits")
      (c "measure.cache.misses");
    Fmt.pr
      "search cache: lowering %d hits / %d misses, features %d hits / %d \
       misses@."
      (c "measure.lower.prog_hits")
      (c "measure.lower.prog_misses")
      (c "measure.lower.feat_hits")
      (c "measure.lower.feat_misses");
    (if Fault.active faults || watchdog <> None then
       Fmt.pr
         "faults      : %d faulted, %d retries (%.0f ms backoff), %d \
          recovered, %d quarantined@."
         (c "measure.faults.faulted")
         (c "measure.faults.retried")
         (g "measure.faults.backoff_ms")
         (c "measure.faults.recovered")
         (c "measure.faults.quarantined"));
    Fmt.pr "best latency: %.5f ms (after %d measurements)@." r.Tuner.best_latency
      r.Tuner.spent;
    Fmt.pr "out layout  : %a@." Layout.pp r.Tuner.best_choice.Propagate.out_layout;
    List.iter
      (fun (n, l) -> Fmt.pr "%-4s layout : %a@." n Layout.pp l)
      r.Tuner.best_choice.Propagate.in_layouts;
    Fmt.pr "schedule    : %a@." Schedule.pp r.Tuner.best_schedule;
    (* a tuning run must end with a usable result even under injected
       faults: a finite best latency and a best candidate that lowers *)
    if not (Float.is_finite r.Tuner.best_latency) then begin
      Fmt.epr "error: no finite-latency candidate was measured@.";
      exit 1
    end;
    match Measure.program_of task r.Tuner.best_choice r.Tuner.best_schedule with
    | Some _ -> ()
    | None ->
        Fmt.epr "error: best schedule does not lower@.";
        exit 1
  in
  Cmd.v (Cmd.info "tune-op" ~doc:"Tune a single operator.")
    Term.(
      const run $ machine_arg $ budget_arg $ seed_arg $ jobs_arg $ op_kind_arg
      $ batch_arg $ channels_arg $ out_channels_arg $ spatial_arg $ kernel_arg
      $ stride_arg $ system_arg $ fault_rate_arg $ fault_seed_arg
      $ retries_arg $ watchdog_arg $ checkpoint_arg $ resume_arg $ backend_arg
      $ exec_warmup_arg $ exec_repeats_arg $ exec_domains_arg $ warm_start_arg
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* tune-model                                                         *)
(* ------------------------------------------------------------------ *)

let model_arg =
  Arg.(
    value & opt string "r18"
    & info [ "model" ] ~docv:"NAME" ~doc:"Model: r18, mv2, bb, bt, r3d.")

let gsystem_arg =
  let all =
    [
      ("vendor", Graph_tuner.Gvendor); ("autotvm", Graph_tuner.Gautotvm);
      ("ansor", Graph_tuner.Gansor); ("alt", Graph_tuner.Galt);
      ("alt-ol", Graph_tuner.Galt_ol); ("alt-wp", Graph_tuner.Galt_wp);
    ]
  in
  Arg.(
    value
    & opt (enum all) Graph_tuner.Galt
    & info [ "system" ] ~docv:"SYS"
        ~doc:"System: vendor, autotvm, ansor, alt, alt-ol, alt-wp.")

let zoo_spec model ~batch =
  match model with
  | "r18" -> Zoo.resnet18 ~batch ()
  | "mv2" -> Zoo.mobilenet_v2 ~batch ()
  | "bb" -> Zoo.bert_base ~batch ()
  | "bt" -> Zoo.bert_tiny ~batch ()
  | "r3d" -> Zoo.resnet3d_18 ~batch ()
  | m -> Fmt.failwith "unknown model %S" m

let policy_enum =
  [
    ("gradient", Scheduler.Gradient); ("roundrobin", Scheduler.Roundrobin);
    ("static", Scheduler.Static);
  ]

let scheduler_arg =
  Arg.(
    value
    & opt (some (enum policy_enum)) None
    & info [ "scheduler" ] ~docv:"POLICY"
        ~doc:
          "Trial allocation policy: gradient (expected-gain with \
           ε-round-robin heartbeat), roundrobin, or static (the fixed \
           per-task split).  tune-model defaults to static, schedule \
           to gradient.")

let tune_model_cmd =
  let run machine budget seed jobs model batch system policy fault_rate
      fault_seed retries backend_sel exec_warmup exec_repeats exec_domains
      warm_start trace metrics =
    setup_logs ();
    setup_obs ~trace ~metrics;
    let jobs = resolve_jobs jobs in
    let faults = faults_of ~rate:fault_rate ~seed:fault_seed in
    let backend =
      backend_of backend_sel ~warmup:exec_warmup ~repeats:exec_repeats
        ~domains:exec_domains
    in
    let spec = zoo_spec model ~batch in
    Fmt.pr "tuning %s with %s on %a (budget %d)...@." spec.Zoo.name
      (Graph_tuner.gsystem_name system)
      Machine.pp machine budget;
    let tg =
      Graph_tuner.tune_graph ~seed ~jobs ~faults ~retries ~backend ~warm_start
        ?policy ~system ~machine ~budget spec.Zoo.graph
    in
    let r = Graph_tuner.run tg ~machine in
    Fmt.pr "end-to-end latency: %.4f ms@." r.Compile.latency_ms;
    Fmt.pr "unique tuning tasks: %d, measurements: %d@."
      tg.Graph_tuner.tasks_tuned tg.Graph_tuner.measurements;
    Fmt.pr "plan: %d conversions, %d fused elementwise ops@."
      tg.Graph_tuner.compiled.Compile.plan.Propagate.conversions
      tg.Graph_tuner.compiled.Compile.plan.Propagate.fused_ops
  in
  Cmd.v (Cmd.info "tune-model" ~doc:"Tune and run an end-to-end model.")
    Term.(
      const run $ machine_arg $ budget_arg $ seed_arg $ jobs_arg $ model_arg
      $ batch_arg $ gsystem_arg $ scheduler_arg $ fault_rate_arg
      $ fault_seed_arg $ retries_arg $ backend_arg
      $ exec_warmup_arg $ exec_repeats_arg $ exec_domains_arg
      $ warm_start_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* schedule                                                           *)
(* ------------------------------------------------------------------ *)

let models_arg =
  Arg.(
    value
    & opt string "r18,mv2,bt,r3d"
    & info [ "models" ] ~docv:"LIST"
        ~doc:
          "Comma-separated zoo to tune under one global budget \
           (r18, mv2, bb, bt, r3d).")

let transfer_arg =
  Arg.(
    value
    & opt (some bool) None
    & info [ "transfer" ] ~docv:"BOOL"
        ~doc:
          "Cross-task cost-model transfer: warm-start a task's first GBDT \
           fit from the latest ensemble of a similar task.  Defaults to \
           true under the gradient policy, false otherwise.")

let schedule_cmd =
  let run machine budget seed jobs models batch system policy transfer
      fault_rate fault_seed retries warm_start trace metrics =
    setup_logs ();
    setup_obs ~trace ~metrics;
    let jobs = resolve_jobs jobs in
    let faults = faults_of ~rate:fault_rate ~seed:fault_seed in
    let policy = Option.value policy ~default:Scheduler.Gradient in
    let specs =
      String.split_on_char ',' models
      |> List.filter (fun s -> s <> "")
      |> List.map (fun m -> zoo_spec (String.trim m) ~batch)
    in
    let graphs = List.map (fun s -> (s.Zoo.name, s.Zoo.graph)) specs in
    Fmt.pr "scheduling %d models (%s) with %s/%s on %a, global budget %d...@."
      (List.length graphs)
      (String.concat ", " (List.map fst graphs))
      (Graph_tuner.gsystem_name system)
      (Scheduler.policy_name policy)
      Machine.pp machine budget;
    let report, tuned =
      Graph_tuner.tune_models ~seed ~jobs ~faults ~retries ~warm_start
        ?transfer ~policy ~system ~machine ~budget graphs
    in
    Fmt.pr
      "tasks: %d unique (share %d), %d/%d trials in %d picks (%d \
       ε-round-robin)@."
      (List.length report.Scheduler.tasks)
      report.Scheduler.share report.Scheduler.spent report.Scheduler.budget
      report.Scheduler.picks report.Scheduler.eps_picks;
    if report.Scheduler.transfer then
      Fmt.pr "transfer: %d of %d tasks warm-started from a donor model@."
        (List.length
           (List.filter
              (fun (t : Scheduler.task_report) -> t.Scheduler.transferred)
              report.Scheduler.tasks))
        (List.length report.Scheduler.tasks);
    List.iter
      (fun (name, tg) ->
        let r = Graph_tuner.run tg ~machine in
        let curve =
          Option.value ~default:[]
            (List.assoc_opt name report.Scheduler.curves)
        in
        Fmt.pr
          "%-24s end-to-end %.4f ms  (%d tasks, %d trials, %d curve \
           points)@."
          name r.Compile.latency_ms tg.Graph_tuner.tasks_tuned
          tg.Graph_tuner.measurements (List.length curve))
      tuned
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:
         "Tune a whole model zoo under one global trial budget with the \
          gradient task scheduler.")
    Term.(
      const run $ machine_arg $ budget_arg $ seed_arg $ jobs_arg $ models_arg
      $ batch_arg $ gsystem_arg $ scheduler_arg $ transfer_arg
      $ fault_rate_arg $ fault_seed_arg $ retries_arg $ warm_start_arg
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* show-op                                                            *)
(* ------------------------------------------------------------------ *)

let layout_preset_arg =
  Arg.(
    value & opt string "alt"
    & info [ "layout" ] ~docv:"PRESET"
        ~doc:"Layout preset: default, channels-last, blocked, alt.")

let show_op_cmd =
  let run machine kind batch channels out_channels spatial kernel stride preset =
    setup_logs ();
    let op =
      make_op kind ~batch ~channels ~out_channels ~spatial ~kernel ~stride
    in
    let choice =
      match preset with
      | "default" -> Templates.trivial_choice op
      | "channels-last" -> Templates.channels_last_choice op
      | "blocked" -> Templates.blocked_choice op ~block:(2 * machine.Machine.lanes)
      | "alt" -> (
          match Templates.for_op op with
          | Some tpl ->
              tpl.Templates.decode
                (Array.make (Array.length tpl.Templates.knobs) 0.4)
          | None -> Templates.trivial_choice op)
      | p -> Fmt.failwith "unknown preset %S" p
    in
    let task = Measure.make_task ~machine op in
    let rank = Shape.rank (Layout.physical_shape choice.Propagate.out_layout) in
    let sched =
      Schedule.vectorize
        (Schedule.default ~rank ~nred:(List.length op.Opdef.reduce))
    in
    match Measure.program_of task choice sched with
    | None -> Fmt.epr "this layout/schedule combination does not lower@."
    | Some prog ->
        Fmt.pr "%a@." Program.pp prog;
        (match Measure.measure task choice sched with
        | Measure.Ok r -> Fmt.pr "profile: %a@." Profiler.pp_result r
        | o -> Fmt.pr "profile: %a@." Measure.pp_outcome o)
  in
  Cmd.v (Cmd.info "show-op" ~doc:"Print the lowered program for an operator.")
    Term.(
      const run $ machine_arg $ op_kind_arg $ batch_arg $ channels_arg
      $ out_channels_arg $ spatial_arg $ kernel_arg $ stride_arg
      $ layout_preset_arg)

(* ------------------------------------------------------------------ *)
(* obs-validate                                                       *)
(* ------------------------------------------------------------------ *)

(* Validate observability artifacts: trace files must parse line by line
   and satisfy the sink invariants (seq 0,1,2,..., monotone timestamps,
   well-nested spans); metrics files must parse as JSON with the
   versioned {"version":1,"metrics":[...]} shape. *)

let validate_metrics_file path : (int, string) result =
  let ic = open_in path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse content with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> (
      match Option.bind (Json.member "version" j) Json.to_int_opt with
      | Some 1 -> (
          match Option.bind (Json.member "metrics" j) Json.to_list_opt with
          | Some ms ->
              let bad =
                List.filter
                  (fun m ->
                    Option.bind (Json.member "name" m) Json.to_string_opt
                      = None
                    || Option.bind (Json.member "kind" m) Json.to_string_opt
                       = None)
                  ms
              in
              if bad = [] then Ok (List.length ms)
              else Error "metric entries missing \"name\"/\"kind\" fields"
          | None -> Error "missing \"metrics\" array")
      | Some v -> Error (Printf.sprintf "unsupported version %d" v)
      | None -> Error "missing \"version\" field")

let obs_validate_cmd =
  let trace_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"JSONL trace file to validate.")
  in
  let metrics_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:"Metrics JSON file to validate.")
  in
  let run trace metrics =
    if trace = None && metrics = None then begin
      Fmt.epr "obs-validate: pass --trace and/or --metrics@.";
      exit 2
    end;
    let ok = ref true in
    (match trace with
    | None -> ()
    | Some path -> (
        match Tracecheck.parse_file path with
        | Error msg ->
            ok := false;
            Fmt.epr "trace %s: %s@." path msg
        | Ok records -> (
            match Tracecheck.validate records with
            | Error msg ->
                ok := false;
                Fmt.epr "trace %s: %s@." path msg
            | Ok () ->
                Fmt.pr "trace %s: OK (%d records)@." path
                  (List.length records))));
    (match metrics with
    | None -> ()
    | Some path -> (
        match validate_metrics_file path with
        | Error msg ->
            ok := false;
            Fmt.epr "metrics %s: %s@." path msg
        | Ok n -> Fmt.pr "metrics %s: OK (%d metrics)@." path n));
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "obs-validate"
       ~doc:"Validate trace (JSONL) and metrics (JSON) files.")
    Term.(const run $ trace_file_arg $ metrics_file_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve any number of concurrent clients over a Unix-domain \
           socket at $(docv).  Without it the daemon speaks the same \
           framed protocol over stdin/stdout (pipe mode) — one client, \
           deterministic, used by tests and scripts.")

let journal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Session journal directory: every admitted request and its \
           per-round checkpoint live here, and a restarted daemon \
           recovers interrupted sessions from it byte-identically.  \
           Without it sessions are neither durable nor resumable.")

let max_active_arg =
  Arg.(
    value & opt int 4
    & info [ "max-active" ] ~docv:"N"
        ~doc:"Tuning sessions interleaved concurrently.")

let max_queue_arg =
  Arg.(
    value & opt int 8
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admitted-but-waiting sessions; beyond it requests are shed \
           with a structured rejection and a retry-after hint.")

let shards_arg =
  Arg.(
    value & opt int 16
    & info [ "shards" ] ~docv:"N"
        ~doc:"Shards of the cross-session measurement store.")

let deadline_rounds_arg =
  Arg.(
    value & opt (some int) None
    & info [ "deadline-rounds" ] ~docv:"N"
        ~doc:
          "Default per-request deadline in measurement rounds; on expiry \
           the session is parked resumable at its last checkpoint and \
           the request answered with status 'deadline'.")

let kill_after_arg =
  Arg.(
    value & opt (some int) None
    & info [ "kill-after-rounds" ] ~docv:"N"
        ~doc:
          "Crash-injection hook for recovery tests: exit with code 42 \
           after $(docv) scheduler rounds, without draining or cleaning \
           journals.")

let serve_cmd =
  let run socket journal jobs max_active max_queue shards deadline_rounds
      kill_after trace metrics =
    setup_logs ();
    setup_obs ~trace ~metrics;
    let jobs = resolve_jobs jobs in
    let cfg =
      Serve.default_config ~jobs ~max_active ~max_queue ~shards
        ?journal_dir:journal ?default_deadline_rounds:deadline_rounds ()
    in
    let engine = Serve.create cfg in
    let recovered = Serve.recover engine in
    if recovered > 0 then
      Fmt.epr "alt serve: recovered %d interrupted session(s)@." recovered;
    match socket with
    | Some path -> Daemon.run_socket ?kill_after_rounds:kill_after ~path engine
    | None -> Daemon.run_pipe ?kill_after_rounds:kill_after engine
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tuning service: concurrent sessions, admission control \
          with load shedding, deadlines, crash-safe recovery.")
    Term.(
      const run $ socket_arg $ journal_arg $ jobs_arg $ max_active_arg
      $ max_queue_arg $ shards_arg $ deadline_rounds_arg $ kill_after_arg
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* request                                                            *)
(* ------------------------------------------------------------------ *)

let req_kind_arg =
  Arg.(
    value
    & opt (enum [ ("tune", `Tune); ("compile", `Compile); ("stats", `Stats);
                  ("shutdown", `Shutdown) ]) `Tune
    & info [ "req" ] ~docv:"KIND"
        ~doc:"Request kind: tune, compile, stats or shutdown.")

let req_id_arg =
  Arg.(
    value & opt string "r0"
    & info [ "id" ] ~docv:"ID"
        ~doc:"Request id echoed in the response (route your replies).")

let emit_arg =
  Arg.(
    value & flag
    & info [ "emit" ]
        ~doc:
          "Print the framed request to stdout instead of sending it — \
           concatenate emitted frames into a file to drive a pipe-mode \
           daemon.")

let request_cmd =
  let run kind id machine budget seed fault_rate fault_seed retries watchdog
      op_kind batch channels out_channels spatial kernel stride system preset
      deadline socket emit =
    setup_logs ();
    let op =
      op_spec_of op_kind ~batch ~channels ~out_channels ~spatial ~kernel
        ~stride
    in
    let req =
      match kind with
      | `Tune ->
          let spec =
            {
              Workload.default_tune_spec with
              Workload.op;
              machine = machine.Machine.name;
              system = Tuner.system_name system;
              budget;
              seed;
              fault_rate;
              fault_seed;
              retries;
              watchdog_points = watchdog;
            }
          in
          Proto.Tune { id; spec; deadline_rounds = deadline }
      | `Compile ->
          Proto.Compile { id; op; machine = machine.Machine.name; preset }
      | `Stats -> Proto.Stats { id }
      | `Shutdown -> Proto.Shutdown { id }
    in
    if emit then print_string (Proto.frame_json (Proto.request_to_json req))
    else
      match socket with
      | None ->
          Fmt.epr "request: pass --socket PATH to send, or --emit to print@.";
          exit 2
      | Some path -> (
          match Daemon.request ~path req with
          | Error msg ->
              Fmt.epr "request: %s@." msg;
              exit 1
          | Ok reply -> (
              Fmt.pr "%s@." (Json.to_string reply);
              match Option.bind (Json.member "status" reply) Json.to_string_opt
              with
              | Some "ok" -> ()
              | _ -> exit 1))
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Build one service request; send it to a daemon (--socket) or \
          print the wire frame (--emit).")
    Term.(
      const run $ req_kind_arg $ req_id_arg $ machine_arg $ budget_arg
      $ seed_arg $ fault_rate_arg $ fault_seed_arg $ retries_arg
      $ watchdog_arg $ op_kind_arg $ batch_arg $ channels_arg
      $ out_channels_arg $ spatial_arg $ kernel_arg $ stride_arg $ system_arg
      $ layout_preset_arg $ deadline_rounds_arg $ socket_arg $ emit_arg)

let () =
  let info =
    Cmd.info "alt" ~version:Alt.version
      ~doc:"ALT: joint data layout and loop auto-tuning (EuroSys'23 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            tune_op_cmd; tune_model_cmd; schedule_cmd; show_op_cmd;
            obs_validate_cmd; serve_cmd; request_cmd;
          ]))
