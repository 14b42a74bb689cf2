(* Profiler micro-benchmark: throughput of Profiler.run with the
   line-granular fast engine vs the scalar interpreter, on the workload
   shapes the paper tunes (conv2d / matmul / depthwise), at tuned-style
   layout+schedule configurations (channels-last, long contiguous
   innermost loops — the structure ALT's own search converges to).

   For every workload the two engines are also compared counter-by-counter
   (the differential oracle); any mismatch aborts the benchmark.  Results
   go to BENCH_profiler.json so the perf trajectory is tracked across PRs.

   ALT_BENCH_SCALE=smoke|quick|full controls sizes and repetitions;
   ALT_FAST_SIM=0 force-disables the fast engine (the reported speedup
   then degenerates to ~1, making the knob's effect visible). *)

open Alt

let scale =
  match Sys.getenv_opt "ALT_BENCH_SCALE" with
  | Some "smoke" -> `Smoke
  | Some "full" -> `Full
  | Some "quick" | None -> `Quick
  | Some s -> Fmt.failwith "unknown ALT_BENCH_SCALE %S" s

let scale_name =
  match scale with `Smoke -> "smoke" | `Quick -> "quick" | `Full -> "full"

let pick ~smoke ~quick ~full =
  match scale with `Smoke -> smoke | `Quick -> quick | `Full -> full

type workload = {
  wname : string;
  op : Opdef.t;
  choice : Propagate.choice;
  schedule : Schedule.t;
}

(* Tuned-style schedule: a large tile on the innermost physical dimension,
   reductions hoisted outside the inner band (register blocking), inner
   band vectorized — the shape ALT's joint search converges to and the
   fast engine batches best. *)
let tuned_schedule ~rank ~nred ~tile =
  Schedule.default ~rank ~nred
  |> (fun s -> Schedule.split s ~dim:(rank - 1) ~inner:tile)
  |> (fun s -> Schedule.reorder_reduce_outer s true)
  |> Schedule.vectorize

let conv2d ~i ~o ~hw =
  let op =
    Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i ~o ~h:hw ~w:hw
      ~kh:3 ~kw:3 ()
  in
  {
    wname = Fmt.str "conv2d_%dx%dx%d" i o hw;
    op;
    choice = Templates.channels_last_choice op;
    schedule = tuned_schedule ~rank:4 ~nred:3 ~tile:(min o 32);
  }

let matmul ~m ~k ~n =
  let op = Ops.gmm ~name:"matmul" ~a:"A" ~b:"B" ~out:"Y" ~m ~k ~n () in
  {
    wname = Fmt.str "matmul_%dx%dx%d" m k n;
    op;
    choice = Templates.trivial_choice op;
    schedule = tuned_schedule ~rank:2 ~nred:1 ~tile:(min n 64);
  }

let depthwise ~c ~hw =
  let op =
    Ops.dep ~name:"dw" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~c ~h:hw ~w:hw ~kh:3
      ~kw:3 ()
  in
  {
    wname = Fmt.str "depthwise_%dx%d" c hw;
    op;
    choice = Templates.trivial_choice op;
    schedule = tuned_schedule ~rank:4 ~nred:2 ~tile:(min hw 32);
  }

let workloads =
  pick
    ~smoke:
      [ conv2d ~i:8 ~o:16 ~hw:8; matmul ~m:16 ~k:32 ~n:32;
        depthwise ~c:8 ~hw:8 ]
    ~quick:
      [ conv2d ~i:32 ~o:32 ~hw:14; conv2d ~i:16 ~o:64 ~hw:28;
        matmul ~m:64 ~k:128 ~n:128; matmul ~m:128 ~k:64 ~n:256;
        depthwise ~c:32 ~hw:28 ]
    ~full:
      [ conv2d ~i:64 ~o:64 ~hw:28; conv2d ~i:32 ~o:128 ~hw:28;
        matmul ~m:128 ~k:256 ~n:256; matmul ~m:256 ~k:128 ~n:512;
        depthwise ~c:64 ~hw:56 ]

let min_time = pick ~smoke:0.02 ~quick:0.3 ~full:1.0

(* Time [f] for at least [min_time] seconds; returns runs/second. *)
let throughput f =
  f (); (* warm up *)
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    f ();
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int !reps /. !elapsed

let counters_of (r : Profiler.result) =
  [
    ("insts", r.Profiler.insts); ("loads", r.Profiler.loads);
    ("stores", r.Profiler.stores); ("flops", r.Profiler.flops);
    ("l1_accesses", r.Profiler.l1_accesses);
    ("l1_misses", r.Profiler.l1_misses); ("l2_misses", r.Profiler.l2_misses);
    ("scale", r.Profiler.scale);
  ]

(* Differential oracle: the two engines must agree counter-for-counter. *)
let assert_equal w (fast : Profiler.result) (scalar : Profiler.result) =
  List.iter2
    (fun (n, a) (_, b) ->
      if a <> b then
        Fmt.failwith "%s: fast/scalar diverge on %s: %h vs %h" w.wname n a b)
    (counters_of fast) (counters_of scalar);
  if fast.Profiler.sampled <> scalar.Profiler.sampled then
    Fmt.failwith "%s: sampled flag diverges" w.wname

let geomean = function
  | [] -> 1.0
  | xs ->
      Float.exp
        (List.fold_left (fun a x -> a +. Float.log x) 0.0 xs
        /. float_of_int (List.length xs))

type row = {
  rname : string;
  points : float;
  fast_rps : float;
  scalar_rps : float;
  fast_groups : int;
  scalar_groups : int;
}

let bench_workload machine (w : workload) : row =
  let task = Measure.make_task ~machine w.op in
  let prog =
    match Measure.program_of task w.choice w.schedule with
    | Some p -> p
    | None -> Fmt.failwith "%s: workload does not lower" w.wname
  in
  let bufs () = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
  (* correctness first: identical counters, and the fast engine must
     actually engage on the hot loop (non-vacuous speedup claim) *)
  let fast_on = Profiler.fast_sim_enabled () in
  let es = Profiler.fresh_engine_stats () in
  let rf =
    Profiler.run ~machine ~fast:fast_on ~engine:es prog ~bufs:(bufs ())
  in
  let rs = Profiler.run ~machine ~fast:false prog ~bufs:(bufs ()) in
  assert_equal w rf rs;
  if fast_on && es.Profiler.fast_groups = 0 then
    Fmt.failwith "%s: fast engine did not engage" w.wname;
  let b = bufs () in
  let fast_rps =
    throughput (fun () ->
        ignore
          (Profiler.run ~machine ~fast:fast_on prog ~bufs:b : Profiler.result))
  in
  let scalar_rps =
    throughput (fun () ->
        ignore
          (Profiler.run ~machine ~fast:false prog ~bufs:b : Profiler.result))
  in
  {
    rname = w.wname;
    points = Measure.program_points prog;
    fast_rps;
    scalar_rps;
    fast_groups = es.Profiler.fast_groups;
    scalar_groups = es.Profiler.scalar_groups;
  }

let json_of_rows machine rows =
  let b = Stdlib.Buffer.create 1024 in
  let add = Stdlib.Buffer.add_string b in
  add "{\n";
  add (Fmt.str "  \"scale\": %S,\n" scale_name);
  add (Fmt.str "  \"machine\": %S,\n" machine.Machine.name);
  add
    (Fmt.str "  \"fast_sim_enabled\": %b,\n" (Profiler.fast_sim_enabled ()));
  add "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      add
        (Fmt.str
           "    {\"name\": %S, \"points\": %.0f, \"fast_runs_per_s\": %.3f, \
            \"scalar_runs_per_s\": %.3f, \"fast_points_per_s\": %.0f, \
            \"scalar_points_per_s\": %.0f, \"speedup\": %.3f, \
            \"fast_groups\": %d, \"scalar_groups\": %d}%s\n"
           r.rname r.points r.fast_rps r.scalar_rps (r.fast_rps *. r.points)
           (r.scalar_rps *. r.points)
           (r.fast_rps /. r.scalar_rps)
           r.fast_groups r.scalar_groups
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  add "  ],\n";
  let speedups = List.map (fun r -> r.fast_rps /. r.scalar_rps) rows in
  let core =
    List.filter_map
      (fun r ->
        let is_core =
          String.length r.rname >= 4
          && (String.sub r.rname 0 4 = "conv" || String.sub r.rname 0 4 = "matm")
        in
        if is_core then Some (r.fast_rps /. r.scalar_rps) else None)
      rows
  in
  add (Fmt.str "  \"geomean_speedup\": %.3f,\n" (geomean speedups));
  add
    (Fmt.str "  \"geomean_speedup_conv_matmul\": %.3f\n" (geomean core));
  add "}\n";
  Stdlib.Buffer.contents b

let () =
  let machine = Machine.intel_cpu in
  Fmt.pr "profiler micro-benchmark (scale=%s, machine=%s, fast default=%b)@."
    scale_name machine.Machine.name
    (Profiler.fast_sim_enabled ());
  let rows = List.map (bench_workload machine) workloads in
  List.iter
    (fun r ->
      Fmt.pr
        "%-22s %10.0f pts  fast %8.1f runs/s  scalar %8.1f runs/s  %6.2fx@."
        r.rname r.points r.fast_rps r.scalar_rps
        (r.fast_rps /. r.scalar_rps))
    rows;
  let speedups = List.map (fun r -> r.fast_rps /. r.scalar_rps) rows in
  Fmt.pr "geomean speedup: %.2fx@." (geomean speedups);
  let json = json_of_rows machine rows in
  let path = Bench_util.bench_json "profiler" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." path
