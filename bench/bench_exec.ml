(* Domain-parallel exec benchmark: serial-vs-N-domain wall-clock curves
   for the compiled macro-kernel backend (DESIGN.md §15).

   For each workload the deterministic layout zoo is lowered under one
   fixed schedule whose leading loop is marked [Schedule.parallel], then
   every deduplicated program is measured at each domain count.  The
   JSON records the full wall matrix, per-domain geomean speedups, the
   parallel driver's chunk/fallback counters and the run imbalance, so
   silent serialization (a legality fallback where none is expected)
   fails the bench loudly instead of quietly flattening the curve.

   Gates:
   - fallbacks must be 0 on every workload at every scale — these
     schedules are disjoint by construction, so a fallback is a driver
     regression, not a property of the machine;
   - outputs at [domains = 1] and at the maximum domain count must be
     bit-identical (spot-checked here; the QCheck2 differential suite in
     test_exec.ml is the real proof);
   - at quick/full on a box with >= 4 cores, the macro-bound subset
     (gmm + conv) must clear a 1.5x geomean speedup at 4 domains.  On
     smaller boxes the gate is recorded as skipped — wall-clock speedup
     needs physical cores the container may not have;
   - the exec<->sim rank agreement on the streaming workload must still
     clear the 0.5 Spearman floor under parallel measurement (same
     noise gate as BENCH_crossval.json).

   ALT_BENCH_SCALE=smoke|quick|full controls problem sizes and the
   repeat discipline. *)

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

let domain_counts = [| 1; 2; 4 |]
let max_domains = domain_counts.(Array.length domain_counts - 1)
let cores = Domain.recommended_domain_count ()

(* The rank re-check measures at the parallelism the box can actually
   deliver: oversubscribed domains on a small box add scheduling jitter
   that swamps the layout signal the comparison is about. *)
let rank_di =
  let idx = ref 0 in
  Array.iteri (fun i d -> if d <= cores then idx := i) domain_counts;
  !idx

let rank_domains = domain_counts.(rank_di)

(* Layout zoo under one fixed scalar schedule with the leading [npar]
   loops parallel: candidates differ only in memory layout, so the
   speedup curve and the rank comparison are not confounded by loop
   structure. *)
let candidates op ~nred ~npar =
  let rank = Shape.rank op.Opdef.out_shape in
  let sched =
    Schedule.no_vectorize
      (Schedule.parallel (Schedule.default ~rank ~nred) npar)
  in
  List.map (fun choice -> (choice, sched)) (Templates.layout_zoo op)

let dedup_programs task cands =
  cands
  |> List.filter_map (fun (c, s) -> Measure.program_of task c s)
  |> List.fold_left
       (fun (seen, acc) p ->
         let key = Measure.program_key p in
         if List.mem key seen then (seen, acc) else (key :: seen, p :: acc))
       ([], [])
  |> snd |> List.rev

let geomean a =
  if Array.length a = 0 then 1.0
  else
    exp (Array.fold_left (fun s x -> s +. log x) 0.0 a
         /. float_of_int (Array.length a))

let bufs_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : float array) y -> x = y) a b

type row = {
  rname : string;
  n : int;
  macro : bool;  (** counts toward the macro-bound speedup gate *)
  walls : float array array;  (** walls.(di).(prog) median ms *)
  speedups : float array;  (** geomean wall(1)/wall(d) per domain index *)
  fallbacks : int;  (** summed over programs at [max_domains] *)
  chunks : int;  (** summed over programs at [max_domains] *)
  imbalance : float;  (** mean imbalance_pct at [max_domains] *)
  noise : float;  (** re-measurement jitter at [max_domains] *)
  rho : float option;  (** exec<->sim Spearman (streaming workload) *)
}

let bench ~name ~op ~max_points ~nred ~npar ~macro ~with_sim ~repeats =
  let machine = Machine.intel_cpu in
  let task = Measure.make_task ~max_points ~machine op in
  let progs = Array.of_list (dedup_programs task (candidates op ~nred ~npar)) in
  let n = Array.length progs in
  if n = 0 then Fmt.failwith "exec bench %s: empty candidate set" name;
  let cfg d = { Exec.warmup = 1; repeats; clock = Exec.Wall; domains = d } in
  let measure_at d p =
    let bufs = Runtime.alloc_bufs p ~inputs:task.Measure.feeds in
    let w = Exec.measure ~cfg:(cfg d) p ~bufs in
    (w, bufs)
  in
  (* noise estimate: re-measure the first candidate at the domain count
     the row's gate reads (rank check vs speedup curve) *)
  let noise_d = if with_sim then rank_domains else max_domains in
  let noise =
    let a = (fst (measure_at noise_d progs.(0))).Exec.median_ms in
    let b = (fst (measure_at noise_d progs.(0))).Exec.median_ms in
    Float.abs (a -. b) /. Float.max 1e-9 (Float.min a b)
  in
  let walls = Array.map (fun _ -> Array.make n 0.0) domain_counts in
  let fallbacks = ref 0 and chunks = ref 0 and imb = ref 0.0 in
  Array.iteri
    (fun pi p ->
      let serial_bufs = ref [||] in
      Array.iteri
        (fun di d ->
          let w, bufs = measure_at d p in
          walls.(di).(pi) <- w.Exec.median_ms;
          if d = 1 then serial_bufs := bufs
          else if d = max_domains then begin
            if not (bufs_equal !serial_bufs bufs) then
              Fmt.failwith
                "exec bench %s[%d]: outputs differ between 1 and %d domains"
                name pi d;
            fallbacks := !fallbacks + w.Exec.par_fallbacks;
            chunks := !chunks + w.Exec.par_chunks;
            imb := !imb +. w.Exec.imbalance_pct
          end)
        domain_counts)
    progs;
  let speedups =
    Array.map
      (fun di ->
        geomean (Array.init n (fun pi -> walls.(0).(pi) /. walls.(di).(pi))))
      (Array.init (Array.length domain_counts) Fun.id)
  in
  let rho =
    if not with_sim then None
    else begin
      let sims =
        Array.map
          (fun p ->
            let bufs = Runtime.alloc_bufs p ~inputs:task.Measure.feeds in
            let r = Profiler.run ~machine ~max_points ~fast:true p ~bufs in
            if r.Profiler.sampled then
              Fmt.epr
                "  WARNING %s: sim sampled (scale %.1f) — raise max_points@."
                name r.Profiler.scale;
            r.Profiler.latency_ms)
          progs
      in
      Some (Rankcorr.spearman sims walls.(rank_di))
    end
  in
  Array.iteri
    (fun di d ->
      Fmt.epr "  %s d=%d:%s  (geomean speedup %.2fx)@." name d
        (String.concat ""
           (Array.to_list (Array.map (Fmt.str " %8.4f") walls.(di))))
        speedups.(di))
    domain_counts;
  Fmt.epr "%s: n=%d fallbacks=%d chunks=%d imbalance=%.1f%% noise=%.3f%s@."
    name n !fallbacks !chunks
    (!imb /. float_of_int n)
    noise
    (match rho with Some r -> Fmt.str " rho=%.3f" r | None -> "");
  { rname = name; n; macro; walls; speedups; fallbacks = !fallbacks;
    chunks = !chunks; imbalance = !imb /. float_of_int n; noise; rho }

let json_of rows ~macro_speedup ~speedup_gate ~rank_gate =
  let b = Stdlib.Buffer.create 4096 in
  let add fmt = Fmt.kstr (Stdlib.Buffer.add_string b) fmt in
  let farr a =
    String.concat ", "
      (Array.to_list (Array.map (fun x -> Fmt.str "%.6f" x) a))
  in
  add "{\n  \"bench\": \"exec\",\n  \"scale\": %S,\n  \"cores\": %d,\n"
    scale_name cores;
  add "  \"domains\": [%s],\n"
    (String.concat ", "
       (Array.to_list (Array.map string_of_int domain_counts)));
  add "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      add "    {\"name\": %S, \"n\": %d, \"macro\": %b,\n" r.rname r.n r.macro;
      Array.iteri
        (fun di d -> add "     \"wall_ms_d%d\": [%s],\n" d (farr r.walls.(di)))
        domain_counts;
      add "     \"speedup_geomean\": [%s],\n" (farr r.speedups);
      add
        "     \"fallbacks\": %d, \"chunks\": %d, \"imbalance_pct\": %.2f, \
         \"noise\": %.4f%s}%s\n"
        r.fallbacks r.chunks r.imbalance r.noise
        (match r.rho with
        | Some rho ->
            Fmt.str ", \"spearman\": %.4f, \"spearman_at_domains\": %d" rho
              rank_domains
        | None -> "")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ],\n";
  add "  \"macro_speedup_at_%d_domains\": %.4f,\n" max_domains macro_speedup;
  add "  \"speedup_gate\": %S,\n" speedup_gate;
  add "  \"rank_gate\": %S\n}\n" rank_gate;
  Stdlib.Buffer.contents b

let () =
  let repeats = pick ~smoke:3 ~quick:5 ~full:9 in
  (* streaming workload: also carries the exec<->sim rank re-check *)
  let side = pick ~smoke:512 ~quick:768 ~full:1536 in
  let stream =
    (* a transient load spike can flatten the wall signal while the
       noise probe lands in a quiet window — re-measure a failed rank
       verdict before letting the gate judge *)
    let rec go tries =
      let r =
        bench
          ~name:(Fmt.str "relu_%dx%d" side side)
          ~op:(Ops.relu ~name:"r" ~inp:"X" ~out:"Y" ~shape:[| side; side |] ())
          ~max_points:(8 * side * side) ~nred:0 ~npar:1 ~macro:false
          ~with_sim:true ~repeats
      in
      match r.rho with
      | Some rho when rho <= 0.5 && r.noise <= 0.3 && tries > 1 ->
          Fmt.epr "exec bench %s: rho %.3f below floor — remeasuring@."
            r.rname rho;
          go (tries - 1)
      | _ -> r
    in
    go 3
  in
  (* macro-bound workloads: the 4-domain speedup gate runs over these *)
  let dim = pick ~smoke:48 ~quick:96 ~full:160 in
  let gmm =
    bench
      ~name:(Fmt.str "gmm_%d" dim)
      ~op:(Ops.gmm ~name:"g" ~a:"A" ~b:"B" ~out:"Y" ~m:dim ~k:dim ~n:dim ())
      ~max_points:(8 * dim * dim * dim) ~nred:1 ~npar:1 ~macro:true
      ~with_sim:false ~repeats
  in
  let hw = pick ~smoke:8 ~quick:16 ~full:24 in
  let ch = pick ~smoke:16 ~quick:32 ~full:48 in
  let conv =
    bench
      ~name:(Fmt.str "conv_%dx%d" ch hw)
      ~op:
        (Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:ch ~o:ch
           ~h:hw ~w:hw ~kh:3 ~kw:3 ())
      ~max_points:(16 * ch * ch * hw * hw * 9)
      ~nred:3 ~npar:2 ~macro:true ~with_sim:false ~repeats
  in
  let rows = [ stream; gmm; conv ] in
  (* gate 1: silent serialization.  Every schedule here is disjoint by
     construction, so any fallback is a legality-check regression. *)
  List.iter
    (fun r ->
      if r.fallbacks > 0 then
        Fmt.failwith
          "exec bench %s: %d parallel fallback(s) — silent serialization"
          r.rname r.fallbacks;
      if r.chunks = 0 then
        Fmt.failwith "exec bench %s: parallel driver never engaged" r.rname)
    rows;
  (* gate 2: macro-bound speedup at the maximum domain count *)
  let macro_rows = List.filter (fun r -> r.macro) rows in
  let macro_speedup =
    geomean
      (Array.of_list
         (List.map (fun r -> r.speedups.(Array.length r.speedups - 1))
            macro_rows))
  in
  let speedup_gate =
    if scale = `Smoke then
      Fmt.str "skipped: smoke scale (measured %.2fx)" macro_speedup
    else if cores < max_domains then
      Fmt.str "skipped: %d core(s) < %d domains (measured %.2fx)" cores
        max_domains macro_speedup
    else if macro_speedup >= 1.5 then Fmt.str "passed: %.2fx" macro_speedup
    else Fmt.str "FAILED: %.2fx < 1.5x" macro_speedup
  in
  (* gate 3: rank agreement under parallel measurement (streaming row) *)
  let rank_gate =
    match stream.rho with
    | None -> "skipped: no sim row"
    | Some rho ->
        (* wall-side non-vacuity guard (mirrors test_exec.ml): a flat
           wall spread means a cache-thrashing neighbor erased the
           layout signal — skip loudly rather than judge noise *)
        let wspread =
          let w = stream.walls.(rank_di) in
          Array.fold_left Float.max w.(0) w
          /. Float.max 1e-9 (Array.fold_left Float.min w.(0) w)
        in
        if stream.noise > 0.3 then
          Fmt.str "skipped: wall too noisy (%.3f, measured rho %.3f)"
            stream.noise rho
        else if rho > 0.5 then Fmt.str "passed: rho %.3f" rho
        else if wspread < 1.5 then
          Fmt.str
            "skipped: wall spread %.2fx too flat (contended box, measured \
             rho %.3f)"
            wspread rho
        else Fmt.str "FAILED: rho %.3f <= 0.5" rho
  in
  let json = json_of rows ~macro_speedup ~speedup_gate ~rank_gate in
  let path = Bench_util.bench_json "exec" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." path;
  Fmt.pr "%s" json;
  if String.length speedup_gate >= 6 && String.sub speedup_gate 0 6 = "FAILED"
  then
    Fmt.failwith "exec bench: macro speedup gate failed (%s)" speedup_gate;
  if String.length rank_gate >= 6 && String.sub rank_gate 0 6 = "FAILED" then
    Fmt.failwith "exec bench: rank gate failed (%s)" rank_gate;
  Fmt.epr "exec bench: speedup gate %s; rank gate %s@." speedup_gate rank_gate
