(* Search-side micro-benchmark: throughput of the tuner's learned-search
   machinery before and after the exact-greedy GBDT rewrite.

   Two levels:
   - micro: [Gbdt.fit_reference] (per-node re-sorting, the seed fitter) vs
     [Gbdt.fit] (presort once, partition down the tree), and per-sample
     [Gbdt.predict] vs [Gbdt.predict_batch] over the flattened trees, on
     feature vectors extracted from real lowered candidates of a conv2d
     tuning space.  The combined fit+rank speedup is the headline number.
   - e2e: one [Tuner.tune_alt] run with the lowering/feature memo cache
     off ("old") vs the default path ("new"), same seed and budget,
     comparing wall-clock.  Both runs use the production fitter, so the
     e2e speedup isolates the memo cache; the fitter speedup is the
     micro section's.

   Correctness oracles: predict_batch must agree bitwise with per-sample
   predict (any mismatch aborts), and the two fitters must produce
   bit-identical trees on tie-free continuous data (any mismatch aborts).
   Whether they also agree on the real (tie-containing) schedule features
   is reported as a diagnostic field, not asserted — split sets are
   tie-order-invariant but prefix-sum rounding within tied runs may
   differ, because real knob features are discrete and full of ties
   (see the tie caveat in gbdt.mli and DESIGN.md §10).

   Results go to BENCH_tuner.json so the perf trajectory is tracked
   across PRs.  ALT_BENCH_SCALE=smoke|quick|full controls sizes. *)

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

(* 256 training samples / 64-candidate ranking batch is the configuration
   the tuner actually runs at (PR acceptance measures quick scale). *)
let n_train = pick ~smoke:64 ~quick:256 ~full:1024
let n_cands = pick ~smoke:32 ~quick:64 ~full:256
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

(* Feature vectors from real lowered candidates: random points of a
   conv2d loop space at the channels-last layout, exactly what the tuner
   feeds the model. *)
let feature_matrix machine ~n =
  let op =
    Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16 ~o:32 ~h:14
      ~w:14 ~kh:3 ~kw:3 ()
  in
  let task = Measure.make_task ~machine op in
  let choice = Templates.channels_last_choice op in
  let space = Loopspace.of_layout op choice.Propagate.out_layout in
  let rng = Random.State.make [| 0xA17 |] in
  Array.init n (fun _ ->
      let rec draw () =
        let sched = Loopspace.decode space (Loopspace.random_point ~rng space) in
        match Measure.features_of task choice sched with
        | Some f -> f
        | None -> draw ()
      in
      draw ())

(* Deterministic pseudo-latencies with the right shape (log-scale targets,
   correlated with the features): enough for timing and for the
   fit/predict oracles; the e2e section below uses real measurements. *)
let targets xs =
  let d = Array.length xs.(0) in
  let rng = Random.State.make [| 0xBEEF |] in
  let w = Array.init d (fun _ -> Random.State.float rng 1.0 -. 0.5) in
  Array.map
    (fun x ->
      let s = ref 0.0 in
      Array.iteri (fun i v -> s := !s +. (w.(i) *. v)) x;
      Float.log (1.0 +. Float.abs !s))
    xs

type micro = {
  feature_dim : int;
  fit_ref_per_s : float;
  fit_new_per_s : float;
  rank_sample_cps : float; (* candidates/s, per-sample predict *)
  rank_batch_cps : float; (* candidates/s, predict_batch *)
  fitters_identical : bool; (* on real tied features: diagnostic only *)
}

(* Tie-free oracle: continuous random data has no tied feature values
   (probability 0), so here the two fitters are documented bit-identical
   — assert it, don't just report it. *)
let check_fitters_tiefree () =
  let rng = Random.State.make [| 0x71E; 0xF4EE |] in
  let n = n_train and d = 24 in
  let xs =
    Array.init n (fun _ -> Array.init d (fun _ -> Random.State.float rng 1.0))
  in
  let w = Array.init d (fun _ -> Random.State.float rng 1.0 -. 0.5) in
  let ys =
    Array.map
      (fun x ->
        let s = ref 0.0 in
        Array.iteri (fun i v -> s := !s +. (w.(i) *. v)) x;
        !s)
      xs
  in
  if not (Gbdt.equal (Gbdt.fit_reference xs ys) (Gbdt.fit xs ys)) then
    Fmt.failwith
      "exact-greedy fitter diverges from the reference on tie-free data"

let run_micro machine : micro =
  check_fitters_tiefree ();
  let all = feature_matrix machine ~n:(n_train + n_cands) in
  let xs = Array.sub all 0 n_train in
  let cands = Array.sub all n_train n_cands in
  let ys = targets xs in
  let m_ref = Gbdt.fit_reference xs ys in
  let m_new = Gbdt.fit xs ys in
  (* oracle: batch prediction is bitwise the per-sample fold *)
  let per_sample = Array.map (Gbdt.predict m_new) cands in
  let batched = Gbdt.predict_batch m_new cands in
  Array.iteri
    (fun i a ->
      if not (Float.equal a batched.(i)) then
        Fmt.failwith "predict_batch diverges from predict at %d: %h vs %h" i
          a batched.(i))
    per_sample;
  (* sanity: both fitters learn the synthetic relation *)
  let r2_ref = Gbdt.r2 m_ref xs ys and r2_new = Gbdt.r2 m_new xs ys in
  if r2_ref < 0.5 || r2_new < 0.5 then
    Fmt.failwith "fitters underfit the synthetic data: r2 %f / %f" r2_ref
      r2_new;
  let fit_ref_per_s =
    throughput (fun () -> ignore (Gbdt.fit_reference xs ys : Gbdt.t))
  in
  let fit_new_per_s = throughput (fun () -> ignore (Gbdt.fit xs ys : Gbdt.t)) in
  let rank_sample_rps =
    throughput (fun () ->
        ignore (Array.map (Gbdt.predict m_new) cands : float array))
  in
  let rank_batch_rps =
    throughput (fun () ->
        ignore (Gbdt.predict_batch m_new cands : float array))
  in
  {
    feature_dim = Array.length xs.(0);
    fit_ref_per_s;
    fit_new_per_s;
    rank_sample_cps = rank_sample_rps *. float_of_int n_cands;
    rank_batch_cps = rank_batch_rps *. float_of_int n_cands;
    fitters_identical = Gbdt.equal m_ref m_new;
  }

(* One cost-model fit plus one 64-candidate ranking pass — the unit of
   work the tuner repeats every measurement batch. *)
let combined_speedup (m : micro) =
  let old_t = (1.0 /. m.fit_ref_per_s) +. (float_of_int n_cands /. m.rank_sample_cps)
  and new_t = (1.0 /. m.fit_new_per_s) +. (float_of_int n_cands /. m.rank_batch_cps) in
  old_t /. new_t

type e2e = {
  budget : int;
  old_wall : float;
  new_wall : float;
  old_best : float;
  new_best : float;
  ranked_per_s : float; (* features_of calls per second, new path *)
  feat_hits : int;
  feat_misses : int;
}

let run_e2e machine : e2e =
  let budget = pick ~smoke:16 ~quick:60 ~full:150 in
  let op =
    Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8 ~o:16 ~h:8 ~w:8
      ~kh:3 ~kw:3 ()
  in
  let tune task =
    let t0 = Unix.gettimeofday () in
    let r =
      Tuner.tune_alt ~seed:7 ~joint_budget:(budget * 3 / 10)
        ~loop_budget:(budget * 7 / 10) task
    in
    (r, Unix.gettimeofday () -. t0)
  in
  (* old path: no lowering/feature memo *)
  let old_task = Measure.make_task ~machine ~memo:false op in
  let old_r, old_wall = tune old_task in
  let new_task = Measure.make_task ~machine op in
  let new_r, new_wall = tune new_task in
  let ls = Measure.lower_stats new_task in
  {
    budget;
    old_wall;
    new_wall;
    old_best = old_r.Tuner.best_latency;
    new_best = new_r.Tuner.best_latency;
    ranked_per_s =
      float_of_int (ls.Measure.feat_hits + ls.Measure.feat_misses) /. new_wall;
    feat_hits = ls.Measure.feat_hits;
    feat_misses = ls.Measure.feat_misses;
  }

let json_of machine (m : micro) (e : e2e) =
  let b = Stdlib.Buffer.create 1024 in
  let add = Stdlib.Buffer.add_string b in
  add "{\n";
  add (Fmt.str "  \"scale\": %S,\n" scale_name);
  add (Fmt.str "  \"machine\": %S,\n" machine.Machine.name);
  add "  \"microbench\": {\n";
  add (Fmt.str "    \"n_train\": %d,\n" n_train);
  add (Fmt.str "    \"n_candidates\": %d,\n" n_cands);
  add (Fmt.str "    \"feature_dim\": %d,\n" m.feature_dim);
  add (Fmt.str "    \"fit_reference_per_s\": %.3f,\n" m.fit_ref_per_s);
  add (Fmt.str "    \"fit_per_s\": %.3f,\n" m.fit_new_per_s);
  add
    (Fmt.str "    \"fit_speedup\": %.3f,\n" (m.fit_new_per_s /. m.fit_ref_per_s));
  add
    (Fmt.str "    \"rank_per_sample_cands_per_s\": %.0f,\n" m.rank_sample_cps);
  add (Fmt.str "    \"rank_batch_cands_per_s\": %.0f,\n" m.rank_batch_cps);
  add
    (Fmt.str "    \"rank_speedup\": %.3f,\n"
       (m.rank_batch_cps /. m.rank_sample_cps));
  add
    (Fmt.str "    \"fit_rank_combined_speedup\": %.3f,\n" (combined_speedup m));
  add (Fmt.str "    \"rank_batch_cutoff\": %d,\n" Gbdt.batch_cutoff);
  add "    \"fitters_identical_tiefree\": true,\n";
  add (Fmt.str "    \"fitters_identical_tied_features\": %b\n" m.fitters_identical);
  add "  },\n";
  add "  \"e2e\": {\n";
  add (Fmt.str "    \"budget\": %d,\n" e.budget);
  add (Fmt.str "    \"old_wall_s\": %.3f,\n" e.old_wall);
  add (Fmt.str "    \"new_wall_s\": %.3f,\n" e.new_wall);
  add (Fmt.str "    \"wall_speedup\": %.3f,\n" (e.old_wall /. e.new_wall));
  add (Fmt.str "    \"old_best_latency_ms\": %.6f,\n" e.old_best);
  add (Fmt.str "    \"new_best_latency_ms\": %.6f,\n" e.new_best);
  add (Fmt.str "    \"candidates_ranked_per_s\": %.1f,\n" e.ranked_per_s);
  add (Fmt.str "    \"feature_cache_hits\": %d,\n" e.feat_hits);
  add (Fmt.str "    \"feature_cache_misses\": %d\n" e.feat_misses);
  add "  }\n";
  add "}\n";
  Stdlib.Buffer.contents b

let () =
  let machine = Machine.intel_cpu in
  Fmt.pr "tuner micro-benchmark (scale=%s, machine=%s)@." scale_name
    machine.Machine.name;
  let m = run_micro machine in
  Fmt.pr "fit   (%d samples x %d feats): ref %8.1f fits/s   new %8.1f fits/s  %6.2fx@."
    n_train m.feature_dim m.fit_ref_per_s m.fit_new_per_s
    (m.fit_new_per_s /. m.fit_ref_per_s);
  Fmt.pr "rank  (%d candidates)       : per-sample %9.0f cands/s   batch %9.0f cands/s  %6.2fx@."
    n_cands m.rank_sample_cps m.rank_batch_cps
    (m.rank_batch_cps /. m.rank_sample_cps);
  Fmt.pr "fit+rank combined speedup   : %.2fx (fitters identical on this data: %b)@."
    (combined_speedup m) m.fitters_identical;
  let e = run_e2e machine in
  Fmt.pr "tune_alt (budget %d)        : old %.2fs   new %.2fs  %5.2fx   best %.4f / %.4f ms@."
    e.budget e.old_wall e.new_wall (e.old_wall /. e.new_wall) e.old_best
    e.new_best;
  Fmt.pr "ranking throughput          : %.1f candidates/s (feature cache %d hits / %d misses)@."
    e.ranked_per_s e.feat_hits e.feat_misses;
  let json = json_of machine m e in
  let path = Bench_util.bench_json "tuner" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s@." path
