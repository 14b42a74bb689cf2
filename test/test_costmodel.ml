(* Cost-model unit tests: the exact-greedy GBDT fitter against the seed
   (per-node re-sorting) fitter on tie-free data and against pinned
   digests on tied data, batched prediction, warm-start boosting, and the
   tuner-side lowering/feature memo cache. *)

module Ops = Alt_graph.Ops
module Machine = Alt_machine.Machine
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Gbdt = Alt_costmodel.Gbdt

(* Deterministic continuous data: sampled from (0,1) so feature columns
   are tie-free, where the two fitters are guaranteed bit-identical (see
   DESIGN.md §10 for the tied-column caveat). *)
let continuous_data ~seed ~n ~d =
  let rng = Random.State.make [| seed |] in
  let xs = Array.init n (fun _ -> Array.init d (fun _ -> Random.State.float rng 1.0)) in
  let ys =
    Array.map
      (fun x ->
        Array.fold_left ( +. ) 0.0 x +. (Random.State.float rng 0.1))
      xs
  in
  (xs, ys)

(* Heavily tied discrete data shaped like the tuner's feature vectors
   (d = 24 columns of small-integer knob levels): column [f] takes one of
   [1 + f mod 6] levels, so column 0 is constant and most nodes see long
   tied runs.  Targets depend on the knobs plus coarse noise, so tied
   runs carry distinct residuals — the inputs whose prefix-sum rounding
   depends on the order of a tied run. *)
let tied_data ~seed ~n ~d =
  let rng = Random.State.make [| seed |] in
  let xs =
    Array.init n (fun _ ->
        Array.init d (fun f -> float_of_int (Random.State.int rng (1 + (f mod 6)))))
  in
  let ys =
    Array.map
      (fun x ->
        let s = ref 0.0 in
        Array.iteri (fun f v -> s := !s +. (v *. float_of_int (1 + (f mod 4)))) x;
        !s +. (float_of_int (Random.State.int rng 8) /. 4.0))
      xs
  in
  (xs, ys)

(* ------------------------------------------------------------------ *)
(* Fitting                                                            *)
(* ------------------------------------------------------------------ *)

(* A monotone 1-d relation must be learned monotonically (up to leaf
   granularity): predictions at well-separated inputs must increase. *)
let test_monotone () =
  let xs = Array.init 200 (fun i -> [| float_of_int i /. 200.0 |]) in
  let ys = Array.map (fun x -> (3.0 *. x.(0)) +. 1.0) xs in
  let m = Gbdt.fit xs ys in
  let r2 = Gbdt.r2 m xs ys in
  Alcotest.(check bool) (Fmt.str "r2 %.3f > 0.9" r2) true (r2 > 0.9);
  let p_lo = Gbdt.predict m [| 0.1 |]
  and p_mid = Gbdt.predict m [| 0.5 |]
  and p_hi = Gbdt.predict m [| 0.9 |] in
  Alcotest.(check bool) "monotone" true (p_lo < p_mid && p_mid < p_hi)

(* Fitting is deterministic: same data, same trees, bit for bit. *)
let test_split_determinism () =
  let xs, ys = continuous_data ~seed:11 ~n:120 ~d:6 in
  Alcotest.(check bool) "identical refits" true
    (Gbdt.equal (Gbdt.fit xs ys) (Gbdt.fit xs ys))

(* The exact-greedy fitter reproduces the seed fitter bit-identically on
   continuous (tie-free) data, at the tuner's feature width and across
   the depth and leaf-size edges of the running split scan. *)
let prop_old_new_equivalent =
  QCheck2.Test.make ~count:30 ~name:"exact-greedy == reference fitter"
    QCheck2.Gen.(
      quad (int_range 0 10_000) (int_range 2 600) (int_range 1 6)
        (int_range 1 6))
    (fun (seed, n, max_depth, min_samples) ->
      let params = { Gbdt.default_params with max_depth; min_samples } in
      let xs, ys = continuous_data ~seed ~n ~d:24 in
      Gbdt.equal (Gbdt.fit ~params xs ys) (Gbdt.fit_reference ~params xs ys))

(* Tie goldens.  Digests of [fit] and [refit] models on tied data, pinned
   from the presort-and-allocate fitter that preceded the workspace
   fitter.  [fit_reference] re-sorts tied runs unstably, so it is no
   oracle on tied columns; these goldens carry the earlier fitter's exact
   trees instead.  Each case is (seed, n, max_depth, min_samples,
   n_trees); the refit model boosts [extra_trees = n_trees / 2 + 1] onto a
   fit of the first half of the data, on the full data. *)
let tie_cases =
  [
    (1, 8, 1, 1, 5); (2, 9, 2, 1, 8); (3, 16, 3, 2, 10); (4, 31, 4, 1, 12);
    (5, 50, 5, 3, 20); (6, 64, 6, 4, 40); (7, 100, 4, 4, 40);
    (8, 128, 3, 5, 30); (9, 200, 6, 1, 40); (10, 257, 2, 6, 25);
    (11, 300, 5, 2, 40); (12, 400, 4, 4, 40); (13, 512, 1, 3, 15);
    (14, 600, 6, 6, 40); (15, 700, 3, 1, 20); (16, 800, 4, 4, 40);
    (17, 900, 5, 5, 30); (18, 1000, 6, 2, 40); (19, 1100, 2, 1, 10);
    (20, 1200, 4, 4, 40); (21, 1200, 6, 1, 40); (22, 33, 6, 1, 40);
  ]

let tie_digests (seed, n, max_depth, min_samples, n_trees) =
  let params =
    { Gbdt.default_params with max_depth; min_samples; n_trees }
  in
  let xs, ys = tied_data ~seed ~n ~d:24 in
  let digest m = Digest.to_hex (Digest.string (Marshal.to_string m [])) in
  let half = n / 2 in
  let m0 = Gbdt.fit ~params (Array.sub xs 0 half) (Array.sub ys 0 half) in
  ( digest (Gbdt.fit ~params xs ys),
    digest (Gbdt.refit ~params ~extra_trees:((n_trees / 2) + 1) m0 xs ys) )

let tie_goldens =
  [
    ("7420b56f9939d5b53b2e240229a8a941",
     "45c32d53c90008a406411dfa599f6bea");
    ("279c500231b1d251d0b719273e077e99",
     "ec2c20bf4b469441f297a717374534de");
    ("342c6d983f2ee695735e2192e2839336",
     "146b3b5309446c095b793965f2ac2024");
    ("f08bd704c0729b9f33c45e1bb898d0d1",
     "4eabb009c6b092633225ccda1949bbe2");
    ("40a919c24c7387ebc9839f3a30df1c7b",
     "34b1235cf54636fd90ce1b9c3b9badf3");
    ("ef97fdbb11a6d11d419e519b7b3ade3b",
     "84f084feb260b1736d6b5094918f7936");
    ("00873fda324f96926a1e8a2556797d0f",
     "5328f8c4f0504f168cfdb09011c69343");
    ("e2052a4511b5f16f17de6c9991a27a1b",
     "c688168fb3440f3e6428d338c2f09456");
    ("a8cfb75fde25bf99ae7eec8335735e2c",
     "76b40f11907882a5b1407b7de29ae33b");
    ("c22a450e7d2d4afdb4cb72cd494df1d2",
     "f1d109e34bcbe35045154a76e5d4d7a8");
    ("eea3a2e9125c6a3effa8cb30b581487a",
     "d9a4dbaca9860c2e941dd3edd52832cf");
    ("083bb7340f982d8a65794a00eb54438e",
     "2019bf7831e94cdb9d749769d01a6f64");
    ("e82be760de00588dcf5441a523eb8051",
     "918901a18dd3eb29fd01502437f80fa3");
    ("236ba2375e260fde45bce9ad508502ad",
     "8ca06e764879e2e5acb763494ea84187");
    ("9968f59e0ecff01b30d8cd2627ea65d6",
     "0319c09dcc9a6ac0373d4b0f428d6c60");
    ("aa0d348d70df99eb64f4b623b3fb17a3",
     "441a0cd263cf477e2b9412963c3263e4");
    ("583867ac60dfb0daa3db6ee4be5f4e3d",
     "be53ec1931f164e1b08ec6c9f5a68bb9");
    ("16d6d54d22a73fab274d4bac538d2eac",
     "f797b648328aea2a6d1887578ec36f36");
    ("a11eba3c77f330c0a77f583ae3c66cfd",
     "b6782263f10b6f9de8f1bf31e29e49e1");
    ("c58795c58834cdcb8210f8259c737fcd",
     "6f0287dda33de70b86eee9e65fa6c3a0");
    ("e99960f9a9144f4ba45a34549db216f3",
     "407bdc3ab9ff5865a41f12f7a920240b");
    ("e02946a95b97e028687d87fbb7916791",
     "b99dcb0eb5c1597d1b936b3c61e4792c");
  ]

let test_tie_goldens () =
  List.iter2
    (fun ((seed, n, _, _, _) as case) (fit_hex, refit_hex) ->
      let f, r = tie_digests case in
      Alcotest.(check string) (Fmt.str "fit seed %d n %d" seed n) fit_hex f;
      Alcotest.(check string) (Fmt.str "refit seed %d n %d" seed n) refit_hex r)
    tie_cases tie_goldens

(* ------------------------------------------------------------------ *)
(* Prediction                                                         *)
(* ------------------------------------------------------------------ *)

(* Batched prediction over the flattened trees is bitwise the per-sample
   recursive fold. *)
let prop_predict_batch_bitwise =
  QCheck2.Test.make ~count:30 ~name:"predict_batch == predict, bitwise"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let xs, ys = continuous_data ~seed ~n:80 ~d:5 in
      let m = Gbdt.fit xs ys in
      let cands, _ = continuous_data ~seed:(seed + 1) ~n:33 ~d:5 in
      let batched = Gbdt.predict_batch m cands in
      Array.for_all2 Float.equal batched (Array.map (Gbdt.predict m) cands))

let test_predict_batch_empty () =
  let xs, ys = continuous_data ~seed:3 ~n:50 ~d:4 in
  let m = Gbdt.fit xs ys in
  Alcotest.(check int) "empty batch" 0 (Array.length (Gbdt.predict_batch m [||]));
  let e = Gbdt.fit [||] [||] in
  Alcotest.(check (float 0.0)) "empty model" 0.0 (Gbdt.predict_batch e [| [| 1.0 |] |]).(0)

(* ------------------------------------------------------------------ *)
(* Warm start                                                         *)
(* ------------------------------------------------------------------ *)

let test_refit_grows () =
  let xs, ys = continuous_data ~seed:7 ~n:100 ~d:5 in
  let m = Gbdt.fit xs ys in
  let n0 = Gbdt.n_trees m in
  let xs2, ys2 = continuous_data ~seed:8 ~n:140 ~d:5 in
  let m' = Gbdt.refit m xs2 ys2 in
  Alcotest.(check bool) "trees grew" true (Gbdt.n_trees m' > n0);
  (* the boosted model must still fit the grown data it was refit on *)
  let r2 = Gbdt.r2 m' xs2 ys2 in
  Alcotest.(check bool) (Fmt.str "refit r2 %.3f > 0.5" r2) true (r2 > 0.5);
  (* explicit extra budget is honored; zero/empty are no-ops *)
  Alcotest.(check int) "extra_trees" (n0 + 3)
    (Gbdt.n_trees (Gbdt.refit ~extra_trees:3 m xs2 ys2));
  Alcotest.(check bool) "zero extra is a no-op" true
    (Gbdt.equal m (Gbdt.refit ~extra_trees:0 m xs2 ys2));
  Alcotest.(check bool) "empty data is a no-op" true
    (Gbdt.equal m (Gbdt.refit m [||] [||]));
  Alcotest.check_raises "negative extra"
    (Invalid_argument "Gbdt.refit: extra_trees must be >= 0") (fun () ->
      ignore (Gbdt.refit ~extra_trees:(-1) m xs2 ys2 : Gbdt.t))

(* ------------------------------------------------------------------ *)
(* Lowering/feature memo cache                                        *)
(* ------------------------------------------------------------------ *)

let small_c2d () =
  Ops.c2d ~name:"c2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
    ~kh:3 ~kw:3 ()

let tune ~memo ?(warm_start = false) () =
  let task = Measure.make_task ~machine:Machine.intel_cpu ~memo (small_c2d ()) in
  let r =
    Tuner.tune_alt ~seed:3 ~warm_start ~joint_budget:8 ~loop_budget:16 task
  in
  (task, r)

(* With the cache on, Features.extract runs at most once per distinct
   (choice, schedule): the miss counter equals the number of cached
   feature vectors, and the ranking passes actually hit. *)
let test_feature_cache_single_extract () =
  let task, _ = tune ~memo:true () in
  let ls = Measure.lower_stats task in
  let _, feat_cached = Measure.lower_cache_sizes task in
  Alcotest.(check int) "one extract per distinct candidate" feat_cached
    ls.Measure.feat_misses;
  Alcotest.(check bool) "ranking hits the cache" true (ls.Measure.feat_hits > 0);
  Alcotest.(check bool) "lowering hits too" true (ls.Measure.prog_hits > 0)

(* The memo cache must not change the trajectory. *)
let test_memo_trajectory_neutral () =
  let task_on, r_on = tune ~memo:true () in
  let _, r_off = tune ~memo:false () in
  Alcotest.(check (float 0.0)) "best latency" r_off.Tuner.best_latency
    r_on.Tuner.best_latency;
  Alcotest.(check int) "spent" r_off.Tuner.spent r_on.Tuner.spent;
  Alcotest.(check bool) "history" true
    (List.equal
       (fun (a, b) (c, d) -> a = c && Float.equal b d)
       r_off.Tuner.history r_on.Tuner.history);
  (* memo off leaves the counters untouched *)
  let ls = Measure.lower_stats task_on in
  Alcotest.(check bool) "stats populated when on" true
    (ls.Measure.feat_misses > 0)

(* Warm start completes and yields a finite result (its trajectory is
   allowed to differ — that is why it is off by default). *)
let test_warm_start_runs () =
  let _, r = tune ~memo:true ~warm_start:true () in
  Alcotest.(check bool) "finite best" true
    (Float.is_finite r.Tuner.best_latency)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "alt_costmodel"
    [
      ( "fit",
        [
          Alcotest.test_case "monotone synthetic" `Quick test_monotone;
          Alcotest.test_case "split determinism" `Quick test_split_determinism;
          Alcotest.test_case "tie goldens" `Quick test_tie_goldens;
        ] );
      qsuite "fit-props" [ prop_old_new_equivalent ];
      ( "predict",
        [ Alcotest.test_case "empty batches" `Quick test_predict_batch_empty ]
      );
      qsuite "predict-props" [ prop_predict_batch_bitwise ];
      ( "warm-start",
        [
          Alcotest.test_case "refit grows the ensemble" `Quick test_refit_grows;
          Alcotest.test_case "tuner runs warm" `Quick test_warm_start_runs;
        ] );
      ( "memo-cache",
        [
          Alcotest.test_case "single extract per candidate" `Quick
            test_feature_cache_single_extract;
          Alcotest.test_case "trajectory neutral" `Quick
            test_memo_trajectory_neutral;
        ] );
    ]
