(* Tests for the observability layer (DESIGN.md §11): the JSON codec, the
   metrics registry, span tracing, trace-file validation, and — the
   load-bearing property — trajectory neutrality: running any tuner with
   tracing and metrics enabled produces the bit-identical result of the
   same run with observability off, for every machine model, pool size
   and fault rate.  The trace record stream itself (modulo timestamps)
   must also be identical across --jobs values and across repeated runs,
   with its schema pinned by a committed golden file. *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Ops = Alt_graph.Ops
module Propagate = Alt_graph.Propagate
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime
module Fault = Alt_faults.Fault
module Pool = Alt_parallel.Pool
module Json = Alt_obs.Json
module Metrics = Alt_obs.Metrics
module Trace = Alt_obs.Trace
module Tracecheck = Alt_obs.Tracecheck
module Templates = Alt_tuner.Templates
module Measure = Alt_tuner.Measure
module Checkpoint = Alt_tuner.Checkpoint
module Tuner = Alt_tuner.Tuner

let tiny_c2d () =
  Ops.c2d ~name:"c2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
    ~kh:3 ~kw:3 ()

let make_task ?(machine = Machine.intel_cpu) ?faults ?retries op =
  Measure.make_task ~machine ~max_points:2_000 ~seed:7 ?faults ?retries op

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

let with_tmp ?(suffix = ".tmp") f =
  let path = Filename.temp_file "altobs" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* every observability test leaves the process with obs fully off *)
let obs_off () =
  Trace.close ();
  Metrics.disable ();
  Metrics.reset ()

let with_metrics f =
  Metrics.enable ();
  Metrics.reset ();
  Fun.protect ~finally:obs_off f

let is_err = function Error _ -> true | Ok _ -> false

(* ------------------------------------------------------------------ *)
(* JSON codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_codec_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.Float 2.5);
        ("c", Json.String "x\"y\\z\n\t\001");
        ("d", Json.Bool true);
        ("e", Json.Null);
        ("f", Json.List [ Json.Int 0; Json.Float 1.0; Json.String "" ]);
        ("g", Json.Obj []);
      ]
  in
  Alcotest.(check bool)
    "composite value round-trips" true
    (Json.parse_exn (Json.to_string v) = v);
  (* field order is preserved, rendering is stable *)
  Alcotest.(check string)
    "stable rendering" (Json.to_string v)
    (Json.to_string (Json.parse_exn (Json.to_string v)))

let test_json_floats () =
  Alcotest.(check string) "whole float keeps .0" "1.0"
    (Json.to_string (Json.Float 1.0));
  Alcotest.(check string) "0.25" "0.25" (Json.to_string (Json.Float 0.25));
  Alcotest.(check bool)
    "0.1 round-trips" true
    (Json.parse_exn (Json.to_string (Json.Float 0.1)) = Json.Float 0.1);
  Alcotest.(check string) "nan renders null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "infinity renders null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check bool)
    "exponent notation parses" true
    (Json.parse_exn "1e3" = Json.Float 1000.0)

let test_json_escapes () =
  Alcotest.(check bool)
    "\\u0041 decodes" true
    (Json.parse_exn "\"\\u0041\"" = Json.String "A");
  Alcotest.(check string)
    "control char escapes" "\"\\u0001\""
    (Json.to_string (Json.String "\001"));
  Alcotest.(check bool)
    "escaped control char round-trips" true
    (Json.parse_exn "\"\\u0001\"" = Json.String "\001")

let test_json_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Fmt.str "reject %S" s) true (is_err (Json.parse s)))
    [ ""; "{"; "[1,]"; "tru"; "1 2"; "{\"a\":1,}"; "{\"a\":}"; "\"unterminated" ];
  (match Json.parse_exn "{" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ())

let test_json_accessors () =
  let v = Json.parse_exn "{\"n\":3,\"s\":\"hi\",\"l\":[1],\"b\":false}" in
  Alcotest.(check bool) "member hit" true
    (Json.member "n" v = Some (Json.Int 3));
  Alcotest.(check bool) "member miss" true (Json.member "zz" v = None);
  Alcotest.(check bool) "member of non-object" true
    (Json.member "n" (Json.Int 1) = None);
  Alcotest.(check bool)
    "to_float_opt accepts Int" true
    (Option.bind (Json.member "n" v) Json.to_float_opt = Some 3.0);
  Alcotest.(check bool) "to_int_opt" true
    (Option.bind (Json.member "n" v) Json.to_int_opt = Some 3);
  Alcotest.(check bool) "to_int_opt rejects strings" true
    (Json.to_int_opt (Json.String "3") = None);
  Alcotest.(check bool) "to_string_opt" true
    (Option.bind (Json.member "s" v) Json.to_string_opt = Some "hi");
  Alcotest.(check bool) "to_bool_opt" true
    (Option.bind (Json.member "b" v) Json.to_bool_opt = Some false);
  Alcotest.(check bool) "to_list_opt" true
    (Option.bind (Json.member "l" v) Json.to_list_opt = Some [ Json.Int 1 ])

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_gating () =
  obs_off ();
  let c = Metrics.counter "t.gate.c" in
  let g = Metrics.gauge "t.gate.g" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.set g 3.0;
  Alcotest.(check int) "disabled incr is a no-op" 0 (Metrics.counter_value c);
  Alcotest.(check bool) "disabled set is a no-op" true
    (Metrics.gauge_value g = None);
  Metrics.add_raw c 5;
  Metrics.set_raw g 2.5;
  Alcotest.(check int) "add_raw bypasses the gate" 5 (Metrics.counter_value c);
  Alcotest.(check bool) "set_raw bypasses the gate" true
    (Metrics.gauge_value g = Some 2.5);
  Metrics.enable ();
  Fun.protect ~finally:obs_off (fun () ->
      Metrics.incr c;
      Metrics.set g 4.0;
      Alcotest.(check int) "enabled incr applies" 6 (Metrics.counter_value c);
      Alcotest.(check bool) "enabled set applies" true
        (Metrics.gauge_value g = Some 4.0))

let test_metrics_registration () =
  let c1 = Metrics.counter "t.reg.x" in
  let c2 = Metrics.counter "t.reg.x" in
  Metrics.add_raw c1 3;
  Alcotest.(check int)
    "same name, same instrument" 3 (Metrics.counter_value c2);
  (match Metrics.gauge "t.reg.x" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind clash"
  | exception Invalid_argument _ -> ());
  (match Metrics.histogram "t.reg.empty" ~buckets:[] with
  | _ -> Alcotest.fail "expected Invalid_argument on empty buckets"
  | exception Invalid_argument _ -> ());
  (match Metrics.histogram "t.reg.unsorted" ~buckets:[ 2.0; 1.0 ] with
  | _ -> Alcotest.fail "expected Invalid_argument on unsorted buckets"
  | exception Invalid_argument _ -> ());
  Metrics.reset ()

let test_metrics_histogram () =
  with_metrics (fun () ->
      let h = Metrics.histogram "t.hist" ~buckets:[ 1.0; 10.0 ] in
      List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
      match Metrics.find "t.hist" with
      | Some
          {
            Metrics.value = Metrics.Histogram { buckets; overflow; count; sum };
            _;
          } ->
          Alcotest.(check bool)
            "bucket counts" true
            (buckets = [ (1.0, 1); (10.0, 1) ]);
          Alcotest.(check int) "overflow" 1 overflow;
          Alcotest.(check int) "count" 3 count;
          Alcotest.(check (float 1e-9)) "sum" 55.5 sum
      | _ -> Alcotest.fail "histogram not found in registry")

let test_metrics_snapshot_and_reset () =
  with_metrics (fun () ->
      let c = Metrics.counter "t.snap.c" in
      let g = Metrics.gauge "t.snap.g" in
      Metrics.incr c;
      Metrics.set g 1.0;
      let names = List.map (fun m -> m.Metrics.name) (Metrics.snapshot ()) in
      Alcotest.(check bool)
        "snapshot is name-sorted" true
        (names = List.sort compare names);
      Alcotest.(check bool) "snapshot finds both" true
        (List.mem "t.snap.c" names && List.mem "t.snap.g" names);
      (* the snapshot renders as the versioned JSON document *)
      (match Json.member "version" (Metrics.to_json ()) with
      | Some (Json.Int 1) -> ()
      | _ -> Alcotest.fail "to_json carries version 1");
      Metrics.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
      Alcotest.(check bool) "reset clears gauges" true
        (Metrics.gauge_value g = None);
      Alcotest.(check bool)
        "registration survives reset" true
        (Metrics.find "t.snap.c" <> None))

(* ------------------------------------------------------------------ *)
(* Trace emission and validation                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_passthrough () =
  obs_off ();
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  Alcotest.(check int) "with_span is a direct call" 42
    (Trace.with_span "t" (fun () -> 42));
  Trace.instant "nothing";
  Alcotest.(check bool) "task_begin is None" true (Trace.task_begin () = None)

let test_trace_roundtrip () =
  with_tmp ~suffix:".trace.jsonl" (fun path ->
      Trace.configure ~path;
      Fun.protect ~finally:obs_off (fun () ->
          Trace.with_span "outer"
            ~attrs:[ ("k", Json.Int 1) ]
            (fun () ->
              Trace.instant "mark";
              Trace.with_span "inner" (fun () -> ()));
          (* an exception inside a span still closes it *)
          (try Trace.with_span "boom" (fun () -> failwith "x")
           with Failure _ -> ()));
      let records =
        match Tracecheck.parse_file path with
        | Ok rs -> rs
        | Error e -> Alcotest.failf "parse_file: %s" e
      in
      Alcotest.(check int) "seven records" 7 (List.length records);
      Alcotest.(check bool) "validates" true
        (Tracecheck.validate records = Ok ());
      let shape =
        List.map (fun r -> (r.Tracecheck.ph, r.Tracecheck.name)) records
      in
      Alcotest.(check bool)
        "phases and nesting" true
        (shape
        = [
            ("B", "outer"); ("I", "mark"); ("B", "inner"); ("E", "inner");
            ("E", "outer"); ("B", "boom"); ("E", "boom");
          ]);
      match records with
      | r :: _ ->
          Alcotest.(check bool) "attrs survive the round trip" true
            (r.Tracecheck.attrs = [ ("k", Json.Int 1) ])
      | [] -> Alcotest.fail "no records")

let test_trace_task_buffers () =
  with_tmp ~suffix:".trace.jsonl" (fun path ->
      Trace.configure ~path;
      Fun.protect ~finally:obs_off (fun () ->
          Trace.instant "direct0";
          let b = Trace.task_begin () in
          Trace.instant "buffered";
          Trace.task_end b;
          Trace.instant "direct1";
          (* the pool flushes captured records after the batch joins *)
          Trace.flush_buffer b);
      let records = Result.get_ok (Tracecheck.parse_file path) in
      Alcotest.(check bool) "validates" true
        (Tracecheck.validate records = Ok ());
      Alcotest.(check bool)
        "buffered records land at flush time" true
        (List.map (fun r -> r.Tracecheck.name) records
        = [ "direct0"; "direct1"; "buffered" ]))

let rcd ?(attrs = []) seq ts ph name =
  { Tracecheck.seq; ts; ph; name; attrs }

let test_trace_validator_rejections () =
  let bad =
    [
      ("seq gap", [ rcd 0 0 "I" "a"; rcd 2 0 "I" "b" ]);
      ("seq not from zero", [ rcd 1 0 "I" "a" ]);
      ("timestamp goes backwards", [ rcd 0 10 "I" "a"; rcd 1 5 "I" "b" ]);
      ("mismatched span end", [ rcd 0 0 "B" "a"; rcd 1 0 "E" "b" ]);
      ("unclosed span", [ rcd 0 0 "B" "a" ]);
      ("end with no open span", [ rcd 0 0 "E" "a" ]);
    ]
  in
  List.iter
    (fun (what, records) ->
      Alcotest.(check bool) what true (is_err (Tracecheck.validate records)))
    bad;
  Alcotest.(check bool)
    "well-nested stream accepted" true
    (Tracecheck.validate
       [ rcd 0 0 "B" "a"; rcd 1 1 "B" "b"; rcd 2 2 "E" "b"; rcd 3 2 "E" "a" ]
    = Ok ())

let test_trace_parse_line_errors () =
  List.iter
    (fun (what, line) ->
      Alcotest.(check bool) what true (is_err (Tracecheck.parse_line line)))
    [
      ("not JSON", "nope");
      ("missing fields", "{}");
      ( "bad phase",
        "{\"seq\":0,\"ts\":0,\"ph\":\"X\",\"name\":\"a\",\"attrs\":{}}" );
      ( "attrs not an object",
        "{\"seq\":0,\"ts\":0,\"ph\":\"I\",\"name\":\"a\",\"attrs\":1}" );
    ]

(* The committed golden file pins the on-disk schema: field names and
   order, phase letters, attribute spellings of every instrumented site,
   and the volatile-attribute scrub in [normalize].  If this test breaks,
   the trace format changed — bump it deliberately. *)
let test_trace_golden () =
  (* dune runtest runs in the test directory; dune exec from the root *)
  let golden =
    if Sys.file_exists "obs_golden.trace.jsonl" then "obs_golden.trace.jsonl"
    else "test/obs_golden.trace.jsonl"
  in
  let records =
    match Tracecheck.parse_file golden with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "golden trace failed to parse: %s" e
  in
  Alcotest.(check bool) "golden validates" true
    (Tracecheck.validate records = Ok ());
  let expected =
    [
      {|{"ph":"B","name":"tuner.tune_alt","attrs":{}}|};
      {|{"ph":"B","name":"measure.batch","attrs":{"n":8,"pending":4}}|};
      {|{"ph":"B","name":"measure.sim","attrs":{"key":"0e4dca5e60b476ee51674865d8d8e39d","attempt":0}}|};
      {|{"ph":"B","name":"profiler.run","attrs":{"machine":"intel-cpu","points":10656,"sampled":false}}|};
      {|{"ph":"E","name":"profiler.run","attrs":{}}|};
      {|{"ph":"E","name":"measure.sim","attrs":{}}|};
      {|{"ph":"E","name":"measure.batch","attrs":{}}|};
      {|{"ph":"I","name":"tuner.round","attrs":{"round":1,"generated":8,"measured":4,"spent":4,"cache_hits":0,"cache_misses":4,"faulted":0,"retried":0,"quarantined":0,"best_latency_ms":0.25,"layout_chain_depth":1}}|};
      {|{"ph":"B","name":"checkpoint.save","attrs":{}}|};
      {|{"ph":"E","name":"checkpoint.save","attrs":{}}|};
      {|{"ph":"E","name":"tuner.tune_alt","attrs":{}}|};
    ]
  in
  Alcotest.(check (list string))
    "normalize matches the pinned projection (gbdt_fit_ms scrubbed)" expected
    (Tracecheck.normalize records);
  (* a freshly emitted record carries exactly the golden field layout *)
  with_tmp ~suffix:".trace.jsonl" (fun path ->
      Trace.configure ~path;
      Fun.protect ~finally:obs_off (fun () ->
          Trace.with_span "s" (fun () -> ()));
      let ic = open_in path in
      let line =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
            input_line ic)
      in
      Alcotest.(check bool)
        "emitted line leads with seq then ts" true
        (let prefix = {|{"seq":0,"ts":|} in
         let m = String.length prefix in
         String.length line > m && String.sub line 0 m = prefix);
      Alcotest.(check bool)
        "emitted line ends with ph/name/attrs" true
        (let suffix = {|"ph":"B","name":"s","attrs":{}}|} in
         let n = String.length line and m = String.length suffix in
         n >= m && String.sub line (n - m) m = suffix))

(* ------------------------------------------------------------------ *)
(* Pool edge cases and counter ground truth                           *)
(* ------------------------------------------------------------------ *)

let pool_counts () =
  ( Metrics.counter_value (Metrics.counter "pool.batches"),
    Metrics.counter_value (Metrics.counter "pool.tasks.submitted"),
    Metrics.counter_value (Metrics.counter "pool.tasks.completed"),
    Metrics.counter_value (Metrics.counter "pool.tasks.failed") )

let check_counts what (b, s, c, f) =
  let got = pool_counts () in
  Alcotest.(check (list int)) what [ b; s; c; f ]
    (let b', s', c', f' = got in
     [ b'; s'; c'; f' ])

let test_pool_zero_tasks () =
  with_metrics (fun () ->
      let p1 = Pool.create ~jobs:1 () in
      Alcotest.(check bool) "serial empty map" true
        (Pool.map_array p1 (fun x -> x) [||] = [||]);
      check_counts "empty batch counted, nothing submitted" (1, 0, 0, 0);
      let p4 = Pool.create ~jobs:4 () in
      Alcotest.(check bool) "parallel empty map" true
        (Pool.map p4 (fun x -> x) [] = []);
      check_counts "second empty batch" (2, 0, 0, 0))

let test_pool_more_jobs_than_tasks () =
  with_metrics (fun () ->
      let p = Pool.create ~jobs:8 () in
      Alcotest.(check (list int))
        "jobs > tasks still maps in order" [ 2; 4; 6 ]
        (Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ]);
      check_counts "three tasks, all completed" (1, 3, 3, 0))

let test_pool_exception_in_last_task () =
  let f i = if i = 3 then failwith "boom" else i in
  with_metrics (fun () ->
      (* serial: the failure propagates immediately, after 3 successes *)
      (match Pool.map_array (Pool.create ()) f [| 0; 1; 2; 3 |] with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Pool.Task_failed (3, Failure _) -> ());
      check_counts "serial: last task fails" (1, 4, 3, 1);
      Metrics.reset ();
      (* parallel: the whole batch drains, then the same failure surfaces *)
      (match Pool.map_array (Pool.create ~jobs:4 ()) f [| 0; 1; 2; 3 |] with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Pool.Task_failed (3, Failure _) -> ());
      check_counts "parallel: batch drained, one failed" (1, 4, 3, 1);
      Metrics.reset ();
      (* result discipline: the failure is a per-task outcome in order *)
      let rs = Pool.map_result (Pool.create ~jobs:4 ()) f [ 0; 1; 2; 3 ] in
      Alcotest.(check bool)
        "map_result surfaces the last-task error in order" true
        (match rs with
        | [ Ok 0; Ok 1; Ok 2; Error (Failure _) ] -> true
        | _ -> false);
      check_counts "map_result counters" (1, 4, 3, 1))

(* Counter totals must agree with ground truth computed from the result
   list, for assorted batch shapes and pool sizes. *)
let test_pool_counters_ground_truth () =
  List.iter
    (fun (n, fail_at, jobs) ->
      with_metrics (fun () ->
          let f i =
            match fail_at with
            | Some k when i = k -> failwith "injected"
            | _ -> i * i
          in
          let rs =
            Pool.map_result (Pool.create ~jobs ()) f (List.init n (fun i -> i))
          in
          let ok = List.length (List.filter Result.is_ok rs) in
          let err = List.length (List.filter is_err rs) in
          check_counts
            (Fmt.str "n=%d jobs=%d" n jobs)
            (1, n, ok, err)))
    [
      (5, None, 1); (5, Some 4, 1); (7, Some 6, 4); (1, Some 0, 4);
      (6, None, 3); (0, None, 2);
    ]

(* ------------------------------------------------------------------ *)
(* Profiler engine counters against ground truth                      *)
(* ------------------------------------------------------------------ *)

let engine_counts (es : Profiler.engine_stats) =
  [ es.Profiler.fast_groups; es.Profiler.scalar_groups;
    es.Profiler.fast_runs; es.Profiler.scalar_runs ]

let published_engine_counts () =
  List.map
    (fun name -> Metrics.counter_value (Metrics.counter name))
    [ "profiler.fast_groups"; "profiler.scalar_groups";
      "profiler.fast_loop_runs"; "profiler.scalar_loop_runs" ]

(* A metered [Profiler.run] publishes exactly the delta of the engine
   stats it was handed — the groups [compile] counts included — on both
   engines and on a stats record that already holds earlier runs. *)
let test_profiler_counters_ground_truth () =
  let op = tiny_c2d () in
  let task = make_task op in
  let sched =
    let s = Schedule.default ~rank:4 ~nred:3 in
    let s = Schedule.split s ~dim:3 ~inner:4 in
    Schedule.vectorize (Schedule.reorder_reduce_outer s true)
  in
  let prog =
    Option.get
      (Measure.program_of task (Templates.channels_last_choice op) sched)
  in
  let es = Profiler.fresh_engine_stats () in
  with_metrics (fun () ->
      List.iter
        (fun fast ->
          Metrics.reset ();
          let before = engine_counts es in
          let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
          ignore
            (Profiler.run ~machine:task.Measure.machine ~fast ~engine:es prog
               ~bufs
              : Profiler.result);
          let delta = List.map2 ( - ) (engine_counts es) before in
          let what = if fast then "fast" else "scalar" in
          Alcotest.(check (list int))
            (what ^ ": published = engine-stats delta") delta
            (published_engine_counts ());
          Alcotest.(check bool)
            (what ^ ": groups counted") true
            (List.nth delta 0 + List.nth delta 1 > 0))
        [ true; false; true ])

(* The cache and sampling counters of one metered [Profiler.run] against
   the result it returns: the published cache counters are the raw
   simulated events, which the result scales by [scale] when the run is
   sampled; [profiler.sampled_runs] counts exactly the sampled runs. *)
let test_profiler_cache_counters_ground_truth () =
  let op = tiny_c2d () in
  let task = make_task op in
  let prog =
    Option.get
      (Measure.program_of task
         (Templates.channels_last_choice op)
         (Schedule.default ~rank:4 ~nred:3))
  in
  let counter name = Metrics.counter_value (Metrics.counter name) in
  let sampled_seen = ref 0 in
  with_metrics (fun () ->
      List.iter
        (fun (fast, max_points) ->
          Metrics.reset ();
          let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
          let r =
            Profiler.run ~machine:task.Measure.machine ~fast ?max_points prog
              ~bufs
          in
          let what =
            Fmt.str "%s%s"
              (if fast then "fast" else "scalar")
              (if r.Profiler.sampled then " sampled" else "")
          in
          if r.Profiler.sampled then incr sampled_seen;
          Alcotest.(check int) (what ^ ": runs") 1 (counter "profiler.runs");
          Alcotest.(check int)
            (what ^ ": sampled_runs")
            (if r.Profiler.sampled then 1 else 0)
            (counter "profiler.sampled_runs");
          let scaled name = float_of_int (counter name) *. r.Profiler.scale in
          Alcotest.(check (float 0.0))
            (what ^ ": l1 accesses") r.Profiler.l1_accesses
            (scaled "sim.l1.accesses");
          Alcotest.(check (float 0.0))
            (what ^ ": l1 misses") r.Profiler.l1_misses
            (scaled "sim.l1.misses");
          Alcotest.(check (float 0.0))
            (what ^ ": l2 misses") r.Profiler.l2_misses
            (scaled "sim.l2.misses");
          List.iter
            (fun lvl ->
              Alcotest.(check int)
                (Fmt.str "%s: %s hits + misses = accesses" what lvl)
                (counter (lvl ^ ".accesses"))
                (counter (lvl ^ ".hits") + counter (lvl ^ ".misses")))
            [ "sim.l1"; "sim.l2" ];
          Alcotest.(check int)
            (what ^ ": every l1 miss reaches l2") (counter "sim.l1.misses")
            (counter "sim.l2.accesses");
          Alcotest.(check bool)
            (what ^ ": misses counted") true
            (counter "sim.l1.misses" > 0))
        [ (true, None); (false, None); (true, Some 200); (false, Some 200) ]);
  Alcotest.(check int) "sampled runs exercised" 2 !sampled_seen

(* ------------------------------------------------------------------ *)
(* Checkpoint robustness                                              *)
(* ------------------------------------------------------------------ *)

let sample_checkpoint () =
  {
    Checkpoint.fingerprint = "fp";
    rounds = 2;
    spent = 9;
    best_latency = 1.25;
    rng_digest = "digest";
    cache = [];
    quarantine = [ ("k", "why") ];
  }

let expect_load_failure what path =
  match Checkpoint.load ~path with
  | _ -> Alcotest.failf "%s: expected Failure" what
  | exception Failure msg ->
      Alcotest.(check bool)
        (what ^ ": message names the path") true
        (String.length msg >= String.length path
        && String.sub msg 0 (String.length path) = path)

let test_checkpoint_empty_and_short () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      close_out oc;
      expect_load_failure "empty file" path);
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "ALT";
      close_out oc;
      expect_load_failure "shorter than the magic" path)

let test_checkpoint_corrupt_magic () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTACKPTxxxxxxxxxxxxxxxx";
      close_out oc;
      expect_load_failure "foreign magic" path)

let test_checkpoint_truncated () =
  (* magic alone: the version marshal is missing *)
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "ALTCKPT\001";
      close_out oc;
      expect_load_failure "magic only" path);
  (* a valid checkpoint cut short mid-record *)
  with_tmp (fun path ->
      Checkpoint.save ~path (sample_checkpoint ());
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub bytes 0 (len - 4));
      close_out oc;
      expect_load_failure "truncated record" path)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_checkpoint_version_mismatch () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "ALTCKPT\001";
      Marshal.to_channel oc (99 : int) [];
      Marshal.to_channel oc (sample_checkpoint ()) [];
      close_out oc;
      match Checkpoint.load ~path with
      | _ -> Alcotest.fail "expected Failure on version 99"
      | exception Failure msg ->
          Alcotest.(check bool)
            "message names the version" true
            (contains_sub msg "version 99"))

let test_checkpoint_fingerprint_mismatch () =
  with_tmp (fun path ->
      Checkpoint.save ~path (sample_checkpoint ());
      let op = tiny_c2d () in
      let task = make_task op in
      match
        Tuner.tune_loop_only ~seed:3 ~resume:path ~explorer:Tuner.Guided
          ~budget:10
          ~layouts:[ Templates.trivial_choice op ]
          task
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Trace round-trip over a real tuning run; --jobs stability          *)
(* ------------------------------------------------------------------ *)

let traced_tune ~path ~jobs =
  let op = tiny_c2d () in
  let task =
    make_task ~faults:(Fault.create ~seed:2 ~rate:0.2 ()) ~retries:1 op
  in
  Trace.configure ~path;
  Fun.protect ~finally:obs_off (fun () ->
      Tuner.tune_alt ~seed:9 ~pool:(Pool.create ~jobs ()) ~joint_budget:8
        ~loop_budget:10 task)

let required_round_attrs =
  [
    "round"; "generated"; "measured"; "spent"; "cache_hits"; "cache_misses";
    "faulted"; "retried"; "quarantined"; "gbdt_fit_ms"; "best_latency_ms";
    "layout_chain_depth";
  ]

let test_trace_real_run_roundtrip () =
  with_tmp ~suffix:".trace.jsonl" (fun p1 ->
      with_tmp ~suffix:".trace.jsonl" (fun p2 ->
          with_tmp ~suffix:".trace.jsonl" (fun p3 ->
              let r1 = traced_tune ~path:p1 ~jobs:4 in
              let r2 = traced_tune ~path:p2 ~jobs:4 in
              let r3 = traced_tune ~path:p3 ~jobs:1 in
              Alcotest.(check bool) "repeat run, same result" true
                (result_equal r1 r2);
              Alcotest.(check bool) "jobs=1 run, same result" true
                (result_equal r1 r3);
              let parse p = Result.get_ok (Tracecheck.parse_file p) in
              let t1 = parse p1 and t2 = parse p2 and t3 = parse p3 in
              List.iter
                (fun (what, t) ->
                  Alcotest.(check bool) what true
                    (Tracecheck.validate t = Ok ()))
                [ ("run 1 validates", t1); ("run 2 validates", t2);
                  ("jobs=1 run validates", t3) ];
              Alcotest.(check bool)
                "two identical jobs=4 runs: identical normalized streams"
                true
                (Tracecheck.normalize t1 = Tracecheck.normalize t2);
              Alcotest.(check bool)
                "jobs=1 and jobs=4: identical normalized streams" true
                (Tracecheck.normalize t1 = Tracecheck.normalize t3);
              (* per-round telemetry is present and fully populated *)
              let rounds =
                List.filter
                  (fun r ->
                    r.Tracecheck.ph = "I" && r.Tracecheck.name = "tuner.round")
                  t1
              in
              Alcotest.(check bool) "round instants present" true
                (List.length rounds > 0);
              List.iter
                (fun r ->
                  List.iter
                    (fun k ->
                      Alcotest.(check bool)
                        (Fmt.str "round attr %s" k)
                        true
                        (List.mem_assoc k r.Tracecheck.attrs))
                    required_round_attrs)
                rounds;
              (* the spans the pipeline promises all show up *)
              List.iter
                (fun name ->
                  Alcotest.(check bool) (name ^ " span present") true
                    (List.exists
                       (fun r ->
                         r.Tracecheck.ph = "B" && r.Tracecheck.name = name)
                       t1))
                [ "tuner.tune_alt"; "measure.batch"; "measure.sim";
                  "profiler.run" ])))

(* ------------------------------------------------------------------ *)
(* Differential: observability on vs off is bit-identical             *)
(* ------------------------------------------------------------------ *)

let machines = [| Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu |]

let run_leg which ~obs ~seed ~machine ~jobs =
  let op = tiny_c2d () in
  let task =
    make_task ~machine ~faults:(Fault.create ~seed ~rate:0.3 ()) ~retries:2 op
  in
  let run () =
    let pool = Pool.create ~jobs () in
    match which with
    | `Alt -> Tuner.tune_alt ~seed ~pool ~joint_budget:8 ~loop_budget:8 task
    | `Loop ->
        Tuner.tune_loop_only ~seed ~pool ~explorer:Tuner.Guided ~budget:14
          ~layouts:[ Templates.trivial_choice op ]
          task
  in
  if not obs then begin
    obs_off ();
    run ()
  end
  else
    let path = Filename.temp_file "altobs" ".trace.jsonl" in
    Fun.protect
      ~finally:(fun () ->
        obs_off ();
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Trace.configure ~path;
        Metrics.enable ();
        run ())

let diff_prop which name =
  QCheck2.Test.make ~count:9 ~name
    QCheck2.Gen.(triple (int_bound 999) (int_bound 2) bool)
    (fun (seed, m, par) ->
      let machine = machines.(m) in
      let jobs = if par then 4 else 1 in
      let off = run_leg which ~obs:false ~seed ~machine ~jobs in
      let on = run_leg which ~obs:true ~seed ~machine ~jobs in
      result_equal off on)

let prop_diff_alt =
  diff_prop `Alt "tune_alt: traced+metrics = disabled (bit-identical)"

let prop_diff_loop =
  diff_prop `Loop "tune_loop_only: traced+metrics = disabled (bit-identical)"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "alt_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_codec_roundtrip;
          Alcotest.test_case "float rendering" `Quick test_json_floats;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "malformed input" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "off-by-default gating" `Quick test_metrics_gating;
          Alcotest.test_case "registration" `Quick test_metrics_registration;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram;
          Alcotest.test_case "snapshot and reset" `Quick
            test_metrics_snapshot_and_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled passthrough" `Quick
            test_trace_disabled_passthrough;
          Alcotest.test_case "emit, parse, validate" `Quick test_trace_roundtrip;
          Alcotest.test_case "task capture buffers" `Quick
            test_trace_task_buffers;
          Alcotest.test_case "validator rejections" `Quick
            test_trace_validator_rejections;
          Alcotest.test_case "parse_line errors" `Quick
            test_trace_parse_line_errors;
          Alcotest.test_case "golden schema" `Quick test_trace_golden;
        ] );
      ( "pool-edges",
        [
          Alcotest.test_case "zero tasks" `Quick test_pool_zero_tasks;
          Alcotest.test_case "more jobs than tasks" `Quick
            test_pool_more_jobs_than_tasks;
          Alcotest.test_case "exception in the last task" `Quick
            test_pool_exception_in_last_task;
          Alcotest.test_case "counters match ground truth" `Quick
            test_pool_counters_ground_truth;
        ] );
      ( "profiler-counters",
        [
          Alcotest.test_case "published = engine-stats delta" `Quick
            test_profiler_counters_ground_truth;
          Alcotest.test_case "cache + sampling counters = result" `Quick
            test_profiler_cache_counters_ground_truth;
        ] );
      ( "checkpoint-robustness",
        [
          Alcotest.test_case "empty and short files" `Quick
            test_checkpoint_empty_and_short;
          Alcotest.test_case "corrupt magic" `Quick test_checkpoint_corrupt_magic;
          Alcotest.test_case "truncated journal" `Quick test_checkpoint_truncated;
          Alcotest.test_case "version mismatch" `Quick
            test_checkpoint_version_mismatch;
          Alcotest.test_case "fingerprint mismatch on resume" `Quick
            test_checkpoint_fingerprint_mismatch;
        ] );
      ( "trace-roundtrip",
        [
          Alcotest.test_case "real run: validate + --jobs stability" `Quick
            test_trace_real_run_roundtrip;
        ] );
      qsuite "trajectory-neutrality" [ prop_diff_alt; prop_diff_loop ];
    ]
