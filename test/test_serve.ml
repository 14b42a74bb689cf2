(* Tests for the tuning-as-a-service daemon (DESIGN.md §13): wire
   protocol framing, the sharded cross-session store, and the serve
   engine's headline guarantees —

   - N concurrent daemon sessions produce byte-identical results to N
     solo tune-op runs (with and without faults, for every pool size);
   - results and quarantine decisions are shared across sessions within
     one measurement context and never across contexts;
   - a crash (abandoned engine) followed by recovery resumes every
     interrupted session and completes it byte-identically;
   - corrupt / version-mismatched checkpoints are parked as [.bad] and
     the session restarts fresh instead of wedging recovery;
   - overload sheds with a structured rejection and never perturbs the
     admitted sessions; deadlines park sessions resumable;
   - graceful shutdown answers everything as interrupted-but-resumable
     and a restarted engine finishes the work. *)

module Ops = Alt_graph.Ops
module Machine = Alt_machine.Machine
module Templates = Alt_tuner.Templates
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Schedule = Alt_ir.Schedule
module Pool = Alt_parallel.Pool
module Json = Alt_obs.Json
module Workload = Alt_serve.Workload
module Proto = Alt_serve.Proto
module Store = Alt_serve.Store
module Serve = Alt_serve.Serve
module Daemon = Alt_serve.Daemon

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let gmm_op =
  { Workload.default_op with kind = "gmm"; spatial = 8; channels = 8;
    out_channels = 8 }

let c2d_op =
  { Workload.default_op with kind = "c2d"; spatial = 6; channels = 4;
    out_channels = 8 }

let spec ?(op = gmm_op) ?(system = "alt") ?(budget = 12) ?(seed = 0)
    ?(fault_rate = 0.0) ?(fault_seed = 0) () =
  {
    Workload.default_tune_spec with
    Workload.op;
    system;
    budget;
    seed;
    fault_rate;
    fault_seed;
    max_points = 2_000;
  }

(* the reference: the same spec tuned solo, straight through the tuner *)
let solo_json (s : Workload.tune_spec) =
  let task = Workload.task_of_spec s in
  let r =
    Tuner.tune_op ~seed:s.Workload.seed
      ~system:(Workload.system_of_spec s)
      ~budget:s.Workload.budget task
  in
  Json.to_string (Serve.json_of_tuner_result r)

let drive engine =
  let acc = ref [] in
  while Serve.has_work engine do
    acc := !acc @ Serve.step engine
  done;
  !acc

let tune ~id s = Proto.Tune { id; spec = s; deadline_rounds = None }

let response_of responses id =
  match List.assoc_opt id responses with
  | Some j -> j
  | None -> Alcotest.failf "no response for id %S" id

let status_of j =
  match Option.bind (Json.member "status" j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response without status: %s" (Json.to_string j)

let ok_result j =
  if status_of j <> "ok" then
    Alcotest.failf "expected ok, got %s" (Json.to_string j);
  match Json.member "result" j with
  | Some r -> Json.to_string r
  | None -> Alcotest.failf "ok response without result: %s" (Json.to_string j)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let path = Filename.temp_file "altserve" ".d" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf path with _ -> ()) (fun () -> f path)

let journal_files dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let test_framing_roundtrip () =
  Alcotest.(check string) "frame shape" "5\nhello\n" (Proto.frame "hello");
  (* byte-at-a-time feeding must reassemble both frames *)
  let d = Proto.Frames.create () in
  let wire = Proto.frame "hello" ^ Proto.frame "" ^ Proto.frame "x\ny" in
  String.iter (fun c -> Proto.Frames.feed d (String.make 1 c)) wire;
  let pull () =
    match Proto.Frames.next d with
    | Ok (Some p) -> p
    | Ok None -> Alcotest.fail "expected a complete frame"
    | Error e -> Alcotest.failf "unexpected framing error: %s" e
  in
  Alcotest.(check string) "first" "hello" (pull ());
  Alcotest.(check string) "empty payload" "" (pull ());
  Alcotest.(check string) "embedded newline survives" "x\ny" (pull ());
  Alcotest.(check bool) "drained" true (Proto.Frames.next d = Ok None);
  (match Proto.frame (String.make (Proto.max_frame + 1) 'x') with
  | _ -> Alcotest.fail "oversize frame accepted"
  | exception Invalid_argument _ -> ())

let test_framing_strict () =
  let feed s =
    let d = Proto.Frames.create () in
    Proto.Frames.feed d s;
    Proto.Frames.next d
  in
  let expect_error what s =
    match feed s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  expect_error "non-numeric prefix" "abc\nxyz\n";
  expect_error "negative length" "-1\n\n";
  expect_error "oversize length" (string_of_int (Proto.max_frame + 1) ^ "\n");
  expect_error "missing trailing newline" "3\nabcX";
  (* an incomplete frame is not an error — just more bytes needed *)
  Alcotest.(check bool) "incomplete = Ok None" true (feed "10\nabc" = Ok None)

let test_request_roundtrip () =
  let reqs =
    [
      Proto.Tune { id = "t"; spec = spec (); deadline_rounds = None };
      Proto.Tune
        { id = "t2"; spec = spec ~op:c2d_op ~fault_rate:0.3 ();
          deadline_rounds = Some 3 };
      Proto.Compile
        { id = "c"; op = gmm_op; machine = "intel-cpu"; preset = "alt" };
      Proto.Stats { id = "s" };
      Proto.Shutdown { id = "k" };
    ]
  in
  List.iter
    (fun r ->
      match Proto.parse_request (Json.to_string (Proto.request_to_json r)) with
      | Ok r' ->
          Alcotest.(check bool)
            ("roundtrip " ^ Proto.request_id r)
            true (r = r')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    reqs;
  let bad s =
    match Proto.parse_request s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "not json";
  bad {|{"kind":"frobnicate","id":"x"}|};
  bad {|{"kind":"tune","id":"x","spec":{"machine":"no-such-machine"}}|};
  bad {|{"kind":"tune","id":"x","spec":{},"deadline_rounds":0}|}

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

let some_result () =
  let op = Workload.op_of_spec gmm_op in
  let task = Measure.make_task ~machine:Machine.intel_cpu ~max_points:2_000 op in
  let choice = Templates.trivial_choice op in
  let sched = Schedule.default ~rank:2 ~nred:1 in
  match Measure.measure task choice sched with
  | Measure.Ok r -> r
  | o -> Alcotest.failf "fixed candidate did not measure: %a" Measure.pp_outcome o

let test_store_isolation_and_first_writer () =
  let st = Store.create ~shards:4 () in
  let r = some_result () in
  Store.publish_result st ~ctx:"ctxA" "k1" r;
  Alcotest.(check bool)
    "hit in the same context" true
    (Store.find_result st ~ctx:"ctxA" "k1" = Some r);
  Alcotest.(check bool)
    "other context is blind" true
    (Store.find_result st ~ctx:"ctxB" "k1" = None);
  (* first writer wins: a second publish never replaces *)
  let r2 = { r with Alt_machine.Profiler.latency_ms = r.latency_ms +. 1.0 } in
  Store.publish_result st ~ctx:"ctxA" "k1" r2;
  Alcotest.(check bool)
    "first writer wins" true
    (Store.find_result st ~ctx:"ctxA" "k1" = Some r);
  Store.publish_quarantine st ~ctx:"ctxA" "k2" "crash";
  Store.publish_quarantine st ~ctx:"ctxA" "k2" "timeout";
  Alcotest.(check (option string))
    "quarantine first writer wins" (Some "crash")
    (Store.find_quarantine st ~ctx:"ctxA" "k2");
  Alcotest.(check (option string))
    "quarantine is context-scoped" None
    (Store.find_quarantine st ~ctx:"ctxB" "k2");
  let s = Store.stats st in
  Alcotest.(check int) "result inserts" 1 s.Store.result_inserts;
  Alcotest.(check int) "quarantine inserts" 1 s.Store.quarantine_inserts;
  Alcotest.(check bool) "hits counted" true (s.Store.result_hits >= 2);
  Alcotest.(check (pair int int)) "sizes" (1, 1) (Store.sizes st);
  (match Store.create ~shards:0 () with
  | _ -> Alcotest.fail "accepted 0 shards"
  | exception Invalid_argument _ -> ())

let test_context_keys () =
  let a = spec () in
  Alcotest.(check bool)
    "tuner seed is outside the context" true
    (Workload.context_key a = Workload.context_key { a with Workload.seed = 9 });
  Alcotest.(check bool)
    "system is outside the context" true
    (Workload.context_key a
    = Workload.context_key { a with Workload.system = "ansor" });
  Alcotest.(check bool)
    "fault seed is inside the context" false
    (Workload.context_key a
    = Workload.context_key { a with Workload.fault_seed = 9 });
  Alcotest.(check bool)
    "session key covers the tuner seed" false
    (Workload.session_key a = Workload.session_key { a with Workload.seed = 9 })

(* ------------------------------------------------------------------ *)
(* Engine: differential vs solo runs                                  *)
(* ------------------------------------------------------------------ *)

let test_concurrent_equals_solo () =
  let specs =
    [
      ("r0", spec ());
      ("r1", spec ~op:c2d_op ~seed:1 ());
      ("r2", spec ~budget:8 ~seed:5 ());
    ]
  in
  let engine =
    Serve.create (Serve.default_config ~jobs:1 ~max_active:2 ~max_queue:8 ())
  in
  List.iter
    (fun (id, s) ->
      Alcotest.(check int)
        "admission is silent" 0
        (List.length (Serve.submit engine (tune ~id s))))
    specs;
  let responses = drive engine in
  List.iter
    (fun (id, s) ->
      Alcotest.(check string)
        ("daemon = solo for " ^ id)
        (solo_json s)
        (ok_result (response_of responses id)))
    specs;
  Alcotest.(check int) "all sessions completed" 3
    (Serve.completed_count engine)

let test_duplicate_submit_attaches () =
  let engine = Serve.create (Serve.default_config ()) in
  let s = spec () in
  ignore (Serve.submit engine (tune ~id:"d0" s));
  ignore (Serve.submit engine (tune ~id:"d1" s));
  let responses = drive engine in
  Alcotest.(check int) "one session ran" 1 (Serve.completed_count engine);
  let a = ok_result (response_of responses "d0") in
  let b = ok_result (response_of responses "d1") in
  Alcotest.(check string) "both ids get the one result" a b;
  Alcotest.(check string) "and it is the solo result" (solo_json s) a

let test_result_sharing_within_context () =
  (* same measurement context, different tuner seeds: overlapping
     candidates are measured once and served to the other session *)
  let cfg = Serve.default_config ~max_active:2 () in
  let engine = Serve.create cfg in
  let a = spec ~seed:0 () and b = spec ~seed:1 () in
  ignore (Serve.submit engine (tune ~id:"a" a));
  ignore (Serve.submit engine (tune ~id:"b" b));
  let responses = drive engine in
  Alcotest.(check string) "a = solo a" (solo_json a)
    (ok_result (response_of responses "a"));
  Alcotest.(check string) "b = solo b" (solo_json b)
    (ok_result (response_of responses "b"));
  let st = Store.stats cfg.Serve.store in
  Alcotest.(check bool) "results were shared" true (st.Store.result_hits > 0)

let test_quarantine_sharing_within_context () =
  (* 100% fault rate: overlapping candidates quarantined by whichever
     session gets there first are answered from the store for the other
     — and both trajectories still equal their solo runs *)
  let cfg = Serve.default_config ~max_active:2 () in
  let engine = Serve.create cfg in
  let a = spec ~fault_rate:1.0 ~budget:10 () in
  let b = { a with Workload.budget = 14 } in
  ignore (Serve.submit engine (tune ~id:"a" a));
  ignore (Serve.submit engine (tune ~id:"b" b));
  let responses = drive engine in
  Alcotest.(check string) "a = solo a" (solo_json a)
    (ok_result (response_of responses "a"));
  Alcotest.(check string) "b = solo b" (solo_json b)
    (ok_result (response_of responses "b"));
  let st = Store.stats cfg.Serve.store in
  Alcotest.(check bool) "quarantine was populated" true
    (st.Store.quarantine_inserts > 0);
  Alcotest.(check bool) "quarantine was shared" true
    (st.Store.quarantine_hits > 0)

let prop_daemon_differential =
  QCheck2.Test.make ~count:5
    ~name:"daemon sessions = solo runs (jobs 1 = jobs 4, faults on/off)"
    QCheck2.Gen.(pair (int_bound 999) bool)
    (fun (seed, faulty) ->
      let rate = if faulty then 0.3 else 0.0 in
      let a = spec ~seed ~budget:10 ~fault_rate:rate ~fault_seed:seed () in
      let b =
        spec ~op:c2d_op ~seed:(seed + 1) ~budget:10 ~fault_rate:rate
          ~fault_seed:seed ()
      in
      let run jobs =
        let engine = Serve.create (Serve.default_config ~jobs ~max_active:2 ()) in
        ignore (Serve.submit engine (tune ~id:"a" a));
        ignore (Serve.submit engine (tune ~id:"b" b));
        let responses = drive engine in
        ( ok_result (response_of responses "a"),
          ok_result (response_of responses "b") )
      in
      let r1 = run 1 and r4 = run 4 in
      r1 = r4 && r1 = (solo_json a, solo_json b))

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                     *)
(* ------------------------------------------------------------------ *)

(* Admit two sessions, run the engine for [steps] rounds, then abandon
   it — the moral equivalent of SIGKILL: no drain, no cleanup, only the
   journals survive. *)
let crashed_journal dir ~steps specs =
  let engine =
    Serve.create
      (Serve.default_config ~max_active:2 ~journal_dir:dir ())
  in
  List.iter (fun (id, s) -> ignore (Serve.submit engine (tune ~id s))) specs;
  for _ = 1 to steps do
    ignore (Serve.step engine : (string * Json.t) list)
  done

let test_crash_recovery_byte_identical () =
  with_tmpdir @@ fun dir ->
  let specs = [ ("a", spec ~budget:16 ()); ("b", spec ~op:c2d_op ~budget:16 ()) ] in
  crashed_journal dir ~steps:3 specs;
  Alcotest.(check int) "both request journals survive" 2
    (List.length (journal_files dir ".req.json"));
  let engine =
    Serve.create (Serve.default_config ~max_active:2 ~journal_dir:dir ())
  in
  Alcotest.(check int) "both sessions recovered" 2 (Serve.recover engine);
  let responses = drive engine in
  List.iter
    (fun (id, s) ->
      Alcotest.(check string)
        ("recovered " ^ id ^ " = solo")
        (solo_json s)
        (ok_result (response_of responses id)))
    specs;
  Alcotest.(check int) "journals cleaned after completion" 0
    (List.length (journal_files dir ".req.json")
    + List.length (journal_files dir ".ckpt"))

let corrupt_then_recover ~corrupt () =
  with_tmpdir @@ fun dir ->
  let s = spec ~budget:16 () in
  crashed_journal dir ~steps:2 [ ("a", s) ];
  (match journal_files dir ".ckpt" with
  | [ f ] -> corrupt (Filename.concat dir f)
  | l -> Alcotest.failf "expected one checkpoint, found %d" (List.length l));
  let engine = Serve.create (Serve.default_config ~journal_dir:dir ()) in
  Alcotest.(check int) "session recovered" 1 (Serve.recover engine);
  let responses = drive engine in
  Alcotest.(check string) "fresh rerun = solo" (solo_json s)
    (ok_result (response_of responses "a"));
  Alcotest.(check int) "bad checkpoint parked" 1
    (List.length (journal_files dir ".ckpt.bad"))

let test_truncated_checkpoint_recovers () =
  corrupt_then_recover () ~corrupt:(fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let half = really_input_string ic (n / 2) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc half;
      close_out oc)

let test_version_mismatch_recovers () =
  corrupt_then_recover () ~corrupt:(fun path ->
      let oc = open_out_bin path in
      output_string oc "ALTCKPT\001";
      Marshal.to_channel oc (999 : int) [];
      Marshal.to_channel oc "stale payload" [];
      close_out oc)

(* ------------------------------------------------------------------ *)
(* Admission control and deadlines                                    *)
(* ------------------------------------------------------------------ *)

let test_overload_sheds_structurally () =
  let engine =
    Serve.create (Serve.default_config ~max_active:1 ~max_queue:1 ())
  in
  let specs =
    List.init 4 (fun i -> (Fmt.str "o%d" i, spec ~seed:(100 + i) ~budget:8 ()))
  in
  let immediate =
    List.concat_map (fun (id, s) -> Serve.submit engine (tune ~id s)) specs
  in
  Alcotest.(check int) "two requests shed" 2 (List.length immediate);
  Alcotest.(check int) "shed counter" 2 (Serve.shed_count engine);
  List.iter
    (fun (_, j) ->
      Alcotest.(check string) "status" "rejected" (status_of j);
      Alcotest.(check (option string))
        "reason" (Some "overloaded")
        (Option.bind (Json.member "reason" j) Json.to_string_opt);
      match Option.bind (Json.member "retry_after_ms" j) Json.to_int_opt with
      | Some ms -> Alcotest.(check bool) "retry hint positive" true (ms > 0)
      | None -> Alcotest.fail "rejection without retry_after_ms")
    immediate;
  (* the admitted two complete unperturbed by the shedding *)
  let responses = drive engine in
  List.iteri
    (fun i (id, s) ->
      if i < 2 then
        Alcotest.(check string)
          ("admitted " ^ id ^ " = solo")
          (solo_json s)
          (ok_result (response_of responses id)))
    specs;
  Alcotest.(check int) "two completed" 2 (Serve.completed_count engine)

let test_deadline_parks_resumable () =
  with_tmpdir @@ fun dir ->
  let engine = Serve.create (Serve.default_config ~journal_dir:dir ()) in
  let s = spec ~budget:16 () in
  ignore
    (Serve.submit engine
       (Proto.Tune { id = "d"; spec = s; deadline_rounds = Some 1 }));
  let responses = drive engine in
  let j = response_of responses "d" in
  Alcotest.(check string) "deadline status" "deadline" (status_of j);
  Alcotest.(check (option bool))
    "resumable" (Some true)
    (Option.bind (Json.member "resumable" j) (function
      | Json.Bool b -> Some b
      | _ -> None));
  Alcotest.(check int) "nothing completed" 0 (Serve.completed_count engine);
  Alcotest.(check int) "checkpoint kept" 1
    (List.length (journal_files dir ".ckpt"));
  Alcotest.(check int) "request journal dropped" 0
    (List.length (journal_files dir ".req.json"));
  (* resubmission resumes from the checkpoint and matches an
     uninterrupted solo run byte-for-byte *)
  ignore (Serve.submit engine (tune ~id:"d2" s));
  let responses = drive engine in
  Alcotest.(check string) "resumed = solo" (solo_json s)
    (ok_result (response_of responses "d2"))

let test_graceful_shutdown_and_restart () =
  with_tmpdir @@ fun dir ->
  let cfg = Serve.default_config ~max_active:2 ~journal_dir:dir () in
  let engine = Serve.create cfg in
  let specs = [ ("a", spec ~budget:16 ()); ("b", spec ~op:c2d_op ~budget:16 ()) ] in
  List.iter (fun (id, s) -> ignore (Serve.submit engine (tune ~id s))) specs;
  ignore (Serve.step engine : (string * Json.t) list);
  let responses = Serve.shutdown engine in
  List.iter
    (fun (id, _) ->
      let j = response_of responses id in
      Alcotest.(check string) (id ^ " interrupted") "interrupted" (status_of j))
    specs;
  Alcotest.(check bool) "pool closed" true (Pool.is_closed cfg.Serve.pool);
  Alcotest.(check bool) "engine idle" false (Serve.has_work engine);
  Alcotest.(check int) "journals survive shutdown" 2
    (List.length (journal_files dir ".req.json"));
  (* a restarted engine picks the sessions up and finishes them *)
  let engine = Serve.create (Serve.default_config ~max_active:2 ~journal_dir:dir ()) in
  Alcotest.(check int) "recovered" 2 (Serve.recover engine);
  let responses = drive engine in
  List.iter
    (fun (id, s) ->
      Alcotest.(check string)
        ("after restart " ^ id ^ " = solo")
        (solo_json s)
        (ok_result (response_of responses id)))
    specs

(* ------------------------------------------------------------------ *)
(* Pipe-mode daemon over real fds                                     *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_frames bytes =
  let d = Proto.Frames.create () in
  Proto.Frames.feed d bytes;
  let rec go acc =
    match Proto.Frames.next d with
    | Ok (Some p) -> (
        match Json.parse p with
        | Ok j -> go (j :: acc)
        | Error e -> Alcotest.failf "daemon emitted bad JSON: %s" e)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "daemon emitted a bad frame: %s" e
  in
  go []

(* Runs a pipe daemon over raw request payloads, one frame each. *)
let run_pipe_on_payloads payloads =
  with_tmpdir @@ fun dir ->
  let in_path = Filename.concat dir "in.bin" in
  let out_path = Filename.concat dir "out.bin" in
  let oc = open_out_bin in_path in
  List.iter (fun p -> output_string oc (Proto.frame p)) payloads;
  close_out oc;
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let output =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let engine = Serve.create (Serve.default_config ~max_active:2 ()) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close input;
      Unix.close output)
    (fun () -> Daemon.run_pipe ~input ~output engine);
  parse_frames (read_file out_path)

let run_pipe_on_file ~requests =
  run_pipe_on_payloads
    (List.map (fun r -> Json.to_string (Proto.request_to_json r)) requests)

let frame_by_id frames id =
  match
    List.find_opt
      (fun j -> Option.bind (Json.member "id" j) Json.to_string_opt = Some id)
      frames
  with
  | Some j -> j
  | None -> Alcotest.failf "no frame for id %S" id

let test_pipe_daemon_end_to_end () =
  let s = spec () in
  let frames =
    run_pipe_on_file
      ~requests:
        [
          Proto.Stats { id = "s" };
          tune ~id:"t" s;
          Proto.Compile
            { id = "c"; op = gmm_op; machine = "intel-cpu"; preset = "alt" };
        ]
  in
  let by_id = frame_by_id frames in
  Alcotest.(check string) "stats ok" "ok" (status_of (by_id "s"));
  Alcotest.(check string) "compile ok" "ok" (status_of (by_id "c"));
  Alcotest.(check bool) "compile has program" true
    (Json.member "program" (by_id "c") <> None);
  Alcotest.(check string) "tune = solo over the pipe" (solo_json s)
    (ok_result (by_id "t"))

(* Oversized or out-of-range specs are structured rejects at decode
   time, and the daemon still answers the valid request that follows. *)
let oversized_specs =
  [
    ("budget", Fmt.str {|{"budget":%d}|} (Workload.max_budget + 1));
    ("max_points", {|{"max_points":0}|});
    ("watchdog", {|{"watchdog_points":0}|});
    ( "gmm elements",
      {|{"op":{"kind":"gmm","spatial":4096,"channels":4096,|}
      ^ {|"out_channels":4096}}|} );
    ( "c2d elements",
      {|{"op":{"kind":"c2d","batch":64,"channels":256,|}
      ^ {|"out_channels":256,"spatial":224}}|} );
    ( "huge extents",
      Fmt.str {|{"op":{"kind":"gmm","spatial":%d,"channels":%d}}|}
        (max_int / 2) (max_int / 2) );
  ]

let test_oversized_specs_rejected () =
  let payloads =
    List.map
      (fun (what, spec_json) ->
        Fmt.str {|{"kind":"tune","id":%S,"spec":%s}|} what spec_json)
      oversized_specs
  in
  List.iter
    (fun payload ->
      match Proto.parse_request payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" payload)
    payloads;
  let s = spec () in
  let valid = Json.to_string (Proto.request_to_json (tune ~id:"ok" s)) in
  let frames = run_pipe_on_payloads (payloads @ [ valid ]) in
  Alcotest.(check int) "one reply per request"
    (List.length payloads + 1)
    (List.length frames);
  List.iteri
    (fun i j ->
      if i < List.length payloads then
        Alcotest.(check string) "structured reject" "error" (status_of j))
    frames;
  Alcotest.(check string) "valid request still served" (solo_json s)
    (ok_result (frame_by_id frames "ok"))

let test_pipe_daemon_rejects_bad_stream () =
  with_tmpdir @@ fun dir ->
  let in_path = Filename.concat dir "in.bin" in
  let out_path = Filename.concat dir "out.bin" in
  let oc = open_out_bin in_path in
  output_string oc "this is not a frame\n";
  close_out oc;
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let output =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let engine = Serve.create (Serve.default_config ()) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close input;
      Unix.close output)
    (fun () -> Daemon.run_pipe ~input ~output engine);
  match parse_frames (read_file out_path) with
  | [ j ] ->
      Alcotest.(check string) "structured error" "error" (status_of j)
  | l -> Alcotest.failf "expected one error frame, got %d" (List.length l)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "framing roundtrip" `Quick test_framing_roundtrip;
          Alcotest.test_case "strict framing errors" `Quick test_framing_strict;
          Alcotest.test_case "request codec roundtrip" `Quick
            test_request_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "context isolation + first writer wins" `Quick
            test_store_isolation_and_first_writer;
          Alcotest.test_case "session/context key coverage" `Quick
            test_context_keys;
        ] );
      ( "engine",
        [
          Alcotest.test_case "concurrent sessions = solo runs" `Quick
            test_concurrent_equals_solo;
          Alcotest.test_case "duplicate submit attaches" `Quick
            test_duplicate_submit_attaches;
          Alcotest.test_case "results shared within a context" `Quick
            test_result_sharing_within_context;
          Alcotest.test_case "quarantine shared within a context" `Quick
            test_quarantine_sharing_within_context;
        ] );
      qsuite "engine-props" [ prop_daemon_differential ];
      ( "recovery",
        [
          Alcotest.test_case "crash + recover = solo, byte-identical" `Quick
            test_crash_recovery_byte_identical;
          Alcotest.test_case "truncated checkpoint parked, rerun ok" `Quick
            test_truncated_checkpoint_recovers;
          Alcotest.test_case "version-mismatch checkpoint parked, rerun ok"
            `Quick test_version_mismatch_recovers;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overload sheds structurally" `Quick
            test_overload_sheds_structurally;
          Alcotest.test_case "deadline parks resumable" `Quick
            test_deadline_parks_resumable;
          Alcotest.test_case "graceful shutdown + restart" `Quick
            test_graceful_shutdown_and_restart;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "pipe daemon end to end" `Quick
            test_pipe_daemon_end_to_end;
          Alcotest.test_case "pipe daemon rejects a bad stream" `Quick
            test_pipe_daemon_rejects_bad_stream;
          Alcotest.test_case "oversized specs rejected" `Quick
            test_oversized_specs_rejected;
        ] );
    ]
