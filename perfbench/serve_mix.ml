(* The serve_mix workload: an in-process Serve engine with a journal,
   driven by a closed loop of a few logical clients.  The traffic mix is
   built into the stream, so it is the same in every episode, at every
   seed and for any number of clients:

   - fresh contexts: one session per operator at tuner seed 0.  Nothing
     has measured its context yet, so it writes to the Store;
   - exact duplicates: every fresh request is sent twice, back to back,
     so the twin always attaches to the session of the first;
   - shared contexts: once every fresh session has answered, one session
     per operator at tuner seed 1.  Its context (operator, not seed) is
     already in the Store, so it reads from it.

   A client holds one unit at a time, a twin pair or a single request,
   and sends its next unit only when every request of the unit is
   answered.  Every episode starts a fresh engine on a fresh journal and
   replays the same stream; the seed draws the order of the operators in
   each phase. *)

open Alt

let ops =
  [
    { Workload.default_op with
      kind = "c2d"; channels = 16; out_channels = 32; spatial = 14 };
    { Workload.default_op with
      kind = "gmm"; channels = 64; out_channels = 64; spatial = 64 };
    { Workload.default_op with kind = "dep"; channels = 64; spatial = 14 };
  ]

let fresh_seed = 0
let shared_seed = 1

let spec op seed =
  { Workload.default_tune_spec with
    Workload.op; seed; budget = 96; max_points = 10_000 }

(* Every spec the stream sends. *)
let specs =
  List.concat_map (fun op -> [ spec op fresh_seed; spec op shared_seed ]) ops

(* At most one client per core. *)
let clients = max 1 (min 2 (Domain.recommended_domain_count ()))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The seeded stream: its phases, each a list of units, each unit the
   requests one client sends back to back. *)
let stream seed =
  let rng = Random.State.make [| seed |] in
  let order () = Array.to_list (shuffle rng (Array.of_list ops)) in
  let fresh = List.map (fun op -> [ spec op fresh_seed; spec op fresh_seed ]) (order ()) in
  let shared = List.map (fun op -> [ spec op shared_seed ]) (order ()) in
  [ fresh; shared ]

type episode = {
  setup_s : float;
  wall_s : float;
  requests : int;
  session_ms : float list; (* submit to ok, per answered request *)
  step_s : float list; (* per Serve.step call *)
  ok : (Workload.tune_spec * string) list; (* spec, result JSON *)
  attached : int; (* requests sent while their session was running *)
  trials : int; (* trials spent by the sessions that ran *)
  not_ok : int; (* rejected, failed or deadline responses *)
  completed : int; (* Serve.completed_count *)
  rounds : int; (* Serve.rounds_stepped *)
  shed : int; (* Serve.shed_count *)
  store : Store.stats list; (* cumulative, at the end of each phase *)
}

(* One episode.  Serve steps its active sessions round robin; the
   episode mirrors that queue, so it knows which session each step ran
   (every answer a step returns is checked against the mirror).  After
   each step it emits a [bench.serve.step] instant naming that session
   as [tag] plus its number, which lets the ledger attribute fit time
   per session.  Answering and submitting between steps run under a
   [bench.serve.client] span, so that the client loop is not counted as
   tuner time. *)
let episode ?(tag = 0) ~stream ~dir () : episode =
  (if Sys.file_exists dir then
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir));
  let (engine, store), setup_s =
    Util.time (fun () ->
        let cfg = Serve.default_config ~jobs:1 ~journal_dir:dir () in
        (Serve.create cfg, cfg.Serve.store))
  in
  let phases = ref (List.tl stream) and units = ref (List.hd stream) in
  let store_at = ref [] in
  (* request id -> (spec, submit time, whether it attached, unit) *)
  let inflight = Hashtbl.create 8 in
  (* unit -> requests not yet answered *)
  let busy = Hashtbl.create 4 in
  (* the mirrored active queue, and session key -> session number *)
  let active = Queue.create () and running = Hashtbl.create 8 in
  let next_id = ref 0 and next_unit = ref 0 and sessions = ref 0 in
  let session_ms = ref [] and step_s = ref [] and ok = ref [] in
  let attached = ref 0 and trials = ref 0 and not_ok = ref 0 in
  let answer (id, json) =
    let spec, t0, att, u = Hashtbl.find inflight id in
    Hashtbl.remove inflight id;
    (match Hashtbl.find busy u with
    | 1 -> Hashtbl.remove busy u
    | n -> Hashtbl.replace busy u (n - 1));
    match (Json.member "status" json, Json.member "result" json) with
    | Some (Json.String "ok"), Some result ->
        session_ms := (1e3 *. (Util.now () -. t0)) :: !session_ms;
        (if not att then
           match Option.bind (Json.member "spent" result) Json.to_int_opt with
           | Some n -> trials := !trials + n
           | None -> ());
        ok := (spec, Json.to_string result) :: !ok
    | _ ->
        Util.fail "request %s: %s" id (Json.to_string json);
        incr not_ok
  in
  let send u spec =
    let id = string_of_int !next_id in
    incr next_id;
    let skey = Workload.session_key spec in
    let att = Hashtbl.mem running skey in
    if att then incr attached;
    Hashtbl.replace inflight id (spec, Util.now (), att, u);
    match Serve.submit engine (Proto.Tune { id; spec; deadline_rounds = None }) with
    | [] ->
        if not att then begin
          Hashtbl.replace running skey (tag + !sessions);
          incr sessions;
          Queue.push skey active
        end
    | rs -> List.iter answer rs
  in
  let rec submit () =
    match !units with
    | unit :: rest when Hashtbl.length busy < clients ->
        units := rest;
        let u = !next_unit in
        incr next_unit;
        Hashtbl.replace busy u (List.length unit);
        List.iter (send u) unit;
        submit ()
    | [] when Hashtbl.length busy = 0 && !phases <> [] ->
        store_at := Store.stats store :: !store_at;
        units := List.hd !phases;
        phases := List.tl !phases;
        submit ()
    | _ -> ()
  in
  let client f = Trace.with_span "bench.serve.client" f in
  let t0 = Util.now () in
  client submit;
  while Hashtbl.length inflight > 0 && not (Queue.is_empty active) do
    let skey = Queue.pop active in
    let responses, dt = Util.time (fun () -> Serve.step engine) in
    step_s := dt :: !step_s;
    Trace.instant "bench.serve.step"
      ~attrs:[ ("task", Json.Int (Hashtbl.find running skey)) ];
    if responses = [] then Queue.push skey active
    else begin
      Hashtbl.remove running skey;
      List.iter
        (fun (id, _) ->
          match Hashtbl.find_opt inflight id with
          | Some (spec, _, _, _) when Workload.session_key spec = skey -> ()
          | _ -> Util.fail "serve: step answered %s, not a request of the stepped session" id)
        responses
    end;
    client (fun () ->
        List.iter answer responses;
        submit ())
  done;
  let wall_s = Util.now () -. t0 in
  if Hashtbl.length inflight > 0 then
    Util.fail "serve: %d requests never answered" (Hashtbl.length inflight);
  let e =
    {
      setup_s;
      wall_s;
      requests = !next_id;
      session_ms = !session_ms;
      step_s = !step_s;
      ok = !ok;
      attached = !attached;
      trials = !trials;
      not_ok = !not_ok;
      completed = Serve.completed_count engine;
      rounds = Serve.rounds_stepped engine;
      shed = Serve.shed_count engine;
      store = List.rev (Store.stats store :: !store_at);
    }
  in
  ignore (Serve.shutdown engine);
  e

(* The traffic mix, checked in every episode: one attach per operator,
   two sessions per operator, fresh sessions that write to the Store and
   shared-context sessions that read from it. *)
let check_mix (e : episode) =
  let n = List.length ops in
  if e.attached <> n then Util.fail "traffic: %d attached requests, expected %d" e.attached n;
  if e.completed <> 2 * n then
    Util.fail "traffic: %d sessions completed, expected %d" e.completed (2 * n);
  match e.store with
  | [ fresh; all ] ->
      if fresh.Store.result_inserts = 0 then
        Util.fail "traffic: the fresh sessions wrote nothing to the Store";
      if all.Store.result_hits = fresh.Store.result_hits then
        Util.fail "traffic: the shared-context sessions read nothing from the Store"
  | _ -> Util.fail "traffic: %d phases, expected 2" (List.length e.store)

(* Everything an episode must repeat exactly: every episode of a run
   replays the same stream. *)
let check_repeat = function
  | [] -> ()
  | (first : episode) :: rest ->
      let store (e : episode) =
        List.map (fun s -> (s.Store.result_hits, s.Store.result_inserts)) e.store
      in
      List.iter
        (fun (e : episode) ->
          Util.same "serve requests" first.requests e.requests;
          Util.same "serve attached" first.attached e.attached;
          Util.same "serve trials" first.trials e.trials;
          Util.same "serve rounds stepped" first.rounds e.rounds;
          Util.same "serve store hits and inserts" (store first) (store e);
          Util.same "serve results"
            (List.sort compare first.ok) (List.sort compare e.ok))
        rest

(* The oracle: each spec tuned solo.  A daemon result must equal its solo
   run byte for byte, have a finite best latency and a best schedule that
   lowers.  Returns, per spec, the best latency and the best program with
   its task. *)
let solo spec =
  let task = Workload.task_of_spec spec in
  let r =
    Tuner.tune_op ~seed:spec.Workload.seed ~system:(Workload.system_of_spec spec)
      ~budget:spec.Workload.budget task
  in
  let json = Json.to_string (Serve.json_of_tuner_result r) in
  let prog = Measure.program_of task r.Tuner.best_choice r.Tuner.best_schedule in
  if not (Float.is_finite r.Tuner.best_latency) then
    Util.fail "spec %s: best latency %g" (Workload.session_key spec)
      r.Tuner.best_latency;
  if prog = None then
    Util.fail "spec %s: best schedule does not lower" (Workload.session_key spec);
  (spec, (json, r.Tuner.best_latency, prog, task))

(* Wrong results among an episode's ok responses. *)
let check oracle (e : episode) =
  List.fold_left
    (fun bad (spec, json) ->
      let expected, lat, prog, _ = List.assoc spec oracle in
      if json = expected && Float.is_finite lat && prog <> None then bad
      else begin
        Util.fail "spec %s: daemon result is wrong or differs from its solo run"
          (Workload.session_key spec);
        bad + 1
      end)
    0 e.ok

let ground_truth (e : episode) =
  let ok = List.length e.ok in
  if e.completed <> ok - e.attached then
    Util.fail "ground truth: completed_count %d, observed %d" e.completed
      (ok - e.attached);
  if e.shed <> e.not_ok then
    Util.fail "ground truth: shed_count %d, observed %d" e.shed e.not_ok;
  if e.rounds <> List.length e.step_s - e.completed then
    Util.fail "ground truth: rounds_stepped %d, observed %d" e.rounds
      (List.length e.step_s - e.completed)

(* The best program of every spec with its inputs. *)
let best_programs oracle =
  List.filter_map
    (fun (_, (_, _, prog, (task : Measure.task))) ->
      Option.map (fun p -> (p, task.Measure.feeds)) prog)
    oracle

let run_episodes ~stream ~seconds ~dir =
  let t0 = Util.now () in
  let eps = ref [] in
  while List.length !eps < 3 || Util.now () -. t0 < seconds do
    eps := episode ~stream ~dir () :: !eps
  done;
  List.rev !eps

(* The checks every episode of a run gets.  The episodes repeat exactly,
   so the traffic of the first is printed to stderr for all of them. *)
let check_all oracle eps =
  List.iter ground_truth eps;
  List.iter check_mix eps;
  check_repeat eps;
  (match eps with
  | e :: _ ->
      let phase (s : Store.stats) (p : Store.stats) =
        Fmt.str "%d hits, %d inserts" (s.Store.result_hits - p.Store.result_hits)
          (s.Store.result_inserts - p.Store.result_inserts)
      in
      let zero = { Store.result_hits = 0; result_inserts = 0;
                   quarantine_hits = 0; quarantine_inserts = 0 } in
      let fresh, shared =
        match e.store with [ a; b ] -> (phase a zero, phase b a) | _ -> ("?", "?")
      in
      Fmt.epr
        "perfbench: serve traffic per episode, clients %d: %d requests, %d \
         attached, %d sessions; Store in the fresh phase %s, in the \
         shared-context phase %s@."
        clients e.requests e.attached e.completed fresh shared
  | [] -> ());
  List.fold_left (fun a e -> a + check oracle e) 0 eps

let journal tmp = Filename.concat tmp "journal"

(* What a daemon pays before it can take requests: Serve.create and
   Serve.recover on an empty journal.  One engine takes microseconds, so
   a sample times a batch of them. *)
let setup_sample ~tmp =
  let dir = Filename.concat tmp "setup" and batch = 20 in
  let engines, dt =
    Util.time (fun () ->
        List.init batch (fun _ ->
            let e = Serve.create (Serve.default_config ~jobs:1 ~journal_dir:dir ()) in
            ignore (Serve.recover e);
            e))
  in
  List.iter (fun e -> ignore (Serve.shutdown e)) engines;
  dt /. float_of_int batch

(* One exec sample of every spec's best program, joined to [samples].
   Buffers are fresh for every sample, so that no one placement in
   memory decides the run. *)
let exec_round samples progs =
  List.iteri
    (fun i (p, inputs) ->
      let bufs = Runtime.alloc_bufs p ~inputs in
      samples.(i) <- (Exec.measure p ~bufs).Exec.median_ms :: samples.(i))
    progs

(* tracing off: the end-to-end metrics.  Set-ups, episodes and exec
   rounds interleave for the whole run, so that each median samples the
   same stretch of machine time. *)
let run_plain ~seed ~seconds ~tmp : Report.t =
  let oracle = List.map solo specs in
  let stream = stream seed and progs = best_programs oracle in
  let samples = Array.make (List.length progs) [] in
  let t0 = Util.now () in
  let eps = ref [] and setups = ref [] in
  while List.length !eps < 3 || Util.now () -. t0 < seconds do
    setups := setup_sample ~tmp :: !setups;
    eps := episode ~stream ~dir:(journal tmp) () :: !eps;
    exec_round samples progs
  done;
  let exec_ms = Array.to_list (Array.map Util.median samples) in
  let eps = List.rev !eps in
  let bad = check_all oracle eps in
  let sum f = List.fold_left (fun a e -> a + f e) 0 eps in
  let wall = Util.sum (List.map (fun e -> e.wall_s) eps) in
  {
    Report.attempted = sum (fun e -> e.requests);
    failed = bad + sum (fun e -> e.not_ok);
    metrics =
      [
        ("setup_s", Util.median !setups, "s");
        ("compile_s", Util.median (List.map (fun e -> e.wall_s) eps), "s");
        ("trials_per_s", float_of_int (sum (fun e -> e.trials)) /. wall, "1/s");
        ( "model_sim_ms",
          Util.geomean (List.map (fun (_, (_, l, _, _)) -> l) oracle),
          "sim_ms" );
        ("model_exec_ms", Util.geomean exec_ms, "ms");
        ("peak_heap_mb", Util.peak_heap_mb (), "MB");
      ];
  }

(* tracing on: session latencies from untraced episodes, then the same
   stream replayed under the trace for the per-layer figures.  Metric
   collection is on throughout, so the tracing overhead is that of the
   trace alone. *)
let run_traced ~seed ~seconds ~tmp : Report.t =
  let oracle = List.map solo specs in
  let stream = stream seed and dir = journal tmp in
  Metrics.enable ();
  let plain = run_episodes ~stream ~seconds:(0.5 *. seconds) ~dir in
  Metrics.reset ();
  let n = min 5 (List.length plain) in
  let traced, t =
    Ledger.record ~path:(Filename.concat tmp "serve.jsonl") (fun () ->
        List.init n (fun i ->
            let before = Util.read Util.relation_counters in
            let e =
              Trace.with_span "bench.serve.episode" (fun () ->
                  episode ~tag:(100 * i) ~stream ~dir ())
            in
            (e, Util.delta before (Util.read Util.relation_counters))))
  in
  let rels = List.map snd traced and traced = List.map fst traced in
  (* the Layout memo is warm: the solo tunes and the untraced episodes
     have run the same specs, so every traced episode must count the same *)
  List.iter (Util.same "layout.relation counts per episode" (List.hd rels)) rels;
  let rounds = Util.counter "tuner.rounds" and runs = Util.counter "profiler.runs" in
  let batches = Util.counter "pool.batches" in
  let tasks = Util.counter "pool.tasks.submitted" in
  Metrics.disable ();
  let bad = check_all oracle (plain @ traced) in
  let sum f = List.fold_left (fun a e -> a + f e) 0 traced in
  let f = float_of_int in
  let saves = Ledger.named t "checkpoint.save" in
  if rounds <> List.length (Ledger.instants t "tuner.round") then
    Util.fail "ground truth: tuner.rounds %d, observed %d" rounds
      (List.length (Ledger.instants t "tuner.round"));
  if runs <> Ledger.count t "profiler.run" then
    Util.fail "ground truth: profiler.runs %d, observed %d" runs
      (Ledger.count t "profiler.run");
  if List.length saves <> sum (fun e -> e.rounds) then
    Util.fail "ground truth: %d checkpoint saves, %d rounds stepped" (List.length saves)
      (sum (fun e -> e.rounds));
  let batch_attr k =
    Util.sum
      (List.map
         (fun s -> Option.value ~default:0.0 (Ledger.float_attr k s.Ledger.attrs))
         (Ledger.named t "measure.batch"))
  in
  let fits = Ledger.fits ~closer:"bench.serve.step" t in
  let fit_s = Util.sum (List.map snd fits.Ledger.per_task) in
  let max_task_fit =
    List.fold_left (fun a (_, s) -> Float.max a s) 0.0 fits.Ledger.per_task
  in
  let sessions = List.concat_map (fun e -> e.session_ms) plain in
  (* session fibers keep spans open across steps, so a step cannot be a
     span of its own; the episode times each Serve.step call *)
  let steps = List.concat_map (fun e -> e.step_s) traced in
  let step_p, step_tail = Util.tail steps and ses_p, ses_tail = Util.tail sessions in
  let hits = sum (fun e -> (List.nth e.store 1).Store.result_hits) in
  let inserts = sum (fun e -> (List.nth e.store 1).Store.result_inserts) in
  let walls eps = List.map (fun e -> e.wall_s) eps in
  let traced_wall = Util.sum (walls traced) in
  let rel name = f (List.assoc name (List.hd rels) * n) in
  {
    Report.attempted = List.fold_left (fun a e -> a + e.requests) 0 (plain @ traced);
    failed = bad + List.fold_left (fun a e -> a + e.not_ok) 0 (plain @ traced);
    metrics =
      Ledger.measurement_metrics t
      @ [
        ( "tuner.measure.cache_hit_ratio",
          1.0 -. Util.ratio (batch_attr "pending") (batch_attr "n"),
          "ratio" );
        ("tuner.checkpoint.save_s", Ledger.total t "checkpoint.save", "s");
        ("tuner.checkpoint.saves", f (List.length saves), "count");
        ("tuner.other_s", Ledger.self_prefix t [ "tuner." ] -. fit_s, "s");
        ("costmodel.fit_s", fit_s, "s");
        ("costmodel.fit_max_ms", fits.Ledger.max_ms, "ms");
        ("costmodel.fit_share", Util.ratio fit_s traced_wall, "ratio");
        ("costmodel.max_task_fit_share", Util.ratio max_task_fit fit_s, "ratio");
        ("costmodel.unpaired_rounds", f fits.Ledger.unpaired, "count");
        ("tensor.relation.validate", rel "layout.relation.validate", "count");
        ("tensor.relation.compose", rel "layout.relation.compose", "count");
        ("parallel.pool.tasks", f tasks, "count");
        ("parallel.pool.batches", f batches, "count");
        ("serve.store.hit_ratio", Util.ratio (f hits) (f (hits + inserts)), "ratio");
        ("serve.attached", f (sum (fun e -> e.attached)), "count");
        ("serve.shed", f (sum (fun e -> e.shed)), "count");
        ("serve.rounds_stepped", f (sum (fun e -> e.rounds)), "count");
        ("serve.step_s_p50", Util.median steps, "s");
        ("serve.step_s_tail", step_tail, "s");
        ("serve.step_s_tail_pct", step_p, "pct");
        ("serve.sessions", f (List.length sessions), "count");
        ("serve.sessions_per_s", f (List.length sessions) /. Util.sum (walls plain), "1/s");
        ("serve.session_ms_p50", Util.median sessions, "ms");
        ("serve.session_ms_tail", ses_tail, "ms");
        ("serve.session_ms_tail_pct", ses_p, "pct");
        ( "obs.trace_overhead",
          Util.median (walls traced) /. Util.median (walls plain),
          "ratio" );
      ];
  }

let run ~traced ~seed ~seconds ~tmp =
  if traced then run_traced ~seed ~seconds ~tmp else run_plain ~seed ~seconds ~tmp
