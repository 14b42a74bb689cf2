(* Gradient task scheduler (DESIGN.md §14).

   One global trial budget across a whole model zoo.  Every unique task
   (deduplicated by Taskset.signature across all graphs) runs as a
   suspendable tuner fiber (Tuner.Step); the scheduler repeatedly picks a
   fiber and steps it one measurement round.  Policies:

   - Static: run the fibers to completion in first-seen order, each capped
     at its static per-task share — the paper's fixed budget split, and
     the default of Graph_tuner.tune_graph;
   - Roundrobin: step the least-recently-picked unfinished fiber;
   - Gradient: Ansor-style expected-gain allocation.  A task's weight is
     its zoo latency share (occurrence count x best-so-far latency) times
     the recent improvement slope of its own trajectory (over its last
     [slope_rounds] = 5 rounds); every [heartbeat_period]-th (7th) pick
     instead goes to the least-recently-picked task, so every task keeps
     a round-robin heartbeat (starvation freedom) and a plateaued
     estimate can still be revised.

   Every scheduling input — spent trials, rounds, best latencies — is a
   deterministic function of the simulated measurements, and no RNG is
   drawn, so trajectories are byte-identical for every --jobs value
   (Pool results are submission-ordered).  Cross-task cost-model transfer
   (on by default under Gradient) registers every fitted GBDT under its
   Taskset.transfer_key; a task's first fit warm-starts from the latest
   ensemble published by a similar task, via Gbdt.refit. *)

module Graph = Alt_graph.Graph
module Gbdt = Alt_costmodel.Gbdt
module Pool = Alt_parallel.Pool

let src = Logs.Src.create "alt.scheduler" ~doc:"ALT gradient task scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

type policy = Gradient | Roundrobin | Static

let policy_name = function
  | Gradient -> "gradient"
  | Roundrobin -> "roundrobin"
  | Static -> "static"

let policy_of_string = function
  | "gradient" -> Some Gradient
  | "roundrobin" -> Some Roundrobin
  | "static" -> Some Static
  | _ -> None

type make_tuner =
  pool:Pool.t ->
  share:int ->
  total:int ->
  transfer:Tuner.transfer option ->
  stop:(unit -> bool) ->
  on_progress:(Tuner.progress -> unit) ->
  Measure.task ->
  Tuner.result
(* Builds and runs one task's tuner.  [share] is the task's static slice
   of the global budget (the phase split — e.g. ALT's joint stage — is
   derived from it, so Static runs the paper's fixed per-task split);
   [total] caps the fiber's own budget and exceeds [share] under
   Gradient/Roundrobin so the scheduler may keep feeding a
   well-improving task past its share. *)

type task_report = {
  signature : string;
  occurrences : (string * int) list;
  trials : int;
  rounds : int;
  best_latency : float;
  transferred : bool; (* first GBDT fit warm-started from a donor *)
  result : Tuner.result;
}

type report = {
  policy : policy;
  budget : int;
  share : int;
  spent : int;
  picks : int;
  eps_picks : int;
  transfer : bool;
  tasks : task_report list; (* first-seen order *)
  curves : (string * (int * float) list) list;
      (* per model: (global trials spent, estimated model latency) *)
}

(* Per-fiber scheduling state. *)
type tstate = {
  entry : Taskset.entry;
  task : Measure.task;
  fiber : Tuner.Step.t;
  occ : int; (* total occurrences across the zoo, >= 1 *)
  transferred : bool ref;
  mutable steps : int; (* scheduler steps taken on this fiber *)
  mutable last_pick : int; (* global pick counter at last pick; 0 = never *)
  mutable best : float; (* best-so-far latency, ms *)
  mutable hist : (int * float) list; (* (task trials, best), newest first *)
}

let warmup_steps = 2

(* every [heartbeat_period]-th Gradient pick is a round-robin heartbeat *)
let heartbeat_period = 7

(* a task's improvement slope spans its last [slope_rounds] rounds *)
let slope_rounds = 5

(* Improvement per trial over the task's recent own-step history, clamped
   at zero: the scheduler only ever rewards improvement.  A task whose
   window straddles the first finite measurement gets an infinite slope —
   it just produced its first real signal and is stepped immediately. *)
let slope (ts : tstate) : float =
  match ts.hist with
  | (t_new, b_new) :: (_ :: _ as rest) when Float.is_finite b_new ->
      let t_old, b_old = List.nth rest (List.length rest - 1) in
      if not (Float.is_finite b_old) then Float.infinity
      else
        let d = b_old -. b_new in
        if d <= 0.0 then 0.0 else d /. float_of_int (max 1 (t_new - t_old))
  | _ -> 0.0

(* The task's share of the zoo's end-to-end latency estimate. *)
let zoo_share (ts : tstate) : float = float_of_int ts.occ *. ts.best

let m_picks = Alt_obs.Metrics.counter "scheduler.picks"
let m_eps_picks = Alt_obs.Metrics.counter "scheduler.eps_picks"
let m_rounds = Alt_obs.Metrics.counter "scheduler.rounds"
let g_tasks = Alt_obs.Metrics.gauge "scheduler.tasks"

let tune_models ?(jobs = 1) ?transfer ~(policy : policy)
    ~(make_task : Taskset.entry -> Measure.task)
    ~(make_tuner : make_tuner) ~(budget : int)
    (graphs : (string * Graph.t) list) : report =
  Alt_obs.Trace.with_span "scheduler.tune_models" @@ fun () ->
  let entries = Taskset.of_graphs graphs in
  let n = List.length entries in
  let share = max 8 (budget / max 1 n) in
  let transfer_on =
    match transfer with Some b -> b | None -> policy = Gradient
  in
  let total = match policy with Static -> share | _ -> budget in
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool)
  @@ fun () ->
  (* the transfer registry: latest fitted ensemble per transfer key *)
  let registry : (string, Gbdt.t) Hashtbl.t = Hashtbl.create 16 in
  let states =
    Array.of_list
      (List.map
         (fun (e : Taskset.entry) ->
           let task = make_task e in
           let transferred = ref false in
           let tx =
             if not transfer_on then None
             else
               let key = Taskset.transfer_key e.Taskset.node.Graph.op in
               Some
                 {
                   Tuner.donor =
                     (fun () ->
                       match Hashtbl.find_opt registry key with
                       | Some m ->
                           transferred := true;
                           Some m
                       | None -> None);
                   publish = (fun m -> Hashtbl.replace registry key m);
                 }
           in
           let fiber =
             Tuner.Step.start (fun ~stop ~on_progress ->
                 make_tuner ~pool ~share ~total ~transfer:tx ~stop
                   ~on_progress task)
           in
           {
             entry = e;
             task;
             fiber;
             occ = max 1 (Taskset.occurrences_total e);
             transferred;
             steps = 0;
             last_pick = 0;
             best = Float.infinity;
             hist = [];
           })
         entries)
  in
  if Alt_obs.Metrics.enabled () then Alt_obs.Metrics.set g_tasks (float_of_int n);
  (* per-model curve recording: which entries a model uses, with counts *)
  let models = Array.of_list (List.map fst graphs) in
  let model_entries =
    Array.map
      (fun m ->
        List.filter_map
          (fun i ->
            match List.assoc_opt m states.(i).entry.Taskset.occurrences with
            | Some c when c > 0 -> Some (i, c)
            | _ -> None)
          (List.init n Fun.id))
      models
  in
  let curves = Array.map (fun _ -> ref []) models in
  let total_spent () =
    Array.fold_left (fun a ts -> a + ts.task.Measure.spent) 0 states
  in
  let record_curves () =
    let spent = total_spent () in
    Array.iteri
      (fun mi uses ->
        let est =
          List.fold_left
            (fun a (i, c) -> a +. (float_of_int c *. states.(i).best))
            0.0 uses
        in
        if Float.is_finite est && uses <> [] then
          match !(curves.(mi)) with
          | (_, prev) :: _ when prev = est -> ()
          | tl -> curves.(mi) := (spent, est) :: tl)
      model_entries
  in
  let runnable () =
    List.filter
      (fun i -> not (Tuner.Step.finished states.(i).fiber))
      (List.init n Fun.id)
  in
  let lru run =
    List.fold_left
      (fun acc i ->
        match acc with
        | Some j when states.(j).last_pick <= states.(i).last_pick -> acc
        | _ -> Some i)
      None run
    |> Option.get
  in
  let weight ts =
    let s = slope ts in
    if s <= 0.0 then 0.0 else zoo_share ts *. s
  in
  let argmax f run =
    match run with
    | [] -> invalid_arg "Scheduler: argmax on empty runnable set"
    | i0 :: rest ->
        fst
          (List.fold_left
             (fun (bi, bw) i ->
               let w = f states.(i) in
               if w > bw then (i, w) else (bi, bw))
             (i0, f states.(i0))
             rest)
  in
  let picks = ref 0 and eps_picks = ref 0 in
  let choose run =
    match policy with
    | Static -> List.hd run
    | Roundrobin -> lru run
    | Gradient -> (
        match List.filter (fun i -> states.(i).steps < warmup_steps) run with
        | i :: _ -> i (* implicit warmup: every task measures first *)
        | [] ->
            if !picks mod heartbeat_period = 0 then begin
              incr eps_picks;
              lru run
            end
            else
              let i = argmax weight run in
              if weight states.(i) > 0.0 then i
              else
                (* no task is improving: exploit the largest latency
                   share, where a revision moves the zoo estimate most *)
                argmax zoo_share run)
  in
  (* a backstop against tasks whose rounds cannot charge budget (nothing
     lowerable): the global loop is easy to bound deterministically *)
  let pick_cap = (budget * 8) + (n * 16) + 64 in
  let continue () =
    runnable () <> []
    &&
    match policy with
    | Static -> true
    | Gradient | Roundrobin ->
        total_spent () < budget && !picks < pick_cap
  in
  while continue () do
    let run = runnable () in
    incr picks;
    let i = choose run in
    let ts = states.(i) in
    ts.last_pick <- !picks;
    ts.steps <- ts.steps + 1;
    if Alt_obs.Metrics.enabled () then Alt_obs.Metrics.incr m_picks;
    (match Tuner.Step.step ts.fiber with
    | Tuner.Step.Done r -> ts.best <- r.Tuner.best_latency
    | Tuner.Step.Running p ->
        if Alt_obs.Metrics.enabled () then Alt_obs.Metrics.incr m_rounds;
        ts.best <- p.Tuner.best_latency;
        ts.hist <-
          List.filteri
            (fun k _ -> k < slope_rounds)
            ((p.Tuner.spent, p.Tuner.best_latency) :: ts.hist));
    if Alt_obs.Trace.enabled () then
      Alt_obs.Trace.instant "scheduler.pick"
        ~attrs:
          [
            ("pick", Alt_obs.Json.Int !picks);
            ("task", Alt_obs.Json.Int i);
            ("signature", Alt_obs.Json.String ts.entry.Taskset.signature);
            ("spent", Alt_obs.Json.Int ts.task.Measure.spent);
            ("best_latency_ms", Alt_obs.Json.Float ts.best);
          ];
    record_curves ()
  done;
  if Alt_obs.Metrics.enabled () then
    Alt_obs.Metrics.add_raw m_eps_picks !eps_picks;
  (* wind down: flip every fiber's stop probe and run its finalization —
     no further measurement rounds, best-so-far results all around *)
  let results = Array.map (fun ts -> Tuner.Step.finish ts.fiber) states in
  Array.iter (fun ts -> Measure.publish_obs ts.task) states;
  record_curves ();
  let tasks =
    List.init n (fun i ->
        let ts = states.(i) in
        let r = results.(i) in
        {
          signature = ts.entry.Taskset.signature;
          occurrences = ts.entry.Taskset.occurrences;
          trials = ts.task.Measure.spent;
          rounds = (Tuner.Step.progress ts.fiber).Tuner.rounds;
          best_latency = r.Tuner.best_latency;
          transferred = !(ts.transferred);
          result = r;
        })
  in
  Log.info (fun m ->
      m "scheduler %s: %d tasks, %d/%d trials in %d picks (%d eps)"
        (policy_name policy) n (total_spent ()) budget !picks !eps_picks);
  {
    policy;
    budget;
    share;
    spent = total_spent ();
    picks = !picks;
    eps_picks = !eps_picks;
    transfer = transfer_on;
    tasks;
    curves =
      Array.to_list
        (Array.mapi (fun mi m -> (m, List.rev !(curves.(mi)))) models);
  }
