(* Measurement harness: the "on-device measurements" of the tuning loop.

   A task fixes the operator (plus the elementwise chain that will be fused
   with it in the end-to-end flow), the machine model, random input data,
   and the per-measurement simulation point budget.  Candidates that fail
   to lower (illegal layout/schedule combinations) report [None] and cost
   no budget, mirroring real tuners that filter invalid configs before
   measuring.

   Two things distinguish this from a naive measure-one-at-a-time loop:

   - A keyed measurement cache.  Candidates are keyed by a canonical
     serialization of their *lowered program* (variables renamed to
     first-occurrence indices), so two (choice, schedule) pairs share a key
     exactly when they lower to the same program — common in the loop-only
     stage, where many points of the continuous loop space round to the
     same divisors.  A hit returns the stored simulator result without
     re-running the simulation; it still charges one unit of measurement
     budget, so the tuning trajectory is identical with and without the
     cache.

   - Batched, optionally parallel simulation ([measure_programs] /
     [measure_batch]).  Lowering and all mutation of the task (budget,
     cache, stats) happen on the calling domain in submission order; only
     the profiler runs of cache misses fan out over a {!Alt_parallel.Pool}.
     Since the profiler is deterministic and touches no shared state, the
     results — and therefore the whole tuning trajectory — are
     byte-identical for any pool size.

   - A fault-tolerant recovery policy.  Measurements can fail: an
     {!Alt_faults.Fault} injector makes simulations crash, time out, or
     flake deterministically per candidate (and a watchdog can kill
     candidates whose iteration count exceeds a hard point cap).  Every
     measurement reports a structured [outcome]; failed attempts are
     retried a bounded number of times with deterministic backoff, and
     candidates that keep failing land in a quarantine table so later
     proposals are answered immediately (with an infinite latency the
     explorers steer away from) instead of aborting the run.  With the
     injector off and the watchdog unset, the pipeline is byte-identical
     to the fault-free one. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Buffer = Alt_tensor.Buffer
module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Lower = Alt_ir.Lower
module Program = Alt_ir.Program
module Sexpr = Alt_ir.Sexpr
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime
module Propagate = Alt_graph.Propagate
module Pool = Alt_parallel.Pool
module Fault = Alt_faults.Fault
module Features = Alt_costmodel.Features

type cache_stats = { mutable hits : int; mutable misses : int }

type lower_stats = {
  mutable prog_hits : int;
  mutable prog_misses : int;
  mutable feat_hits : int;
  mutable feat_misses : int;
}

type fault_stats = {
  mutable faulted : int;
  mutable retried : int;
  mutable recovered : int;
  mutable quarantined : int;
  mutable backoff_ms : float;
}

(* The structured result of one measurement (see the .mli). *)
type outcome =
  | Ok of Profiler.result
  | Lower_error
  | Sim_error of string
  | Timeout
  | Quarantined

(* Hooks into a measurement store shared across tasks (the serve daemon's
   sharded cache/quarantine).  Imported entries land in the task's own
   tables before a batch's misses are computed, exactly like a checkpoint
   restore, so sharing is trajectory-neutral: hits still charge budget,
   and a candidate quarantined by one session is answered from quarantine
   by every other session in the same measurement context. *)
type shared_store = {
  s_find_result : string -> Profiler.result option;
  s_publish_result : string -> Profiler.result -> unit;
  s_find_quarantine : string -> string option;
  s_publish_quarantine : string -> string -> unit;
}

type buf_stats = { mutable buf_hits : int; mutable buf_misses : int }

(* Per-task physical-buffer reuse for the measurement path: packed input
   arrays keyed by (slot name, layout) — candidates sharing a layout
   share one immutable pack — and a per-length free list of output/temp
   scratch arrays, zero-filled on acquire (same state [Array.make _ 0.0]
   gives).  Mutex-protected: [simulate] runs on pool worker domains. *)
type buf_cache = {
  bc_lock : Mutex.t;
  bc_packs : (string, float array) Hashtbl.t;
  bc_scratch : (int, float array list ref) Hashtbl.t;
  bstats : buf_stats;
}

type task = {
  op : Opdef.t;
  fused : Opdef.t list;
  machine : Machine.t;
  max_points : int;
  fast : bool; (* line-granular fast simulation (counter-identical) *)
  backend : Runtime.backend; (* which device measures candidates *)
  feeds : (string * float array) list; (* logical data for all inputs *)
  bufcache : buf_cache;
  mutable spent : int; (* measurements consumed *)
  cache : (string, Profiler.result) Hashtbl.t;
      (* canonical program digest -> simulator result *)
  stats : cache_stats;
  faults : Fault.t;
  retries : int; (* extra attempts after a failed simulation *)
  watchdog_points : int option; (* hard cap on a candidate's points *)
  quarantine : (string, string) Hashtbl.t; (* digest -> failure reason *)
  fstats : fault_stats;
  memo : bool; (* (choice, schedule)-keyed lowering/feature memo cache *)
  lcache : (string, Program.t option) Hashtbl.t;
      (* candidate digest -> lowered program (or None: illegal) *)
  fcache : (string, float array) Hashtbl.t;
      (* candidate digest -> cost-model feature vector *)
  lstats : lower_stats;
  shared : shared_store option; (* cross-task result/quarantine sharing *)
}

(* All external input tensors of the task (op inputs + fused extras). *)
let task_inputs (op : Opdef.t) (fused : Opdef.t list) =
  let produced = ref [ op.Opdef.out_name ] in
  let acc = ref op.Opdef.inputs in
  List.iter
    (fun (f : Opdef.t) ->
      List.iter
        (fun (n, s) ->
          if (not (List.mem n !produced)) && not (List.mem_assoc n !acc) then
            acc := !acc @ [ (n, s) ])
        f.Opdef.inputs;
      produced := f.Opdef.out_name :: !produced)
    fused;
  !acc

let make_task ?(fused = []) ?(max_points = 40_000) ?(seed = 11)
    ?(faults = Fault.none) ?(retries = 2) ?watchdog_points ?(fast = true)
    ?(memo = true) ?(backend = Runtime.Sim) ?shared ~machine op =
  if retries < 0 then invalid_arg "Measure.make_task: retries must be >= 0";
  let feeds =
    List.mapi
      (fun i (n, s) -> (n, Buffer.random ~seed:(seed + i) s))
      (task_inputs op fused)
  in
  {
    op;
    fused;
    machine;
    max_points;
    fast;
    backend;
    feeds;
    bufcache =
      {
        bc_lock = Mutex.create ();
        bc_packs = Hashtbl.create 32;
        bc_scratch = Hashtbl.create 32;
        bstats = { buf_hits = 0; buf_misses = 0 };
      };
    spent = 0;
    cache = Hashtbl.create 64;
    stats = { hits = 0; misses = 0 };
    faults;
    retries;
    watchdog_points;
    quarantine = Hashtbl.create 8;
    fstats =
      { faulted = 0; retried = 0; recovered = 0; quarantined = 0;
        backoff_ms = 0.0 };
    memo;
    lcache = Hashtbl.create 256;
    fcache = Hashtbl.create 256;
    lstats = { prog_hits = 0; prog_misses = 0; feat_hits = 0; feat_misses = 0 };
    shared;
  }

let cache_stats t = t.stats
let fault_stats t = t.fstats
let lower_stats t = t.lstats
let buf_stats t = t.bufcache.bstats
let lower_cache_sizes t = (Hashtbl.length t.lcache, Hashtbl.length t.fcache)

(* Digest of a candidate's (choice, schedule) pair — the key of the
   lowering/feature memo cache.  Both are pure immutable data (shapes,
   layout primitive lists, tile arrays), so their marshalled bytes are a
   canonical serialization: equal values give equal keys, and distinct
   values give distinct keys up to digest collision. *)
let memo_key (choice : Propagate.choice) (schedule : Schedule.t) : string =
  Digest.string (Marshal.to_string (choice, schedule) [])

(* Build the program for a candidate; None if the combination is illegal. *)
let lower_candidate (t : task) (choice : Propagate.choice)
    (schedule : Schedule.t) : Program.t option =
  let layouts name =
    match List.assoc_opt name choice.Propagate.in_layouts with
    | Some l -> l
    | None -> (
        match List.assoc_opt name (task_inputs t.op t.fused) with
        | Some s -> Layout.create s
        | None -> invalid_arg (Fmt.str "Measure: unknown tensor %s" name))
  in
  let fused =
    List.map
      (fun (f : Opdef.t) ->
        {
          Lower.fop = f;
          fout_layout =
            Layout.replay f.Opdef.out_shape choice.Propagate.out_layout;
        })
      t.fused
  in
  try
    Some
      (Lower.lower ~op:t.op ~layouts ~out_layout:choice.Propagate.out_layout
         ~fused ~schedule ())
  with Lower.Lower_error _ | Layout.Layout_error _ | Invalid_argument _ -> None

(* Memoized lowering.  A cached hit returns the program lowered for the
   first occurrence of the (choice, schedule) pair; the replay is
   trajectory-neutral because everything downstream is invariant under
   relowering — the measurement-cache key canonicalizes variable ids, the
   profiler and the feature extractor read only program structure. *)
let program_of (t : task) (choice : Propagate.choice) (schedule : Schedule.t) :
    Program.t option =
  if not t.memo then lower_candidate t choice schedule
  else begin
    let key = memo_key choice schedule in
    match Hashtbl.find_opt t.lcache key with
    | Some p ->
        t.lstats.prog_hits <- t.lstats.prog_hits + 1;
        p
    | None ->
        let p = lower_candidate t choice schedule in
        t.lstats.prog_misses <- t.lstats.prog_misses + 1;
        Hashtbl.add t.lcache key p;
        p
  end

(* Memoized cost-model features of a candidate, shared between the
   ranking pass and the measurement pass; None iff it does not lower.
   [feat_misses] counts actual [Features.extract] calls, so with the memo
   on it equals the number of distinct featurized candidates. *)
let features_of (t : task) (choice : Propagate.choice)
    (schedule : Schedule.t) : float array option =
  if not t.memo then
    Option.map (Features.extract t.machine) (lower_candidate t choice schedule)
  else
    let key = memo_key choice schedule in
    match Hashtbl.find_opt t.fcache key with
    | Some f ->
        t.lstats.feat_hits <- t.lstats.feat_hits + 1;
        Some f
    | None -> (
        match program_of t choice schedule with
        | None -> None
        | Some p ->
            let f = Features.extract t.machine p in
            t.lstats.feat_misses <- t.lstats.feat_misses + 1;
            Hashtbl.add t.fcache key f;
            Some f)

(* ------------------------------------------------------------------ *)
(* Canonical program serialization (cache keys)                       *)
(* ------------------------------------------------------------------ *)

(* Serialize a program with variables renamed to first-occurrence indices,
   so the key is invariant under the global [Var] counter state: lowering
   the same candidate twice yields the same key even though the loop
   variables carry fresh ids.  Everything the simulator reads is included
   (slot layouts, loop kinds and extents, access expressions, statement
   structure); everything it ignores (variable names, the program name) is
   left out. *)
let program_key (p : Program.t) : string =
  let buf = Stdlib.Buffer.create 512 in
  let add = Stdlib.Buffer.add_string buf in
  let ids : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let vid v =
    let id = Var.id v in
    match Hashtbl.find_opt ids id with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids id i;
        i
  in
  let rec ix (e : Ixexpr.t) =
    match e with
    | Ixexpr.Const n -> add (string_of_int n)
    | Ixexpr.Var v ->
        add "v";
        add (string_of_int (vid v))
    | Ixexpr.Add (a, b) -> bin "+" a b
    | Ixexpr.Sub (a, b) -> bin "-" a b
    | Ixexpr.Mul (a, b) -> bin "*" a b
    | Ixexpr.Div (a, b) -> bin "/" a b
    | Ixexpr.Mod (a, b) -> bin "%" a b
    | Ixexpr.Min (a, b) -> bin "_" a b
    | Ixexpr.Max (a, b) -> bin "^" a b
  and bin op a b =
    add "(";
    ix a;
    add op;
    ix b;
    add ")"
  in
  let access (a : Program.access) =
    add "s";
    add (string_of_int a.Program.slot);
    add "[";
    Array.iter
      (fun e ->
        ix e;
        add ";")
      a.Program.idx;
    add "]"
  in
  let rec cond (c : Sexpr.cond) =
    match c with
    | Sexpr.Cmp (op, a, b) ->
        add
          (match op with
          | Sexpr.Clt -> "<"
          | Sexpr.Cle -> "<="
          | Sexpr.Cgt -> ">"
          | Sexpr.Cge -> ">="
          | Sexpr.Ceq -> "==");
        add "(";
        ix a;
        add ",";
        ix b;
        add ")"
    | Sexpr.And (a, b) ->
        add "and(";
        cond a;
        add ",";
        cond b;
        add ")"
    | Sexpr.Or (a, b) ->
        add "or(";
        cond a;
        add ",";
        cond b;
        add ")"
  in
  let rec pexpr (e : Program.pexpr) =
    match e with
    | Program.Pload a ->
        add "L";
        access a
    | Program.Pconst f ->
        add "C";
        add (Printf.sprintf "%h" f)
    | Program.Pbin (op, a, b) ->
        add "B";
        add (Fmt.str "%a" Sexpr.pp_binop op);
        add "(";
        pexpr a;
        add ",";
        pexpr b;
        add ")"
    | Program.Pun (op, a) ->
        add "U";
        add (Fmt.str "%a" Sexpr.pp_unop op);
        add "(";
        pexpr a;
        add ")"
    | Program.Pselect (c, a, b) ->
        add "S(";
        cond c;
        add ",";
        pexpr a;
        add ",";
        pexpr b;
        add ")"
  in
  let rec stmt (s : Program.stmt) =
    match s with
    | Program.For (l, b) ->
        add "F";
        add (string_of_int (vid l.Program.v));
        add ":";
        add (string_of_int l.Program.extent);
        add
          (match l.Program.kind with
          | Program.Serial -> "s"
          | Program.Parallel -> "p"
          | Program.Vectorized -> "v"
          | Program.Unrolled -> "u");
        add "{";
        stmt b;
        add "}"
    | Program.Block lst ->
        add "[";
        List.iter stmt lst;
        add "]"
    | Program.Store (a, e) ->
        add "=";
        access a;
        pexpr e
    | Program.Reduce (a, r, e) ->
        add (match r with Program.Rsum -> "+=" | Program.Rmax -> "M=");
        access a;
        pexpr e
  in
  Array.iter
    (fun (s : Program.slot) ->
      add "slot(";
      add s.Program.sname;
      add ",";
      add
        (match s.Program.role with
        | Program.Input -> "i"
        | Program.Output -> "o"
        | Program.Temp -> "t");
      add ",";
      Array.iter
        (fun d ->
          add (string_of_int d);
          add ".")
        (Layout.logical_shape s.Program.layout);
      add "|";
      List.iter
        (fun pr -> add (Fmt.str "%a;" Layout.pp_prim pr))
        (Layout.prims s.Program.layout);
      add ")")
    p.Program.slots;
  stmt p.Program.body;
  Stdlib.Buffer.contents buf

let candidate_key (t : task) (choice : Propagate.choice)
    (schedule : Schedule.t) : string option =
  Option.map
    (fun p -> Digest.to_hex (Digest.string (program_key p)))
    (program_of t choice schedule)

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)
(* ------------------------------------------------------------------ *)

(* One measurement: pack inputs through the candidate's layouts, allocate
   outputs/temps, then run the task's backend — the cache simulator, or
   the exec device (compiled macro-kernels timed for real; DESIGN.md
   §12).  Buffers come from the task's [buf_cache] — packed inputs are
   shared read-only across candidates with the same layout, scratch is
   recycled through per-length free lists — and the cache is
   mutex-protected, so it is safe to run concurrently from pool workers;
   under [Exec] with a [Wall] clock the result is real time and thus not
   reproducible — trajectory determinism tests use a [Virtual] exec
   clock. *)
(* Input slots are served from the pack cache only when the program never
   writes them — true of every lowered program today, but checked so a
   hypothetical in-place op cannot corrupt a shared pack. *)
let writes_input (prog : Program.t) : bool =
  let dirty = ref false in
  Program.iter_stmt
    (function
      | Program.Store (a, _) | Program.Reduce (a, _, _) ->
          if prog.Program.slots.(a.Program.slot).Program.role = Program.Input
          then dirty := true
      | _ -> ())
    prog.Program.body;
  !dirty

let acquire_bufs (t : task) (prog : Program.t) : float array array =
  let bc = t.bufcache in
  let cacheable_inputs = not (writes_input prog) in
  Mutex.lock bc.bc_lock;
  let bufs =
    Array.map
      (fun (s : Program.slot) ->
        match s.Program.role with
        | Program.Input when cacheable_inputs -> (
            let key =
              s.Program.sname ^ "|"
              ^ Digest.string (Marshal.to_string s.Program.layout [])
            in
            match Hashtbl.find_opt bc.bc_packs key with
            | Some a ->
                bc.bstats.buf_hits <- bc.bstats.buf_hits + 1;
                a
            | None ->
                bc.bstats.buf_misses <- bc.bstats.buf_misses + 1;
                let a =
                  Layout.pack s.Program.layout
                    (List.assoc s.Program.sname t.feeds)
                in
                Hashtbl.replace bc.bc_packs key a;
                a)
        | Program.Input ->
            Layout.pack s.Program.layout (List.assoc s.Program.sname t.feeds)
        | Program.Output | Program.Temp -> (
            let n = Layout.num_physical_elements s.Program.layout in
            match Hashtbl.find_opt bc.bc_scratch n with
            | Some ({ contents = a :: rest } as l) ->
                bc.bstats.buf_hits <- bc.bstats.buf_hits + 1;
                l := rest;
                Array.fill a 0 n 0.0;
                a
            | Some _ | None ->
                bc.bstats.buf_misses <- bc.bstats.buf_misses + 1;
                Array.make n 0.0))
      prog.Program.slots
  in
  Mutex.unlock bc.bc_lock;
  bufs

(* Return output/temp scratch to the free lists; the shared input packs
   stay keyed in the cache. *)
let release_bufs (t : task) (prog : Program.t) (bufs : float array array) =
  let bc = t.bufcache in
  Mutex.lock bc.bc_lock;
  Array.iteri
    (fun i (s : Program.slot) ->
      if s.Program.role <> Program.Input then begin
        let n = Array.length bufs.(i) in
        match Hashtbl.find_opt bc.bc_scratch n with
        | Some l -> l := bufs.(i) :: !l
        | None -> Hashtbl.replace bc.bc_scratch n (ref [ bufs.(i) ])
      end)
    prog.Program.slots;
  Mutex.unlock bc.bc_lock

let simulate (t : task) (prog : Program.t) : Profiler.result =
  let bufs = acquire_bufs t prog in
  Fun.protect
    ~finally:(fun () -> release_bufs t prog bufs)
    (fun () ->
      match t.backend with
      | Runtime.Sim ->
          Profiler.run ~machine:t.machine ~max_points:t.max_points
            ~fast:t.fast prog ~bufs
      | Runtime.Exec cfg ->
          let w = Alt_exec.Exec.measure ~cfg prog ~bufs in
          Runtime.result_of_wall ~machine:t.machine prog w)

(* Iteration points of a program — what the watchdog compares against its
   hard cap. *)
let rec stmt_points (s : Program.stmt) : float =
  match s with
  | Program.For (l, b) -> float_of_int l.Program.extent *. stmt_points b
  | Program.Block lst -> List.fold_left (fun a s -> a +. stmt_points s) 0.0 lst
  | Program.Store _ | Program.Reduce _ -> 1.0

let program_points (p : Program.t) : float = stmt_points p.Program.body

(* One simulation attempt of one candidate, as run by a pool worker.
   Injected crashes genuinely raise (exercising the pool's failure
   draining); everything else reports a value.  Pure in (task, key,
   attempt). *)
type sim_out = S_ok of Profiler.result | S_timeout | S_fail of string

let run_attempt_inner (t : task) ~attempt
    ((key, prog) : string * Program.t) : sim_out =
  match Fault.decide t.faults ~key with
  | Some Fault.Crash -> raise (Fault.Injected "injected simulation crash")
  | Some Fault.Timeout ->
      (* the watchdog kills the run when it exceeds the point budget *)
      S_timeout
  | Some Fault.Persistent -> S_fail "persistent simulation failure"
  | Some (Fault.Flaky k) when attempt < k ->
      S_fail "transient simulation failure"
  | Some (Fault.Flaky _) | None -> (
      match t.watchdog_points with
      | Some cap when program_points prog > float_of_int cap -> S_timeout
      | _ -> S_ok (simulate t prog))

(* Traced wrapper: one span per simulation attempt.  Runs on pool worker
   domains, where the span lands in the worker's capture buffer and is
   flushed by the pool in submission order; an injected crash raises
   through [with_span], which still closes the span.  The disabled path
   is a single flag check — the attrs list is never built. *)
let run_attempt (t : task) ~attempt ((key, _) as item : string * Program.t) :
    sim_out =
  if Alt_obs.Trace.enabled () then
    Alt_obs.Trace.with_span "measure.sim"
      ~attrs:
        [
          ("key", Alt_obs.Json.String key);
          ("attempt", Alt_obs.Json.Int attempt);
        ]
      (fun () -> run_attempt_inner t ~attempt item)
  else run_attempt_inner t ~attempt item

let quarantine_reason = function
  | Timeout -> "timeout"
  | Sim_error msg -> msg
  | Ok _ | Lower_error | Quarantined -> "failure"

(* Gated latency histogram: observed on the calling domain during the
   submission-order replay (histograms are not domain-safe), log-spaced
   buckets in milliseconds. *)
let h_latency =
  Alt_obs.Metrics.histogram "measure.latency_ms"
    ~buckets:[ 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0 ]

let measure_programs ?pool ?(on_result = fun _ _ -> ()) (t : task)
    (progs : Program.t option array) : outcome array =
  let n = Array.length progs in
  let keys =
    Array.map
      (Option.map (fun p -> Digest.to_hex (Digest.string (program_key p))))
      progs
  in
  (* import shared-store entries for this batch's keys before computing
     misses — indistinguishable from a checkpoint restore: an imported
     result is served as a cache hit (budget charged), an imported
     quarantine entry answers without simulating *)
  (match t.shared with
  | None -> ()
  | Some s ->
      Array.iter
        (function
          | Some key
            when (not (Hashtbl.mem t.cache key))
                 && not (Hashtbl.mem t.quarantine key) -> (
              match s.s_find_result key with
              | Some r -> Hashtbl.replace t.cache key r
              | None -> (
                  match s.s_find_quarantine key with
                  | Some reason -> Hashtbl.replace t.quarantine key reason
                  | None -> ()))
          | _ -> ())
        keys);
  (* cache misses needing a fresh simulation, deduplicated within the
     batch, in submission order; quarantined candidates are answered from
     the quarantine table and never simulated again *)
  let seen = Hashtbl.create 16 in
  let pending = ref [] in
  Array.iteri
    (fun i key ->
      match (key, progs.(i)) with
      | Some key, Some prog
        when (not (Hashtbl.mem t.cache key))
             && (not (Hashtbl.mem t.quarantine key))
             && not (Hashtbl.mem seen key) ->
          Hashtbl.add seen key ();
          pending := (key, prog) :: !pending
      | _ -> ())
    keys;
  let pending = List.rev !pending in
  (* Simulate misses with bounded retry.  Each attempt round fans out over
     the pool through [map_result], so a crashing attempt is drained as a
     per-task outcome instead of poisoning the batch; classification and
     the retry decision happen on the calling domain in submission order,
     keeping the trajectory independent of the pool size. *)
  let fresh : (string, Profiler.result) Hashtbl.t = Hashtbl.create 16 in
  let terminal : (string, outcome) Hashtbl.t = Hashtbl.create 16 in
  let rec attempt_round attempt items =
    match items with
    | [] -> ()
    | _ ->
        let outs =
          match pool with
          | Some pool ->
              Pool.map_result pool (run_attempt t ~attempt) items
          | None ->
              List.map
                (fun item ->
                  match run_attempt t ~attempt item with
                  | s -> Stdlib.Ok s
                  | exception e -> Stdlib.Error e)
                items
        in
        let retry = ref [] in
        List.iter2
          (fun ((key, _) as item) out ->
            let fail o =
              if attempt = 0 then t.fstats.faulted <- t.fstats.faulted + 1;
              if attempt < t.retries then begin
                t.fstats.retried <- t.fstats.retried + 1;
                t.fstats.backoff_ms <-
                  t.fstats.backoff_ms +. Fault.backoff_ms ~attempt;
                retry := item :: !retry
              end
              else Hashtbl.replace terminal key o
            in
            match out with
            | Stdlib.Ok (S_ok r) ->
                if attempt > 0 then
                  t.fstats.recovered <- t.fstats.recovered + 1;
                Hashtbl.replace fresh key r
            | Stdlib.Ok S_timeout -> fail Timeout
            | Stdlib.Ok (S_fail msg) -> fail (Sim_error msg)
            | Stdlib.Error (Fault.Injected msg) -> fail (Sim_error msg)
            | Stdlib.Error e -> fail (Sim_error (Printexc.to_string e)))
          items outs;
        attempt_round (attempt + 1) (List.rev !retry)
  in
  (if Alt_obs.Trace.enabled () then
     Alt_obs.Trace.with_span "measure.batch"
       ~attrs:
         [
           ("n", Alt_obs.Json.Int n);
           ("pending", Alt_obs.Json.Int (List.length pending));
         ]
       (fun () -> attempt_round 0 pending)
   else attempt_round 0 pending);
  (* replay in submission order: charge budget, account hits/misses, fill
     the cache and the quarantine table, and hand each outcome to the
     caller's callback while the task state reflects exactly the serial
     trajectory *)
  let results = Array.make n Lower_error in
  Array.iteri
    (fun i key ->
      (match key with
      | None -> results.(i) <- Lower_error
      | Some key ->
          t.spent <- t.spent + 1;
          let o =
            if Hashtbl.mem t.quarantine key then Quarantined
            else
              match Hashtbl.find_opt t.cache key with
              | Some r ->
                  t.stats.hits <- t.stats.hits + 1;
                  Ok r
              | None -> (
                  match Hashtbl.find_opt fresh key with
                  | Some r ->
                      t.stats.misses <- t.stats.misses + 1;
                      Hashtbl.replace t.cache key r;
                      (match t.shared with
                      | Some s -> s.s_publish_result key r
                      | None -> ());
                      Ok r
                  | None ->
                      let o = Hashtbl.find terminal key in
                      t.stats.misses <- t.stats.misses + 1;
                      let reason = quarantine_reason o in
                      Hashtbl.replace t.quarantine key reason;
                      (match t.shared with
                      | Some s -> s.s_publish_quarantine key reason
                      | None -> ());
                      t.fstats.quarantined <- t.fstats.quarantined + 1;
                      o)
          in
          (match o with
          | Ok r -> Alt_obs.Metrics.observe h_latency r.Profiler.latency_ms
          | _ -> ());
          results.(i) <- o);
      on_result i results.(i))
    keys;
  results

let measure_batch ?pool (t : task)
    (cands : (Propagate.choice * Schedule.t) list) : outcome array =
  measure_programs ?pool t
    (Array.of_list (List.map (fun (c, s) -> program_of t c s) cands))

let measure (t : task) (choice : Propagate.choice) (schedule : Schedule.t) :
    outcome =
  (measure_programs t [| program_of t choice schedule |]).(0)

let result_of = function Ok r -> Some r | _ -> None

let latency_of = function
  | Ok (r : Profiler.result) -> r.Profiler.latency_ms
  | Lower_error | Sim_error _ | Timeout | Quarantined -> Float.infinity

(* Ansor-style penalty cost: what failed-but-lowerable candidates feed the
   learned cost model, so the search is steered away from failing regions
   instead of aborting.  Orders of magnitude above any real simulated
   latency, but finite, so log-space model fitting stays NaN-free. *)
let penalty_latency_ms = 1e4

let pp_outcome ppf = function
  | Ok r -> Fmt.pf ppf "ok(%.5fms)" r.Profiler.latency_ms
  | Lower_error -> Fmt.string ppf "lower-error"
  | Sim_error msg -> Fmt.pf ppf "sim-error(%s)" msg
  | Timeout -> Fmt.string ppf "timeout"
  | Quarantined -> Fmt.string ppf "quarantined"

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                 *)
(* ------------------------------------------------------------------ *)

let snapshot (t : task) =
  ( Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.cache [],
    Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.quarantine [] )

let restore (t : task) ~cache ~quarantine =
  List.iter (fun (k, r) -> Hashtbl.replace t.cache k r) cache;
  List.iter (fun (k, m) -> Hashtbl.replace t.quarantine k m) quarantine

(* ------------------------------------------------------------------ *)
(* Observability publication                                           *)
(* ------------------------------------------------------------------ *)

(* Registry handles for the per-task stats structs.  The structs stay the
   sole live source of truth (no double counting on the hot path); a task
   is published into the registry once, at the end of its run, via the
   unconditional raw adds — so the CLI can print its human-readable
   summary from the registry whether or not metrics collection is on,
   keeping the default output byte-identical. *)
let m_spent = Alt_obs.Metrics.counter "measure.budget_spent"
let m_hits = Alt_obs.Metrics.counter "measure.cache.hits"
let m_misses = Alt_obs.Metrics.counter "measure.cache.misses"
let m_prog_hits = Alt_obs.Metrics.counter "measure.lower.prog_hits"
let m_prog_misses = Alt_obs.Metrics.counter "measure.lower.prog_misses"
let m_feat_hits = Alt_obs.Metrics.counter "measure.lower.feat_hits"
let m_feat_misses = Alt_obs.Metrics.counter "measure.lower.feat_misses"
let m_buf_hits = Alt_obs.Metrics.counter "measure.bufs.hits"
let m_buf_misses = Alt_obs.Metrics.counter "measure.bufs.misses"
let m_faulted = Alt_obs.Metrics.counter "measure.faults.faulted"
let m_retried = Alt_obs.Metrics.counter "measure.faults.retried"
let m_recovered = Alt_obs.Metrics.counter "measure.faults.recovered"
let m_quarantined = Alt_obs.Metrics.counter "measure.faults.quarantined"
let g_backoff = Alt_obs.Metrics.gauge "measure.faults.backoff_ms"

let publish_obs (t : task) =
  Alt_obs.Metrics.add_raw m_spent t.spent;
  Alt_obs.Metrics.add_raw m_hits t.stats.hits;
  Alt_obs.Metrics.add_raw m_misses t.stats.misses;
  Alt_obs.Metrics.add_raw m_prog_hits t.lstats.prog_hits;
  Alt_obs.Metrics.add_raw m_prog_misses t.lstats.prog_misses;
  Alt_obs.Metrics.add_raw m_feat_hits t.lstats.feat_hits;
  Alt_obs.Metrics.add_raw m_feat_misses t.lstats.feat_misses;
  Alt_obs.Metrics.add_raw m_buf_hits t.bufcache.bstats.buf_hits;
  Alt_obs.Metrics.add_raw m_buf_misses t.bufcache.bstats.buf_misses;
  Alt_obs.Metrics.add_raw m_faulted t.fstats.faulted;
  Alt_obs.Metrics.add_raw m_retried t.fstats.retried;
  Alt_obs.Metrics.add_raw m_recovered t.fstats.recovered;
  Alt_obs.Metrics.add_raw m_quarantined t.fstats.quarantined;
  let prev =
    match Alt_obs.Metrics.gauge_value g_backoff with Some v -> v | None -> 0.0
  in
  Alt_obs.Metrics.set_raw g_backoff (prev +. t.fstats.backoff_ms)

(* Everything that shapes a tuning trajectory besides the tuner's own
   parameters: operator, fused chain, machine, budgets of one simulation,
   input data, and the fault configuration.  Checkpoints written under one
   fingerprint can only be resumed under the same one. *)
let fingerprint ~seed ~tag (t : task) : string =
  let feeds = Digest.to_hex (Digest.string (Marshal.to_string t.feeds [])) in
  Digest.to_hex
    (Digest.string
       (Fmt.str "%s|%s|%a|%d|%s|%d|%s|%d|%.9f|%d|%d|%a|%s" tag
          t.op.Opdef.name Shape.pp t.op.Opdef.out_shape (List.length t.fused)
          t.machine.Machine.name t.max_points
          (Runtime.backend_tag t.backend)
          seed t.faults.Fault.rate t.faults.Fault.seed t.retries
          Fmt.(option int)
          t.watchdog_points feeds))
