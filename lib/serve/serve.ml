(* The tuning-service engine: admission control, cooperative scheduling,
   deadlines, crash-safe journaling and recovery.  IO-free — the daemon
   (or a test) drives it through [submit]/[step] and writes the returned
   (request id, response JSON) pairs to whatever transport it owns.

   Scheduling model.  Each admitted tune request is a session keyed by
   its spec's canonical digest (duplicate submissions attach to the
   running session).  Sessions run as Tuner.Step effect fibers that yield
   after every measurement round; [step] pops the next session off a
   round-robin queue, advances it by one round, and either re-queues it,
   completes it, or aborts it on deadline (Tuner.Step.abort injects an
   exception at the suspension point, so the tuner's finalizers run).
   At most [max_active] sessions are interleaved; further admissions
   wait in a bounded FIFO, and beyond that requests are shed with a
   structured rejection carrying a retry hint — overload degrades the new
   arrivals, never the admitted sessions.  The whole schedule is a pure
   function of the submission order, so N concurrent sessions produce
   byte-identical per-session results to N solo runs.

   Durability.  With a journal directory, admission atomically writes
   [<skey>.req.json] (the request plus every attached id) and the tuner
   journals [<skey>.ckpt] after every round — each written *before* the
   round's yield, so any crash point loses at most in-flight simulation
   work.  [recover] rescans the request journals on restart, re-admits
   the interrupted sessions (bypassing the admission limit — recovered
   work is never shed) and their fibers resume from the checkpoint,
   replaying the interrupted trajectory byte-identically.  Completion
   deletes both files; a deadline abort deletes the request journal but
   keeps the checkpoint, so a resubmission resumes instead of starting
   over; shutdown and crashes keep both. *)

module Layout = Alt_tensor.Layout
module Schedule = Alt_ir.Schedule
module Program = Alt_ir.Program
module Shape = Alt_tensor.Shape
module Opdef = Alt_ir.Opdef
module Propagate = Alt_graph.Propagate
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Templates = Alt_tuner.Templates
module Pool = Alt_parallel.Pool
module Json = Alt_obs.Json

let src = Logs.Src.create "alt.serve" ~doc:"ALT tuning service"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  pool : Pool.t;
  max_active : int; (* sessions interleaved concurrently *)
  max_queue : int; (* admitted-but-waiting FIFO bound *)
  store : Store.t;
  journal_dir : string option;
  default_deadline_rounds : int option;
}

let default_config ?(jobs = 1) ?(max_active = 4) ?(max_queue = 8)
    ?(shards = 16) ?journal_dir ?default_deadline_rounds () =
  {
    pool = Pool.create ~jobs ();
    max_active;
    max_queue;
    store = Store.create ~shards ();
    journal_dir;
    default_deadline_rounds;
  }

(* Injected into a paused session fiber by graceful shutdown (the session
   stays resumable from its checkpoint) and by deadline expiry. *)
exception Interrupted
exception Deadline_exceeded

type session = {
  skey : string;
  spec : Workload.tune_spec;
  mutable ids : string list; (* request ids awaiting this session *)
  deadline : int option; (* rounds granted in this daemon run *)
  mutable stepped : int; (* rounds taken in this daemon run *)
  fiber : Tuner.Step.t; (* runs nothing until its first step *)
}

type t = {
  cfg : config;
  sessions : (string, session) Hashtbl.t; (* skey -> live session *)
  active : session Queue.t; (* round-robin ring *)
  waiting : session Queue.t; (* admitted, not yet interleaved *)
  mutable completed : int;
  mutable shed : int;
  mutable errored : int;
  mutable rounds_stepped : int; (* total rounds across all sessions *)
}

let create cfg =
  if cfg.max_active < 1 then invalid_arg "Serve: max_active must be >= 1";
  if cfg.max_queue < 0 then invalid_arg "Serve: max_queue must be >= 0";
  (match cfg.journal_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  {
    cfg;
    sessions = Hashtbl.create 16;
    active = Queue.create ();
    waiting = Queue.create ();
    completed = 0;
    shed = 0;
    errored = 0;
    rounds_stepped = 0;
  }

let active_count t = Queue.length t.active
let waiting_count t = Queue.length t.waiting
let completed_count t = t.completed
let shed_count t = t.shed
let rounds_stepped t = t.rounds_stepped
let has_work t = not (Queue.is_empty t.active)

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let req_path t skey =
  Option.map (fun d -> Filename.concat d (skey ^ ".req.json")) t.cfg.journal_dir

let ckpt_path t skey =
  Option.map (fun d -> Filename.concat d (skey ^ ".ckpt")) t.cfg.journal_dir

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let journal_request t (s : session) =
  match req_path t s.skey with
  | None -> ()
  | Some path ->
      let j =
        Json.Obj
          [
            ("spec", Workload.tune_spec_to_json s.spec);
            ("ids", Json.List (List.map (fun i -> Json.String i) s.ids));
            ( "deadline_rounds",
              match s.deadline with Some d -> Json.Int d | None -> Json.Null
            );
          ]
      in
      write_atomic path (Json.to_string j)

let remove_file = function
  | None -> ()
  | Some path -> ( try Sys.remove path with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_tuner_result (r : Tuner.result) : Json.t =
  Json.Obj
    [
      ("best_latency_ms", Json.Float r.Tuner.best_latency);
      ("spent", Json.Int r.Tuner.spent);
      ( "history",
        Json.List
          (List.map
             (fun (s, l) -> Json.List [ Json.Int s; Json.Float l ])
             r.Tuner.history) );
      ( "out_layout",
        Json.String
          (Fmt.str "%a" Layout.pp r.Tuner.best_choice.Propagate.out_layout) );
      ( "in_layouts",
        Json.Obj
          (List.map
             (fun (n, l) -> (n, Json.String (Fmt.str "%a" Layout.pp l)))
             r.Tuner.best_choice.Propagate.in_layouts) );
      ("schedule", Json.String (Fmt.str "%a" Schedule.pp r.Tuner.best_schedule));
    ]

let respond_each (s : session) (mk : string -> Json.t) :
    (string * Json.t) list =
  List.map (fun id -> (id, mk id)) s.ids

let ok_response skey result id =
  Json.Obj
    [
      ("id", Json.String id);
      ("status", Json.String "ok");
      ("skey", Json.String skey);
      ("result", result);
    ]

let status_response ?(extra = []) skey status id =
  Json.Obj
    ([
       ("id", Json.String id);
       ("status", Json.String status);
       ("skey", Json.String skey);
     ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* Session lifecycle                                                  *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A session: its tuning run as a fiber that yields after every round
   (the tuner's [on_progress] fires after the round's checkpoint is
   written, so every suspension point is durable).  Resume is attempted
   first; a corrupt or version/fingerprint-mismatched checkpoint is
   parked as [.bad] and the session restarts fresh — robustness over a
   stale journal must never wedge recovery. *)
let new_session t ~skey ~(spec : Workload.tune_spec) ~ids ~deadline : session
    =
  let run ~stop ~on_progress =
    let shared = Store.view t.cfg.store ~ctx:(Workload.context_key spec) in
    let build ?resume () =
      let task = Workload.task_of_spec ~shared spec in
      Tuner.tune_op ~seed:spec.Workload.seed ~pool:t.cfg.pool
        ?checkpoint:(ckpt_path t skey) ?resume ~stop ~on_progress
        ~system:(Workload.system_of_spec spec)
        ~budget:spec.Workload.budget task
    in
    match ckpt_path t skey with
    | None -> build ()
    | Some path -> (
        try build ~resume:path ()
        with (Failure msg | Invalid_argument msg)
             when contains_sub msg "checkpoint" ->
          Log.warn (fun m ->
              m "session %s: unusable checkpoint (%s); restarting fresh" skey
                msg);
          (try Sys.rename path (path ^ ".bad") with Sys_error _ -> ());
          (* the file is gone now, so resuming from the same path is a
             fresh start that re-creates the journal *)
          build ~resume:path ())
  in
  { skey; spec; ids; deadline; stepped = 0; fiber = Tuner.Step.start run }

let promote t =
  while Queue.length t.active < t.cfg.max_active
        && not (Queue.is_empty t.waiting) do
    Queue.push (Queue.pop t.waiting) t.active
  done

let finish_session t (s : session) =
  Hashtbl.remove t.sessions s.skey;
  promote t

(* Admission of a tune request.  Returns the immediate responses (empty
   when admitted/attached — the real response comes when the session
   completes). *)
let admit t ~id ~(spec : Workload.tune_spec) ~deadline_rounds :
    (string * Json.t) list =
  let skey = Workload.session_key spec in
  match Hashtbl.find_opt t.sessions skey with
  | Some s ->
      (* duplicate submission: attach, don't re-run *)
      s.ids <- s.ids @ [ id ];
      journal_request t s;
      []
  | None ->
      let deadline =
        match deadline_rounds with
        | Some _ as d -> d
        | None -> t.cfg.default_deadline_rounds
      in
      let s = new_session t ~skey ~spec ~ids:[ id ] ~deadline in
      if Queue.length t.active < t.cfg.max_active then begin
        Hashtbl.replace t.sessions skey s;
        Queue.push s t.active;
        journal_request t s;
        []
      end
      else if Queue.length t.waiting < t.cfg.max_queue then begin
        Hashtbl.replace t.sessions skey s;
        Queue.push s t.waiting;
        journal_request t s;
        []
      end
      else begin
        (* load shedding: never perturbs admitted sessions; the retry
           hint scales with the backlog so clients back off together *)
        t.shed <- t.shed + 1;
        let backlog = Queue.length t.active + Queue.length t.waiting in
        [
          ( id,
            status_response skey "rejected"
              ~extra:
                [
                  ("reason", Json.String "overloaded");
                  ("retry_after_ms", Json.Int (250 * backlog));
                ]
              id );
        ]
      end

(* ------------------------------------------------------------------ *)
(* Synchronous requests                                               *)
(* ------------------------------------------------------------------ *)

let compile_response ~id ~(op : Workload.op_spec) ~machine ~preset : Json.t =
  match Workload.machine_of_name machine with
  | None -> Proto.error_response ~id ~reason:(Fmt.str "unknown machine %S" machine)
  | Some machine -> (
      let op = Workload.op_of_spec op in
      let choice =
        match preset with
        | "default" -> Some (Templates.trivial_choice op)
        | "channels-last" -> Some (Templates.channels_last_choice op)
        | "blocked" ->
            Some
              (Templates.blocked_choice op
                 ~block:(2 * machine.Alt_machine.Machine.lanes))
        | "alt" ->
            Some
              (match Templates.for_op op with
              | Some tpl ->
                  tpl.Templates.decode
                    (Array.make (Array.length tpl.Templates.knobs) 0.4)
              | None -> Templates.trivial_choice op)
        | _ -> None
      in
      match choice with
      | None -> Proto.error_response ~id ~reason:(Fmt.str "unknown preset %S" preset)
      | Some choice -> (
          let task = Measure.make_task ~machine op in
          let rank =
            Shape.rank (Layout.physical_shape choice.Propagate.out_layout)
          in
          let sched =
            Schedule.vectorize
              (Schedule.default ~rank ~nred:(List.length op.Opdef.reduce))
          in
          match Measure.program_of task choice sched with
          | None ->
              Proto.error_response ~id
                ~reason:"this layout/schedule combination does not lower"
          | Some prog ->
              Json.Obj
                [
                  ("id", Json.String id);
                  ("status", Json.String "ok");
                  ("program", Json.String (Fmt.str "%a" Program.pp prog));
                ]))

let stats_response t ~id : Json.t =
  let st = Store.stats t.cfg.store in
  let results, quarantine = Store.sizes t.cfg.store in
  Json.Obj
    [
      ("id", Json.String id);
      ("status", Json.String "ok");
      ("active", Json.Int (Queue.length t.active));
      ("waiting", Json.Int (Queue.length t.waiting));
      ("completed", Json.Int t.completed);
      ("shed", Json.Int t.shed);
      ("errored", Json.Int t.errored);
      ("rounds", Json.Int t.rounds_stepped);
      ( "store",
        Json.Obj
          [
            ("results", Json.Int results);
            ("quarantine", Json.Int quarantine);
            ("result_hits", Json.Int st.Store.result_hits);
            ("result_inserts", Json.Int st.Store.result_inserts);
            ("quarantine_hits", Json.Int st.Store.quarantine_hits);
            ("quarantine_inserts", Json.Int st.Store.quarantine_inserts);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* The driver interface                                               *)
(* ------------------------------------------------------------------ *)

let submit t (r : Proto.request) : (string * Json.t) list =
  match r with
  | Proto.Tune { id; spec; deadline_rounds } ->
      admit t ~id ~spec ~deadline_rounds
  | Proto.Compile { id; op; machine; preset } ->
      [ (id, compile_response ~id ~op ~machine ~preset) ]
  | Proto.Stats { id } -> [ (id, stats_response t ~id) ]
  | Proto.Shutdown { id } ->
      (* handled by the daemon (it owns the decision to stop); answered
         here so engine-only tests see a structured reply *)
      [
        ( id,
          Json.Obj
            [
              ("id", Json.String id);
              ("status", Json.String "ok");
              ("shutting_down", Json.Bool true);
            ] );
      ]

(* Advance the scheduler by one step: pop the next active session,
   run it to its next yield, and re-queue / complete / abort it. *)
let step t : (string * Json.t) list =
  if Queue.is_empty t.active then []
  else begin
    let s = Queue.pop t.active in
    let fail reason =
      t.errored <- t.errored + 1;
      respond_each s (fun id -> Proto.error_response ~id ~reason)
    in
    let complete r =
      t.completed <- t.completed + 1;
      remove_file (ckpt_path t s.skey);
      respond_each s (ok_response s.skey (json_of_tuner_result r))
    in
    match Tuner.Step.step s.fiber with
    | Tuner.Step.Running _ -> (
        t.rounds_stepped <- t.rounds_stepped + 1;
        s.stepped <- s.stepped + 1;
        match s.deadline with
        | Some d when s.stepped >= d -> (
            (* deadline: abort at the (already checkpointed) yield
               point; the checkpoint survives, so resubmission resumes
               instead of starting over *)
            let aborted =
              match Tuner.Step.abort s.fiber Deadline_exceeded with
              | st -> Ok st
              | exception e -> Error e
            in
            finish_session t s;
            remove_file (req_path t s.skey);
            match aborted with
            | Error Deadline_exceeded ->
                respond_each s
                  (status_response s.skey "deadline"
                     ~extra:
                       [
                         ("rounds", Json.Int s.stepped);
                         ("resumable", Json.Bool true);
                       ])
            | Error e -> fail (Printexc.to_string e)
            | Ok (Tuner.Step.Done r) ->
                (* the abort landed after the tuner's last round: the
                   run is complete, report it as such *)
                complete r
            | Ok (Tuner.Step.Running _) ->
                fail "session yielded through an abort")
        | _ ->
            Queue.push s t.active;
            [])
    | Tuner.Step.Done r ->
        finish_session t s;
        remove_file (req_path t s.skey);
        complete r
    | exception e ->
        (* a genuine failure: answer every attached id with the error
           and drop the request journal so recovery does not crash-loop;
           the checkpoint is kept for post-mortem resume *)
        finish_session t s;
        remove_file (req_path t s.skey);
        Log.err (fun m ->
            m "session %s failed: %s" s.skey (Printexc.to_string e));
        fail (Printexc.to_string e)
  end

(* Graceful shutdown: abort every in-flight fiber at its last durable
   yield point and answer every attached id as interrupted-but-
   resumable.  Journals are kept — a restarted daemon recovers every
   interrupted session.  The pool is closed afterwards, so no stray
   batch can outlive the engine. *)
let shutdown t : (string * Json.t) list =
  let out = ref [] in
  let close (s : session) =
    (match Tuner.Step.abort s.fiber Interrupted with
    | _ | (exception Interrupted) -> ()
    | exception e ->
        Log.warn (fun m ->
            m "session %s raised during shutdown: %s" s.skey
              (Printexc.to_string e)));
    out :=
      !out
      @ respond_each s
          (status_response s.skey "interrupted"
             ~extra:[ ("resumable", Json.Bool true) ])
  in
  Queue.iter close t.active;
  Queue.iter close t.waiting;
  Queue.clear t.active;
  Queue.clear t.waiting;
  Hashtbl.reset t.sessions;
  Pool.shutdown t.cfg.pool;
  !out

(* Recovery: re-admit every journaled session.  Recovered sessions
   bypass the admission limit (they were admitted once already — the
   crash must not shed them); beyond [max_active] they queue in
   arrival order, unbounded. *)
let recover t : int =
  match t.cfg.journal_dir with
  | None -> 0
  | Some dir when not (Sys.file_exists dir) -> 0
  | Some dir ->
      let reqs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".req.json")
        |> List.sort String.compare
      in
      let recovered = ref 0 in
      List.iter
        (fun file ->
          let path = Filename.concat dir file in
          let content =
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let parsed =
            match Json.parse content with
            | Error msg -> Error msg
            | Ok j -> (
                let spec_json =
                  match Json.member "spec" j with
                  | Some s -> s
                  | None -> Json.Obj []
                in
                match Workload.tune_spec_of_json spec_json with
                | Error msg -> Error msg
                | Ok spec ->
                    let ids =
                      match
                        Option.bind (Json.member "ids" j) Json.to_list_opt
                      with
                      | Some l -> List.filter_map Json.to_string_opt l
                      | None -> []
                    in
                    let deadline =
                      Option.bind
                        (Json.member "deadline_rounds" j)
                        Json.to_int_opt
                    in
                    Ok (spec, ids, deadline))
          in
          match parsed with
          | Error msg ->
              (* a torn request journal (the atomic write makes this
                 near-impossible, but robustness first): park it and
                 keep recovering the rest *)
              Log.warn (fun m ->
                  m "unreadable request journal %s (%s); parked as .bad" path
                    msg);
              (try Sys.rename path (path ^ ".bad") with Sys_error _ -> ())
          | Ok (spec, ids, deadline) ->
              let skey = Workload.session_key spec in
              if not (Hashtbl.mem t.sessions skey) then begin
                let ids = if ids = [] then [ "recovered" ] else ids in
                let s = new_session t ~skey ~spec ~ids ~deadline in
                Hashtbl.replace t.sessions skey s;
                if Queue.length t.active < t.cfg.max_active then
                  Queue.push s t.active
                else Queue.push s t.waiting;
                incr recovered
              end)
        reqs;
      if !recovered > 0 then
        Log.info (fun m -> m "recovered %d interrupted session(s)" !recovered);
      !recovered
