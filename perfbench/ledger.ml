(* Folds a trace written by Alt.Trace into per-name span totals and
   self-times, and keeps the instants in order.  A span's self-time is
   its duration minus the part of it its child spans cover. *)

open Alt

type span = {
  name : string;
  dur_s : float;
  self_s : float;
  attrs : (string * Json.t) list;
}

type t = {
  spans : span list; (* in closing order *)
  instants : (float * string * (string * Json.t) list) list;
      (* (seconds since the first record, name, attrs), in order *)
}

let empty = { spans = []; instants = [] }

let of_records (recs : Tracecheck.record list) : t =
  let t0 = match recs with r :: _ -> r.Tracecheck.ts | [] -> 0 in
  let secs ts = float_of_int (ts - t0) *. 1e-9 in
  (* open spans: (record, nanoseconds covered by children) *)
  let stack = ref [] and spans = ref [] and instants = ref [] in
  List.iter
    (fun (r : Tracecheck.record) ->
      match r.Tracecheck.ph with
      | "B" -> stack := (r, ref 0) :: !stack
      | "E" -> (
          match !stack with
          | (b, child) :: rest ->
              let dur = r.Tracecheck.ts - b.Tracecheck.ts in
              (match rest with (_, pc) :: _ -> pc := !pc + dur | [] -> ());
              stack := rest;
              spans :=
                {
                  name = b.Tracecheck.name;
                  dur_s = float_of_int dur *. 1e-9;
                  self_s = float_of_int (dur - !child) *. 1e-9;
                  attrs = b.Tracecheck.attrs;
                }
                :: !spans
          | [] -> invalid_arg "Ledger: unmatched span end")
      | _ ->
          instants :=
            (secs r.Tracecheck.ts, r.Tracecheck.name, r.Tracecheck.attrs)
            :: !instants)
    recs;
  { spans = List.rev !spans; instants = List.rev !instants }

(* Trace [f] into [path], then parse, validate and fold the file. *)
let record ~path f =
  Trace.configure ~path;
  let r = Fun.protect ~finally:Trace.close f in
  match Result.bind (Tracecheck.parse_file path) (fun recs ->
            Result.map (fun () -> recs) (Tracecheck.validate recs))
  with
  | Ok recs -> (r, of_records recs)
  | Error msg -> Fmt.failwith "trace %s: %s" path msg

let named t name = List.filter (fun s -> s.name = name) t.spans
let count t name = List.length (named t name)
let total t name = Util.sum (List.map (fun s -> s.dur_s) (named t name))
let self t name = Util.sum (List.map (fun s -> s.self_s) (named t name))
(* Self-time of every span whose name starts with one of [prefixes].
   Tuner fibers interleave, so same-named spans of different tasks nest
   inside each other; their self-times are only meaningful summed. *)
let self_prefix t prefixes =
  Util.sum
    (List.filter_map
       (fun s ->
         if List.exists (fun p -> String.starts_with ~prefix:p s.name) prefixes
         then Some s.self_s
         else None)
       t.spans)

let instants t name = List.filter (fun (_, n, _) -> n = name) t.instants

let int_attr k attrs =
  match List.assoc_opt k attrs with Some (Json.Int i) -> Some i | _ -> None

let float_attr k attrs =
  match List.assoc_opt k attrs with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let bool_attr k attrs =
  match List.assoc_opt k attrs with Some (Json.Bool b) -> b | _ -> false

let sampled_runs t =
  List.filter (fun s -> bool_attr "sampled" s.attrs) (named t "profiler.run")

(* The measurement path's figures, common to every workload: the
   Measure layer's own self-time and the profiler's runs. *)
let measurement_metrics t =
  let runs = float_of_int (count t "profiler.run") in
  let run_s = total t "profiler.run" in
  let points =
    Util.sum
      (List.map
         (fun s -> Option.value ~default:0.0 (float_attr "points" s.attrs))
         (named t "profiler.run"))
  in
  [
    ("tuner.measure.self_s", self t "measure.batch" +. self t "measure.sim", "s");
    ("machine.profiler.runs", runs, "count");
    ("machine.profiler.run_s", run_s, "s");
    ( "machine.profiler.sampled_share",
      Util.ratio (float_of_int (List.length (sampled_runs t))) runs,
      "ratio" );
    ("machine.sim.points_per_s", Util.ratio points run_s, "1/s");
  ]

(* GBDT fit time per task.  Each [tuner.round] instant carries the
   cumulative fit time of the cost model of the task being stepped; the
   next [closer] instant, which closes the step, names that task in its
   [task] attribute: [scheduler.pick] on the zoo, the benchmark's own
   [bench.serve.step] on serve.  A drop in the cumulative figure means a
   fresh cost model.  Returns the per-task fit seconds, the largest
   single-step fit in ms, and whether a round was left that no closer
   follows (its fit time cannot be attributed to a task). *)
type fits = { per_task : (int * float) list; max_ms : float; unpaired : int }

let fits ~closer t : fits =
  let last : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let acc : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let max_ms = ref 0.0 and pending = ref None in
  List.iter
    (fun (_, name, attrs) ->
      match name with
      | "tuner.round" -> (
          match float_attr "gbdt_fit_ms" attrs with
          | Some ms -> pending := Some ms
          | None -> ())
      | n when n = closer -> (
          match (!pending, int_attr "task" attrs) with
          | Some ms, Some task ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt last task) in
              let inc = if ms >= prev then ms -. prev else ms in
              Hashtbl.replace last task ms;
              Hashtbl.replace acc task
                (inc +. Option.value ~default:0.0 (Hashtbl.find_opt acc task));
              max_ms := Float.max !max_ms inc;
              pending := None
          | _ -> ())
      | _ -> ())
    t.instants;

  {
    per_task =
      Hashtbl.fold (fun k ms a -> (k, ms *. 1e-3) :: a) acc []
      |> List.sort compare;
    max_ms = !max_ms;
    unpaired = (if !pending = None then 0 else 1);
  }
