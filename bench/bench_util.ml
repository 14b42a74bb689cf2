(* Shared infrastructure for the experiment harness.

   Every experiment of the paper's evaluation (Figs. 1, 9-13; Tables 2-3)
   has a module here that regenerates its rows on the machine simulator.
   ALT_BENCH_SCALE=smoke|quick|full controls workload sizes and budgets
   (quick is the default; the mapping to the paper's settings is recorded
   in EXPERIMENTS.md). *)

open Alt

type scale = Smoke | Quick | Full

let scale =
  match Sys.getenv_opt "ALT_BENCH_SCALE" with
  | Some "smoke" -> Smoke
  | Some "full" -> Full
  | Some "quick" | None -> Quick
  | Some s -> Fmt.failwith "unknown ALT_BENCH_SCALE %S" s

let scale_name =
  match scale with Smoke -> "smoke" | Quick -> "quick" | Full -> "full"

let pick ~smoke ~quick ~full =
  match scale with Smoke -> smoke | Quick -> quick | Full -> full

(* Where a bench writes BENCH_<name>.json: the repo root at quick and full
   scale, where the committed perf trajectory lives, and under _build/ at
   smoke scale, so smoke runs never overwrite the committed files. *)
let bench_json name =
  let file = Fmt.str "BENCH_%s.json" name in
  match scale with
  | Quick | Full -> file
  | Smoke ->
      if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
      Filename.concat "_build" file

(* Measurement parallelism for the tuning drivers.  Defaults from ALT_JOBS;
   bench/main.ml overrides it from a --jobs flag.  0 = all cores.  Tuning
   results are identical for every value (the engine's determinism
   contract); only wall-clock time changes. *)
let jobs =
  ref
    (match Sys.getenv_opt "ALT_JOBS" with
    | Some s -> (try int_of_string (String.trim s) with _ -> 1)
    | None -> 1)

let effective_jobs () =
  if !jobs <= 0 then Pool.default_jobs () else !jobs

(* Fault injection for the tuning drivers (defaults off): environment
   knobs ALT_FAULT_RATE / ALT_FAULT_SEED / ALT_RETRIES, overridden by
   --fault-rate / --fault-seed / --retries in bench/main.ml.  With a
   nonzero rate every experiment runs through the recovery policy of the
   measurement pipeline; the fault pattern is deterministic in the seed. *)
let fault_rate =
  ref
    (match Sys.getenv_opt "ALT_FAULT_RATE" with
    | Some s -> ( try float_of_string (String.trim s) with _ -> 0.0)
    | None -> 0.0)

let fault_seed =
  ref
    (match Sys.getenv_opt "ALT_FAULT_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
    | None -> 0)

let retries =
  ref
    (match Sys.getenv_opt "ALT_RETRIES" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 2)
    | None -> 2)

let faults () =
  if !fault_rate > 0.0 then Fault.create ~seed:!fault_seed ~rate:!fault_rate ()
  else Fault.none

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let geomean xs =
  match xs with
  | [] -> 1.0
  | _ ->
      Float.exp
        (List.fold_left (fun a x -> a +. Float.log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Normalized performance as in the paper's bar charts: best latency of the
   row = 1.0, others proportionally lower. *)
let normalize (latencies : (string * float) list) : (string * float) list =
  let best =
    List.fold_left (fun a (_, l) -> Float.min a l) Float.infinity latencies
  in
  List.map (fun (n, l) -> (n, best /. l)) latencies

let pp_row ppf (label, cells) =
  Fmt.pf ppf "%-26s %a@." label
    Fmt.(list ~sep:(any "  ") (fun ppf (n, v) -> Fmt.pf ppf "%s=%.3f" n v))
    cells

let timer = Unix.gettimeofday

let with_elapsed name f =
  let t0 = timer () in
  let r = f () in
  Fmt.pr "@.[%s finished in %.1fs]@." name (timer () -. t0);
  r

(* deterministic machine list per scale *)
let machines =
  pick
    ~smoke:[ Machine.intel_cpu ]
    ~quick:[ Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu ]
    ~full:[ Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu ]
