(* perfbench: one compile-and-run benchmark of ALT.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

   Runs one workload for about S seconds and prints, as its last line,
   one JSON object with the end-to-end metrics (--trace 0) or the
   per-layer ledger (--trace 1).  DIR holds trace files and the serve
   journal.  Exits 1 when the correctness gate or a determinism or
   ground-truth guard fails.  See README.md. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and tmp = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "zoo_gradient|zoo_static|serve_mix");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer ledger");
      ("--tmp", Arg.Set_string tmp, "scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR";
  let seed = !seed and seconds = !seconds and tmp = !tmp in
  let zoo policy =
    if !trace = 1 then Zoo.run_traced ~policy ~seed ~seconds ~tmp
    else Zoo.run_plain ~policy ~seed ~seconds
  in
  let r =
    match !workload with
    | "zoo_gradient" -> zoo Alt.Scheduler.Gradient
    | "zoo_static" -> zoo Alt.Scheduler.Static
    | "serve_mix" -> Serve_mix.run ~traced:(!trace = 1) ~seed ~seconds ~tmp
    | w -> Fmt.failwith "unknown workload %S" w
  in
  if not (Report.print ~trace:(!trace = 1) r) then exit 1
