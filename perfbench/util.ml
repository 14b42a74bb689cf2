(* Clock, order statistics and the failure ledger shared by the
   workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.percentile: no samples";
  let r = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* The highest percentile of the ladder with at least ten samples beyond
   it, as [(percentile, value)]; the median when there are too few. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let p =
    List.fold_left
      (fun best p -> if n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else best)
      50.0
      [ 75.0; 90.0; 95.0; 99.0; 99.9 ]
  in
  (p, percentile p xs)

let geomean xs =
  Float.exp
    (List.fold_left (fun a x -> a +. Float.log x) 0.0 xs
    /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak major heap of this process, in MB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Registry counters, read by name, and the change between two readings. *)
let counter name = Alt.Metrics.counter_value (Alt.Metrics.counter name)
let read names = List.map (fun n -> (n, counter n)) names
let delta before after = List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* Validations and compositions in the layout relation algebra.  They
   tick inside Layout and Relation, which emit no span or instant, so
   nothing else observes them; and Layout memoizes derived relations per
   domain, so the counts depend on how warm that memo is. *)
let relation_counters = [ "layout.relation.validate"; "layout.relation.compose" ]

(* Failures found by the correctness gate and the determinism and
   ground-truth guards.  Each is printed to stderr as it is found. *)
let failures = ref []

let fail fmt =
  Fmt.kstr
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      failures := msg :: !failures)
    fmt

(* Compare a quantity that must repeat exactly. *)
let same what a b = if a <> b then fail "determinism: %s differs" what
