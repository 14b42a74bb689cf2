(* Figure 9: single-operator benchmark.

   Nine complex, layout-sensitive operators (C2D, GRP, DIL, DEP, C3D, C1D,
   GMM, T2D, T3D) x several configurations x five systems (vendor-library
   stand-in, AutoTVM-like, FlexTensor-like, Ansor-like, ALT) x three
   machine profiles.  Reports per-operator normalized performance (geomean
   of speedups over the worst system per test case, as in the paper) and
   the ALT-vs-baseline speedup summary.  Also prints the tuned o_t values
   to reproduce the Section 7.3.5 observation. *)

open Alt
open Bench_util

let systems =
  [
    Tuner.Vendor; Tuner.Autotvm_like; Tuner.Flextensor_like; Tuner.Ansor_like;
    Tuner.Alt;
  ]

let budget = pick ~smoke:16 ~quick:160 ~full:400
let max_points = pick ~smoke:4_000 ~quick:12_000 ~full:50_000
let n_configs = pick ~smoke:1 ~quick:2 ~full:5

(* configuration generator per operator family; [v]ariants sampled from
   common workload settings (channels from the paper's sampling list). *)
let configs name =
  let all =
    match name with
    | "C2D" ->
        [
          (fun v -> Ops.c2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16
              ~o:32 ~h:28 ~w:28 ~kh:3 ~kw:3 ());
          (fun v -> Ops.c2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:3
              ~o:32 ~h:32 ~w:32 ~kh:3 ~kw:3 ());
          (fun v -> Ops.c2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~i:32
              ~o:32 ~h:14 ~w:14 ~kh:3 ~kw:3 ~stride:2 ());
          (fun v -> Ops.c2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:64
              ~o:64 ~h:7 ~w:7 ~kh:3 ~kw:3 ());
          (fun v -> Ops.c2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:24
              ~o:96 ~h:14 ~w:14 ~kh:1 ~kw:1 ());
        ]
    | "GRP" ->
        [
          (fun v -> Ops.grp ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:32
              ~o:32 ~h:14 ~w:14 ~kh:3 ~kw:3 ~groups:4 ());
          (fun v -> Ops.grp ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16
              ~o:32 ~h:28 ~w:28 ~kh:3 ~kw:3 ~groups:2 ());
          (fun v -> Ops.grp ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:64
              ~o:64 ~h:7 ~w:7 ~kh:3 ~kw:3 ~groups:8 ());
          (fun v -> Ops.grp ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~i:24
              ~o:24 ~h:14 ~w:14 ~kh:3 ~kw:3 ~groups:3 ());
          (fun v -> Ops.grp ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:32
              ~o:64 ~h:14 ~w:14 ~kh:5 ~kw:5 ~groups:4 ());
        ]
    | "DIL" ->
        [
          (fun v -> Ops.dil ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16
              ~o:32 ~h:14 ~w:14 ~kh:3 ~kw:3 ~dilation:2 ());
          (fun v -> Ops.dil ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:32
              ~o:32 ~h:14 ~w:14 ~kh:3 ~kw:3 ~dilation:4 ());
          (fun v -> Ops.dil ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8
              ~o:64 ~h:28 ~w:28 ~kh:3 ~kw:3 ~dilation:2 ());
          (fun v -> Ops.dil ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~i:16
              ~o:16 ~h:14 ~w:14 ~kh:5 ~kw:5 ~dilation:2 ());
          (fun v -> Ops.dil ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:48
              ~o:48 ~h:7 ~w:7 ~kh:3 ~kw:3 ~dilation:3 ());
        ]
    | "DEP" ->
        [
          (fun v -> Ops.dep ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~c:32
              ~h:28 ~w:28 ~kh:3 ~kw:3 ());
          (fun v -> Ops.dep ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~c:64
              ~h:14 ~w:14 ~kh:3 ~kw:3 ~stride:2 ());
          (fun v -> Ops.dep ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~c:96
              ~h:14 ~w:14 ~kh:3 ~kw:3 ());
          (fun v -> Ops.dep ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~c:16
              ~h:28 ~w:28 ~kh:5 ~kw:5 ());
          (fun v -> Ops.dep ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~c:128
              ~h:7 ~w:7 ~kh:3 ~kw:3 ());
        ]
    | "C3D" ->
        [
          (fun v -> Ops.c3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8
              ~o:16 ~d:8 ~h:14 ~w:14 ~kd:3 ~kh:3 ~kw:3 ());
          (fun v -> Ops.c3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:3
              ~o:16 ~d:8 ~h:16 ~w:16 ~kd:3 ~kh:3 ~kw:3 ());
          (fun v -> Ops.c3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16
              ~o:32 ~d:4 ~h:7 ~w:7 ~kd:3 ~kh:3 ~kw:3 ());
          (fun v -> Ops.c3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16
              ~o:16 ~d:8 ~h:8 ~w:8 ~kd:1 ~kh:1 ~kw:1 ());
          (fun v -> Ops.c3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~i:8
              ~o:8 ~d:8 ~h:14 ~w:14 ~kd:3 ~kh:3 ~kw:3 ~stride:2 ());
        ]
    | "C1D" ->
        [
          (fun v -> Ops.c1d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:32
              ~o:64 ~w:64 ~kw:3 ());
          (fun v -> Ops.c1d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:64
              ~o:64 ~w:32 ~kw:5 ());
          (fun v -> Ops.c1d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:4 ~i:16
              ~o:32 ~w:64 ~kw:3 ~stride:2 ());
          (fun v -> Ops.c1d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8
              ~o:128 ~w:64 ~kw:9 ());
          (fun v -> Ops.c1d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:128
              ~o:32 ~w:32 ~kw:3 ());
        ]
    | "GMM" ->
        [
          (fun v -> Ops.gmm ~name:v ~a:"A" ~b:"B" ~out:"C" ~m:64 ~k:64 ~n:64 ());
          (fun v -> Ops.gmm ~name:v ~a:"A" ~b:"B" ~out:"C" ~m:32 ~k:256 ~n:32 ());
          (fun v -> Ops.gmm ~name:v ~a:"A" ~b:"B" ~out:"C" ~m:128 ~k:32 ~n:128 ());
          (fun v -> Ops.gmm ~name:v ~a:"A" ~b:"B" ~out:"C" ~m:16 ~k:64 ~n:512 ());
          (fun v -> Ops.gmm ~name:v ~a:"A" ~b:"B" ~out:"C" ~m:96 ~k:96 ~n:96 ());
        ]
    | "T2D" ->
        [
          (fun v -> Ops.t2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:32
              ~o:16 ~h:14 ~w:14 ~kh:3 ~kw:3 ());
          (fun v -> Ops.t2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16
              ~o:8 ~h:28 ~w:28 ~kh:3 ~kw:3 ());
          (fun v -> Ops.t2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:64
              ~o:32 ~h:7 ~w:7 ~kh:5 ~kw:5 ());
          (fun v -> Ops.t2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~i:24
              ~o:24 ~h:14 ~w:14 ~kh:3 ~kw:3 ());
          (fun v -> Ops.t2d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8
              ~o:8 ~h:32 ~w:32 ~kh:3 ~kw:3 ());
        ]
    | "T3D" ->
        [
          (fun v -> Ops.t3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16
              ~o:8 ~d:4 ~h:8 ~w:8 ~kd:3 ~kh:3 ~kw:3 ());
          (fun v -> Ops.t3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8
              ~o:8 ~d:8 ~h:8 ~w:8 ~kd:3 ~kh:3 ~kw:3 ());
          (fun v -> Ops.t3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:32
              ~o:16 ~d:4 ~h:7 ~w:7 ~kd:3 ~kh:3 ~kw:3 ());
          (fun v -> Ops.t3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~i:8
              ~o:16 ~d:4 ~h:8 ~w:8 ~kd:1 ~kh:3 ~kw:3 ());
          (fun v -> Ops.t3d ~name:v ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8
              ~o:32 ~d:4 ~h:8 ~w:8 ~kd:3 ~kh:3 ~kw:3 ());
        ]
    | _ -> assert false
  in
  List.filteri (fun i _ -> i < n_configs) all

let op_families = [ "C2D"; "GRP"; "DIL"; "DEP"; "C3D"; "C1D"; "GMM"; "T2D"; "T3D" ]

(* tuned o_t extraction for the Section 7.3.5 observation *)
let tuned_ot (choice : Propagate.choice) : int option =
  let phys = Layout.physical_shape choice.Propagate.out_layout in
  match Layout.prims choice.Propagate.out_layout with
  | [] -> None
  | _ -> Some phys.(Shape.rank phys - 1)

let run () =
  section "Figure 9: single operator performance (normalized; higher is better)";
  let alt_ots = ref [] in
  List.iter
    (fun machine ->
      Fmt.pr "@.--- %a (budget %d per op/system) ---@." Machine.pp machine
        budget;
      Fmt.pr "%-5s %s@." "op"
        (String.concat "  "
           (List.map (fun s -> Fmt.str "%10s" (Tuner.system_name s)) systems));
      let alt_vs = Hashtbl.create 8 in
      List.iter
        (fun fam ->
          (* accumulate normalized perf per system over the configs *)
          let norm_acc = Hashtbl.create 8 in
          List.iteri
            (fun ci mk ->
              let lats =
                List.map
                  (fun sys ->
                    let op = mk (Fmt.str "%s_%d" fam ci) in
                    let task = Measure.make_task ~faults:(Bench_util.faults ()) ~retries:!Bench_util.retries ~machine ~max_points op in
                    let r =
                      Tuner.tune_op
                        ~pool:(Pool.create ~jobs:(effective_jobs ()) ())
                        ~system:sys ~budget task
                    in
                    if sys = Tuner.Alt && machine.Machine.name = "intel-cpu"
                    then
                      Option.iter
                        (fun ot -> alt_ots := (fam, ot) :: !alt_ots)
                        (tuned_ot r.Tuner.best_choice);
                    (Tuner.system_name sys, r.Tuner.best_latency))
                  systems
              in
              let normed = normalize lats in
              List.iter
                (fun (nm, v) ->
                  let prev = try Hashtbl.find norm_acc nm with Not_found -> [] in
                  Hashtbl.replace norm_acc nm (v :: prev))
                normed;
              (* speedups of ALT over each baseline *)
              let alt_lat = List.assoc "alt" lats in
              List.iter
                (fun (nm, l) ->
                  if nm <> "alt" then begin
                    let prev = try Hashtbl.find alt_vs nm with Not_found -> [] in
                    Hashtbl.replace alt_vs nm ((l /. alt_lat) :: prev)
                  end)
                lats)
            (configs fam);
          Fmt.pr "%-5s %s@." fam
            (String.concat "  "
               (List.map
                  (fun s ->
                    let nm = Tuner.system_name s in
                    Fmt.str "%10.3f" (geomean (Hashtbl.find norm_acc nm)))
                  systems)))
        op_families;
      Fmt.pr "@.ALT speedup (geomean) on %a:@." Machine.pp machine;
      Hashtbl.iter
        (fun nm sps -> Fmt.pr "  vs %-12s %.2fx@." nm (geomean sps))
        alt_vs)
    machines;
  if !alt_ots <> [] then begin
    Fmt.pr "@.Section 7.3.5: tuned innermost channel tile o_t on intel-cpu@.";
    Fmt.pr "(vector lanes = 16; the paper observes o_t ~ 2x lanes):@.";
    List.iter (fun (fam, ot) -> Fmt.pr "  %-5s o_t = %d@." fam ot) !alt_ots
  end
