(* Tests for the alt_tensor substrate: shapes, the symbolic index algebra,
   and layout primitives (Table 1 and Eq. (1) of the paper).

   Coverage accounting for the layout section (kept >= the pre-relation
   suite, which ran one basic-prims-only pack/unpack property at count
   100 + 12 pinned cases): the generic relation round-trip property
   below draws random chains over ALL FIVE primitives (split / reorder /
   fuse / unfold / pad) at count 120, the symbolic-forward property
   keeps its basic-prims generator at count 60 (eval_fwd is undefined
   on unfold by design), and every primitive retains at least one
   pinned regression — blocked NOHW + fuse/split/reorder (split,
   reorder, fuse), unfold array example + ragged tail + Eq.(1) x2
   (unfold), pad (pad) — 12 pinned cases in the "layout" section.
   Deeper relation laws (inverse composition, canonicalization,
   differential vs the seed reference) live in test_relation.ml. *)

open Alt_tensor

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Shape                                                              *)
(* ------------------------------------------------------------------ *)

let test_strides () =
  check_ints "strides 2x3x4"
    [ 12; 4; 1 ]
    (Array.to_list (Shape.strides [| 2; 3; 4 |]));
  check_int "elements" 24 (Shape.num_elements [| 2; 3; 4 |])

let test_offset_roundtrip () =
  let s = [| 3; 5; 7 |] in
  for off = 0 to Shape.num_elements s - 1 do
    let idx = Shape.index_of_offset s off in
    check_int "roundtrip" off (Shape.offset_of_index s idx)
  done

let test_divisors () =
  check_ints "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Shape.divisors 12);
  check_int "round 12 5" 4 (Shape.round_to_divisor 12 5);
  check_int "round 12 12" 12 (Shape.round_to_divisor 12 12);
  check_int "round 7 3" 1 (Shape.round_to_divisor 7 3)

let test_shape_validate () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Shape.validate: non-positive extent in [2x0]")
    (fun () -> Shape.validate [| 2; 0 |])

(* ------------------------------------------------------------------ *)
(* Ixexpr                                                             *)
(* ------------------------------------------------------------------ *)

let test_fdiv_fmod () =
  check_int "fdiv pos" 2 (Ixexpr.fdiv 7 3);
  check_int "fdiv neg" (-3) (Ixexpr.fdiv (-7) 3);
  check_int "fmod pos" 1 (Ixexpr.fmod 7 3);
  check_int "fmod neg" 2 (Ixexpr.fmod (-7) 3);
  (* invariant: a = fdiv a b * b + fmod a b, 0 <= fmod < b *)
  for a = -20 to 20 do
    for b = 1 to 6 do
      check_int "recompose" a ((Ixexpr.fdiv a b * b) + Ixexpr.fmod a b);
      Alcotest.(check bool) "fmod range" true
        (Ixexpr.fmod a b >= 0 && Ixexpr.fmod a b < b)
    done
  done

let v name = Var.fresh name
let bounds_of lst v =
  List.assoc_opt (Var.id v) (List.map (fun (x, r) -> (Var.id x, r)) lst)

let test_simplify_div_mod () =
  let ho = v "ho" and hi = v "hi" in
  let bounds = bounds_of [ (ho, (0, 6)); (hi, (0, 3)) ] in
  let open Ixexpr in
  (* (ho*4 + hi) / 4 = ho when 0 <= hi < 4 *)
  let e = div (add (mul (var ho) (const 4)) (var hi)) (const 4) in
  Alcotest.(check string) "div simpl" "ho" (to_string (simplify ~bounds e));
  (* (ho*4 + hi) mod 4 = hi *)
  let e = mod_ (add (mul (var ho) (const 4)) (var hi)) (const 4) in
  Alcotest.(check string) "mod simpl" "hi" (to_string (simplify ~bounds e));
  (* without bounds, the div must remain *)
  let e = div (add (mul (var ho) (const 4)) (var hi)) (const 4) in
  Alcotest.(check bool) "no bounds keeps div" true
    (String.length (to_string (simplify e)) > 2)

let test_simplify_cancellation () =
  let ho = v "ho" and hi = v "hi" and rh = v "rh" in
  let bounds = bounds_of [ (ho, (0, 3)); (hi, (0, 1)); (rh, (0, 1)) ] in
  let open Ixexpr in
  (* the Eq.(1) residual: V*(ho*ht + hi) + rh - S*ho with V=1, ht=2, S=2
     must simplify to hi + rh *)
  let oh = add (mul (var ho) (const 2)) (var hi) in
  let e = sub (add oh (var rh)) (mul (const 2) (var ho)) in
  let s = simplify ~bounds e in
  Alcotest.(check bool) "cancel"
    true
    (equal ~bounds s (add (var hi) (var rh)))

let test_range () =
  let x = v "x" in
  let bounds = bounds_of [ (x, (0, 9)) ] in
  let open Ixexpr in
  (match range ~bounds (add (mul (var x) (const 3)) (const 5)) with
  | Some (lo, hi) ->
      check_int "lo" 5 lo;
      check_int "hi" 32 hi
  | None -> Alcotest.fail "expected range");
  (match range ~bounds (mod_ (var x) (const 4)) with
  | Some (lo, hi) ->
      check_int "mod lo" 0 lo;
      check_int "mod hi" 3 hi
  | None -> Alcotest.fail "expected range")

let test_coeff_of () =
  let i = v "i" and r = v "r" in
  let open Ixexpr in
  let e = add (mul (const 2) (var i)) (var r) in
  Alcotest.(check (option int)) "coeff i" (Some 2) (coeff_of e i);
  Alcotest.(check (option int)) "coeff r" (Some 1) (coeff_of e r);
  (match drop_var e i with
  | Some rest -> Alcotest.(check bool) "drop" true (equal rest (var r))
  | None -> Alcotest.fail "drop_var");
  (* variable under div is not affine *)
  let e2 = div (var i) (const 2) in
  Alcotest.(check (option int)) "nested" None (coeff_of e2 i)

(* qcheck: simplify preserves evaluation. *)
let arb_expr vars_list =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map Ixexpr.const (int_range (-8) 8);
        map Ixexpr.var (oneofl vars_list);
      ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      let sub = go (n - 1) in
      oneof
        [
          leaf;
          map2 Ixexpr.add sub sub;
          map2 Ixexpr.sub sub sub;
          map2 Ixexpr.mul sub sub;
          map2 (fun a c -> Ixexpr.div a (Ixexpr.const c)) sub (int_range 1 6);
          map2 (fun a c -> Ixexpr.mod_ a (Ixexpr.const c)) sub (int_range 1 6);
          map2 Ixexpr.min_ sub sub;
          map2 Ixexpr.max_ sub sub;
        ]
  in
  go 4

let prop_simplify_preserves_eval =
  let x = v "x" and y = v "y" and z = v "z" in
  let vars_list = [ x; y; z ] in
  QCheck2.Test.make ~count:500 ~name:"simplify preserves evaluation"
    QCheck2.Gen.(
      pair (arb_expr vars_list) (triple (int_range 0 7) (int_range 0 7) (int_range 0 7)))
    (fun (e, (a, b, c)) ->
      let env w =
        if Var.equal w x then a else if Var.equal w y then b else c
      in
      let bounds = bounds_of [ (x, (0, 7)); (y, (0, 7)); (z, (0, 7)) ] in
      Ixexpr.eval env e = Ixexpr.eval env (Ixexpr.simplify ~bounds e))

let prop_simplify_idempotent =
  let x = v "x" and y = v "y" in
  QCheck2.Test.make ~count:300 ~name:"simplify idempotent"
    (arb_expr [ x; y ])
    (fun e ->
      let s = Ixexpr.simplify e in
      Ixexpr.equal s (Ixexpr.simplify s))

(* ------------------------------------------------------------------ *)
(* Layout                                                             *)
(* ------------------------------------------------------------------ *)

let test_paper_blocked_layout () =
  (* NOHW -> N O/ot H W ot (paper Section 4.1.1 first example):
     split(T, dim=1, factors=[O/ot; ot]); reorder([0;1;3;4;2]) *)
  let n, o, h, w = (2, 8, 4, 4) in
  let ot = 4 in
  let l = Layout.create [| n; o; h; w |] in
  let l = Layout.split l ~dim:1 ~factors:[ o / ot; ot ] in
  (* after split: N (O/ot) ot H W; move ot last *)
  let l = Layout.reorder l [| 0; 1; 3; 4; 2 |] in
  check_ints "physical" [ 2; 2; 4; 4; 4 ]
    (Array.to_list (Layout.physical_shape l));
  (* index map: logical (n,o,h,w) -> (n, o/ot, h, w, o mod ot) *)
  let idx = Layout.eval_fwd l [| 1; 6; 2; 3 |] in
  check_ints "fwd idx" [ 1; 1; 2; 3; 2 ] (Array.to_list idx)

let test_paper_fuse_split_example () =
  (* Section 4.1.1 second example on NHWO:
     fuse(dims 1..3); split(dim=1, [O/4; 4; H*W]); reorder([0;1;3;2]) *)
  let n, h, w, o = (1, 2, 3, 8) in
  let l = Layout.create [| n; h; w; o |] in
  let l = Layout.fuse l ~dim:1 ~count:3 in
  let l = Layout.split l ~dim:1 ~factors:[ o / 4; 4; h * w ] in
  let l = Layout.reorder l [| 0; 1; 3; 2 |] in
  check_ints "shape N (O/4) (HW) 4" [ 1; 2; 6; 4 ]
    (Array.to_list (Layout.physical_shape l));
  (* data round-trips *)
  let src = Buffer.iota [| n; h; w; o |] in
  let packed = Layout.pack l src in
  let back = Layout.unpack l packed in
  Alcotest.(check bool) "roundtrip" true (Buffer.allclose src back)

let test_unfold_array_example () =
  (* Paper: {1,2,3,4,5} unfolded with B=3, S=2 -> {{1,2,3},{3,4,5}} *)
  let l = Layout.create [| 5 |] in
  let l = Layout.unfold l ~dim:0 ~tile:3 ~stride:2 in
  check_ints "shape" [ 2; 3 ] (Array.to_list (Layout.physical_shape l));
  let packed = Layout.pack l [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (array (float 0.0))) "data"
    [| 1.; 2.; 3.; 3.; 4.; 5. |]
    packed;
  Alcotest.(check bool) "expansion" true (Layout.expansion_ratio l > 1.0)

let test_unfold_ragged () =
  (* extent 6, tile 3, stride 2: tiles at 0,2,4; the last overhangs by one
     and zero-fills *)
  let l = Layout.create [| 6 |] in
  let l = Layout.unfold l ~dim:0 ~tile:3 ~stride:2 in
  check_ints "shape" [ 3; 3 ] (Array.to_list (Layout.physical_shape l));
  let packed = Layout.pack l [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Alcotest.(check (array (float 0.0)))
    "ragged data"
    [| 1.; 2.; 3.; 3.; 4.; 5.; 5.; 6.; 0. |]
    packed;
  Alcotest.(check bool) "unpack" true
    (Buffer.allclose [| 1.; 2.; 3.; 4.; 5.; 6. |] (Layout.unpack l packed))

let test_pad () =
  let l = Layout.create [| 2; 3 |] in
  let l = Layout.pad l ~dim:1 ~lo:0 ~hi:2 in
  check_ints "shape" [ 2; 5 ] (Array.to_list (Layout.physical_shape l));
  let packed = Layout.pack l [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Alcotest.(check (array (float 0.0))) "zeros appended"
    [| 1.; 2.; 3.; 0.; 0.; 4.; 5.; 6.; 0.; 0. |]
    packed;
  Alcotest.(check bool) "unpack" true
    (Buffer.allclose [| 1.; 2.; 3.; 4.; 5.; 6. |] (Layout.unpack l packed))

let test_forward_exprs_match_eval_fwd () =
  (* Symbolic forward rewriting agrees with the concrete map on every
     logical index, for a basic-primitive layout. *)
  let shape = [| 4; 6 |] in
  let l = Layout.create shape in
  let l = Layout.split l ~dim:1 ~factors:[ 2; 3 ] in
  let l = Layout.reorder l [| 1; 0; 2 |] in
  let l = Layout.fuse l ~dim:1 ~count:2 in
  let a = v "a" and b = v "b" in
  let exprs =
    Layout.forward_exprs l [| Ixexpr.var a; Ixexpr.var b |]
  in
  for i = 0 to 3 do
    for j = 0 to 5 do
      let env w = if Var.equal w a then i else j in
      let sym = Array.map (Ixexpr.eval env) exprs in
      let conc = Layout.eval_fwd l [| i; j |] in
      check_ints
        (Fmt.str "idx %d %d" i j)
        (Array.to_list conc) (Array.to_list sym)
    done
  done

let test_inverse_exprs_roundtrip () =
  let shape = [| 4; 6; 2 |] in
  let l = Layout.create shape in
  let l = Layout.split l ~dim:0 ~factors:[ 2; 2 ] in
  let l = Layout.reorder l [| 3; 0; 2; 1 |] in
  let phys = Layout.physical_shape l in
  (* inverse(concrete physical idx) must equal the logical source *)
  let pvars = Array.init (Shape.rank phys) (fun i -> v (Fmt.str "p%d" i)) in
  let inv = Layout.inverse_exprs l (Array.map Ixexpr.var pvars) in
  for off = 0 to Shape.num_elements phys - 1 do
    let pidx = Shape.index_of_offset phys off in
    let env w =
      let rec find k =
        if Var.equal pvars.(k) w then pidx.(k) else find (k + 1)
      in
      find 0
    in
    let lidx = Array.map (Ixexpr.eval env) inv in
    let fwd = Layout.eval_fwd l lidx in
    check_ints "roundtrip" (Array.to_list pidx) (Array.to_list fwd)
  done

let test_unfold_eq1_rewrite () =
  (* Sliding-window access: Inp[oh + rh] with oh in [0,4), rh in [0,2),
     input extent 5 = 4 + (2-1).  Unfold with tile = ht + KH - 1 = 3,
     stride = ht = 2.  Invariant: packed[fwd(oh, rh)] = logical[oh + rh]. *)
  let d = 5 in
  let l = Layout.create [| d |] in
  let l = Layout.unfold l ~dim:0 ~tile:3 ~stride:2 in
  let oh = v "oh" and rh = v "rh" in
  let bounds = bounds_of [ (oh, (0, 3)); (rh, (0, 1)) ] in
  let window w = if Var.equal w oh then Some 1 else None in
  let access = Ixexpr.add (Ixexpr.var oh) (Ixexpr.var rh) in
  let exprs = Layout.forward_exprs ~bounds ~window l [| access |] in
  check_int "rank" 2 (Array.length exprs);
  let logical = Buffer.iota [| d |] in
  let packed = Layout.pack l logical in
  let phys = Layout.physical_shape l in
  for i = 0 to 3 do
    for r = 0 to 1 do
      let env w = if Var.equal w oh then i else r in
      let pidx = Array.map (Ixexpr.eval env) exprs in
      let poff = Shape.offset_of_index phys pidx in
      Alcotest.(check (float 0.0))
        (Fmt.str "oh=%d rh=%d" i r)
        logical.(i + r) packed.(poff)
    done
  done

let test_unfold_eq1_strided () =
  (* Conv stride V=2: access 2*oh + rh, oh in [0,4), rh in [0,3).
     Input extent D = 2*4 + 3 - 2 = 9.  Output tiled by ht=2:
     tile B = V*ht + KH - V = 2*2+3-2 = 5, S = V*ht = 4. *)
  let d = 9 in
  let l = Layout.create [| d |] in
  let l = Layout.unfold l ~dim:0 ~tile:5 ~stride:4 in
  check_ints "tiles" [ 2; 5 ] (Array.to_list (Layout.physical_shape l));
  let oh = v "oh" and rh = v "rh" in
  let bounds = bounds_of [ (oh, (0, 3)); (rh, (0, 2)) ] in
  let window w = if Var.equal w oh then Some 2 else None in
  let access =
    Ixexpr.add (Ixexpr.mul (Ixexpr.const 2) (Ixexpr.var oh)) (Ixexpr.var rh)
  in
  let exprs = Layout.forward_exprs ~bounds ~window l [| access |] in
  let logical = Buffer.iota [| d |] in
  let packed = Layout.pack l logical in
  let phys = Layout.physical_shape l in
  for i = 0 to 3 do
    for r = 0 to 2 do
      let env w = if Var.equal w oh then i else r in
      let pidx = Array.map (Ixexpr.eval env) exprs in
      let poff = Shape.offset_of_index phys pidx in
      Alcotest.(check (float 0.0))
        (Fmt.str "oh=%d rh=%d" i r)
        logical.((2 * i) + r)
        packed.(poff)
    done
  done

let test_unfold_rejects_non_window () =
  let l = Layout.create [| 5 |] in
  let l = Layout.unfold l ~dim:0 ~tile:3 ~stride:2 in
  let x = v "x" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Layout.forward_exprs l [| Ixexpr.var x |]);
       false
     with Layout.Layout_error _ -> true)

let test_layout_validation () =
  let l = Layout.create [| 4; 6 |] in
  let raises f =
    Alcotest.(check bool) "raises" true
      (try
         ignore (f ());
         false
       with Layout.Layout_error _ -> true)
  in
  raises (fun () -> Layout.split l ~dim:1 ~factors:[ 4; 2 ]);
  raises (fun () -> Layout.split l ~dim:5 ~factors:[ 2; 3 ]);
  raises (fun () -> Layout.reorder l [| 0; 0 |]);
  raises (fun () -> Layout.fuse l ~dim:1 ~count:3);
  raises (fun () -> Layout.unfold l ~dim:0 ~tile:5 ~stride:2);
  raises (fun () -> Layout.pad l ~dim:0 ~lo:(-1) ~hi:0)

let test_invertible_flags () =
  let l = Layout.create [| 4; 4 |] in
  Alcotest.(check bool) "trivial" true (Layout.is_trivial l);
  Alcotest.(check bool) "invertible" true (Layout.invertible l);
  let l2 = Layout.split l ~dim:0 ~factors:[ 2; 2 ] in
  Alcotest.(check bool) "basic invertible" true (Layout.invertible l2);
  Alcotest.(check bool) "no advanced" false (Layout.has_advanced l2);
  let l3 = Layout.pad l ~dim:0 ~lo:0 ~hi:4 in
  Alcotest.(check bool) "pad advanced" true (Layout.has_advanced l3);
  Alcotest.(check bool) "pad not invertible" false (Layout.invertible l3)

(* qcheck: generic relation round-trip — random chains over all five
   primitives.  [Layout.pack] pushes every logical element through the
   (possibly one-to-many) forward relation and [unpack] pulls it back
   through the guarded backward map, so exact reconstruction over
   unfold-duplicated and pad-holed physical buffers is the executable
   [backward o forward = id] law. *)
let gen_full_layout =
  let open QCheck2.Gen in
  let* d0 = oneofl [ 2; 4; 6 ] in
  let* d1 = oneofl [ 3; 4; 8 ] in
  let shape = [| d0; d1 |] in
  let rec add_prims l n =
    if n = 0 then return l
    else
      let phys = Layout.physical_shape l in
      let rank = Shape.rank phys in
      if Shape.num_elements phys > 1024 then return l
      else
        let* choice = int_range 0 4 in
        let* l' =
          match choice with
          | 0 ->
              let* dim = int_range 0 (rank - 1) in
              let d = phys.(dim) in
              let ds = List.filter (fun f -> f > 1 && f < d) (Shape.divisors d) in
              if ds = [] then return l
              else
                let* f = oneofl ds in
                return (Layout.split l ~dim ~factors:[ d / f; f ])
          | 1 ->
              let perm = Array.init rank (fun i -> i) in
              let* swaps =
                list_size (return 3)
                  (pair (int_range 0 (rank - 1)) (int_range 0 (rank - 1)))
              in
              List.iter
                (fun (i, j) ->
                  let t = perm.(i) in
                  perm.(i) <- perm.(j);
                  perm.(j) <- t)
                swaps;
              return (Layout.reorder l perm)
          | 2 ->
              if rank >= 2 then
                let* dim = int_range 0 (rank - 2) in
                return (Layout.fuse l ~dim ~count:2)
              else return l
          | 3 ->
              let* dim = int_range 0 (rank - 1) in
              let* lo = int_range 0 2 in
              let* hi = int_range 0 2 in
              if lo = 0 && hi = 0 then return l
              else return (Layout.pad l ~dim ~lo ~hi)
          | _ ->
              let* dim = int_range 0 (rank - 1) in
              let d = phys.(dim) in
              if d < 2 then return l
              else
                let* tile = int_range 2 (min d 4) in
                let* stride = int_range 1 tile in
                return (Layout.unfold l ~dim ~tile ~stride)
        in
        add_prims l' (n - 1)
  in
  let* n = int_range 0 5 in
  add_prims (Layout.create shape) n

let prop_relation_unpack_pack =
  QCheck2.Test.make ~count:120
    ~name:"relation roundtrip: unpack o pack = id (all five prims)"
    ~print:(fun l -> Fmt.str "%a" Layout.pp l)
    gen_full_layout
    (fun l ->
      let shape = Layout.logical_shape l in
      let src =
        Array.init (Shape.num_elements shape) (fun i -> float_of_int (i + 1))
      in
      let rel = Layout.relation l in
      Layout.unpack l (Layout.pack l src) = src
      && Shape.equal (Relation.domain rel) shape
      && Shape.equal (Relation.range rel) (Layout.physical_shape l)
      && Relation.num_range_elements rel = Layout.num_physical_elements l)

(* qcheck: random basic layouts for the symbolic-forward property
   (eval_fwd is undefined on unfold, so this generator stays basic). *)
let gen_basic_layout =
  let open QCheck2.Gen in
  let* d0 = oneofl [ 2; 4; 6 ] in
  let* d1 = oneofl [ 4; 8 ] in
  let* d2 = oneofl [ 3; 6 ] in
  let shape = [| d0; d1; d2 |] in
  let rec add_prims l n =
    if n = 0 then return l
    else
      let phys = Layout.physical_shape l in
      let rank = Shape.rank phys in
      let* choice = int_range 0 2 in
      let* l' =
        match choice with
        | 0 ->
            let* dim = int_range 0 (rank - 1) in
            let ds = Shape.divisors phys.(dim) in
            let* f = oneofl ds in
            return (Layout.split l ~dim ~factors:[ phys.(dim) / f; f ])
        | 1 ->
            let perm = Array.init rank (fun i -> i) in
            let* swaps = list_size (return 3) (pair (int_range 0 (rank - 1)) (int_range 0 (rank - 1))) in
            List.iter
              (fun (i, j) ->
                let t = perm.(i) in
                perm.(i) <- perm.(j);
                perm.(j) <- t)
              swaps;
            return (Layout.reorder l perm)
        | _ ->
            if rank >= 2 then
              let* dim = int_range 0 (rank - 2) in
              return (Layout.fuse l ~dim ~count:2)
            else return l
      in
      add_prims l' (n - 1)
  in
  let* n = int_range 0 4 in
  add_prims (Layout.create shape) n

let prop_forward_matches_concrete =
  QCheck2.Test.make ~count:60 ~name:"symbolic forward = concrete forward"
    gen_basic_layout (fun l ->
      let shape = Layout.logical_shape l in
      let vars = Array.map (fun _ -> v "i") shape in
      let exprs = Layout.forward_exprs l (Array.map Ixexpr.var vars) in
      let ok = ref true in
      let n = Shape.num_elements shape in
      let step = max 1 (n / 37) in
      let off = ref 0 in
      while !off < n do
        let lidx = Shape.index_of_offset shape !off in
        let env w =
          let rec find k =
            if k >= Array.length vars then 0
            else if Var.equal vars.(k) w then lidx.(k)
            else find (k + 1)
          in
          find 0
        in
        let sym = Array.map (Ixexpr.eval env) exprs in
        let conc = Layout.eval_fwd l lidx in
        if sym <> conc then ok := false;
        off := !off + step
      done;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "alt_tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "strides" `Quick test_strides;
          Alcotest.test_case "offset roundtrip" `Quick test_offset_roundtrip;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "validate" `Quick test_shape_validate;
        ] );
      ( "ixexpr",
        [
          Alcotest.test_case "fdiv/fmod" `Quick test_fdiv_fmod;
          Alcotest.test_case "div/mod simplification" `Quick
            test_simplify_div_mod;
          Alcotest.test_case "cancellation" `Quick test_simplify_cancellation;
          Alcotest.test_case "range analysis" `Quick test_range;
          Alcotest.test_case "coeff_of/drop_var" `Quick test_coeff_of;
        ] );
      qsuite "ixexpr-props"
        [ prop_simplify_preserves_eval; prop_simplify_idempotent ];
      ( "layout",
        [
          Alcotest.test_case "blocked NOHW layout" `Quick
            test_paper_blocked_layout;
          Alcotest.test_case "fuse/split/reorder example" `Quick
            test_paper_fuse_split_example;
          Alcotest.test_case "unfold array example" `Quick
            test_unfold_array_example;
          Alcotest.test_case "unfold ragged tail" `Quick test_unfold_ragged;
          Alcotest.test_case "pad" `Quick test_pad;
          Alcotest.test_case "forward exprs = concrete" `Quick
            test_forward_exprs_match_eval_fwd;
          Alcotest.test_case "inverse exprs roundtrip" `Quick
            test_inverse_exprs_roundtrip;
          Alcotest.test_case "unfold Eq.(1) stride 1" `Quick
            test_unfold_eq1_rewrite;
          Alcotest.test_case "unfold Eq.(1) stride 2" `Quick
            test_unfold_eq1_strided;
          Alcotest.test_case "unfold rejects non-window" `Quick
            test_unfold_rejects_non_window;
          Alcotest.test_case "validation" `Quick test_layout_validation;
          Alcotest.test_case "invertibility flags" `Quick test_invertible_flags;
        ] );
      qsuite "layout-props"
        [ prop_relation_unpack_pack; prop_forward_matches_concrete ];
    ]
