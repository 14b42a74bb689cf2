(* The proof burden of the layout algebra (DESIGN.md §16).

   Random layout primitive chains (depth <= 8, all five single-tensor
   primitives, padded/unfolded/fused shapes) drive the relation laws:

   - backward o forward = id on every in-domain point,
   - forward o backward = id on the live range (holes are zero-filled),
   - compose = sequential application at every chain split point,
   - canonicalization is idempotent,
   - the symbolic [Layout.inverse_exprs] undoes [Layout.forward_exprs]
     pointwise on split/reorder/fuse chains,
   - the relation-backed [Layout.pack]/[unpack]/[eval_fwd]/[phys_index]
     are byte-identical to the kept-verbatim seed implementations in
     [Layout.Reference] (the differential oracle),
   - strides/extents/conversion-cost read off the relation agree with
     the physical shape,

   plus pinned unit regressions for each canonicalization rewrite, the
   window/shift guards, and the incremental-validation fix (an
   n-primitive chain costs exactly n validations, counted by the
   [layout.relation.validate] metric — the seed re-validated the whole
   prefix per step, n(n+1)/2).

   ALT_RELATION_COUNT scales the per-property chain count (default 500,
   the ISSUE floor; `make relation-smoke` runs a reduced count). *)

open Alt_tensor

let counts =
  match Sys.getenv_opt "ALT_RELATION_COUNT" with
  | Some s -> ( try max 10 (int_of_string s) with _ -> 500)
  | None -> 500

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Random primitive chains                                            *)
(* ------------------------------------------------------------------ *)

let gen_shape =
  let open QCheck2.Gen in
  let* rank = int_range 1 3 in
  let* dims = list_repeat rank (oneofl [ 2; 3; 4; 6 ]) in
  return (Array.of_list dims)

let gen_perm rank =
  let open QCheck2.Gen in
  let* swaps =
    list_size (int_range 0 4) (pair (int_range 0 (rank - 1)) (int_range 0 (rank - 1)))
  in
  let perm = Array.init rank (fun i -> i) in
  List.iter
    (fun (i, j) ->
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t)
    swaps;
  return perm

(* One random primitive applied to [l], or [l] unchanged when the drawn
   primitive has no legal instantiation on the current physical shape.
   [basic_only] restricts to split/reorder/fuse (bijective chains). *)
let gen_step ?(basic_only = false) l =
  let open QCheck2.Gen in
  let phys = Layout.physical_shape l in
  let rank = Shape.rank phys in
  if Shape.num_elements phys > 1024 then return l
  else
    let* k = if basic_only then int_range 0 2 else int_range 0 4 in
    match k with
    | 0 ->
        let* dim = int_range 0 (rank - 1) in
        let d = phys.(dim) in
        let ds = List.filter (fun f -> f > 1 && f < d) (Shape.divisors d) in
        if ds = [] then return l
        else
          let* f = oneofl ds in
          return (Layout.split l ~dim ~factors:[ d / f; f ])
    | 1 ->
        let* perm = gen_perm rank in
        return (Layout.reorder l perm)
    | 2 ->
        if rank < 2 then return l
        else
          let* dim = int_range 0 (rank - 2) in
          let* count = int_range 2 (min 3 (rank - dim)) in
          return (Layout.fuse l ~dim ~count)
    | 3 ->
        let* dim = int_range 0 (rank - 1) in
        let* lo = int_range 0 2 in
        let* hi = int_range 0 2 in
        if lo = 0 && hi = 0 then return l else return (Layout.pad l ~dim ~lo ~hi)
    | _ ->
        let* dim = int_range 0 (rank - 1) in
        let d = phys.(dim) in
        if d < 2 then return l
        else
          let* tile = int_range 2 (min d 4) in
          let* stride = int_range 1 tile in
          return (Layout.unfold l ~dim ~tile ~stride)

let gen_chain ?basic_only () =
  let open QCheck2.Gen in
  let* shape = gen_shape in
  let* depth = int_range 0 8 in
  let rec go l n = if n = 0 then return l else bind (gen_step ?basic_only l) (fun l' -> go l' (n - 1)) in
  go (Layout.create shape) depth

let print_layout l = Fmt.str "%a" Layout.pp l

let src_of l =
  Array.init (Shape.num_elements (Layout.logical_shape l)) (fun i ->
      float_of_int (i + 1))

(* ------------------------------------------------------------------ *)
(* Round-trip laws                                                    *)
(* ------------------------------------------------------------------ *)

let prop_bwd_fwd_id =
  QCheck2.Test.make ~count:counts ~name:"backward o forward = id (domain)"
    ~print:print_layout (gen_chain ()) (fun l ->
      let r = Layout.relation l in
      let dom = Relation.domain r in
      let bwd = Relation.compile_bwd r in
      let ok = ref true in
      for off = 0 to Shape.num_elements dom - 1 do
        let x = Shape.index_of_offset dom off in
        let images = Relation.fwd_points r x in
        (* stride <= tile in the generator: every element lives in >= 1 tile *)
        if images = [] then ok := false;
        List.iter (fun y -> if bwd y <> Some x then ok := false) images
      done;
      !ok)

let prop_fwd_bwd_id =
  QCheck2.Test.make ~count:counts ~name:"forward o backward = id (range)"
    ~print:print_layout (gen_chain ()) (fun l ->
      let r = Layout.relation l in
      let rng = Relation.range r in
      let bwd = Relation.compile_bwd r in
      let packed = Layout.pack l (src_of l) in
      let ok = ref true in
      for off = 0 to Shape.num_elements rng - 1 do
        let y = Shape.index_of_offset rng off in
        match bwd y with
        | Some x ->
            (* the unique source must map forward onto this very point *)
            if not (List.exists (fun y' -> y' = y) (Relation.fwd_points r x))
            then ok := false
        | None ->
            (* a hole: pack must have zero-filled it (source is all > 0) *)
            if packed.(off) <> 0.0 then ok := false
      done;
      !ok)

let prop_compose_sequential =
  QCheck2.Test.make ~count:counts ~name:"compose = sequential application"
    ~print:(fun (l, k) -> Fmt.str "%s @ %d" (print_layout l) k)
    QCheck2.Gen.(
      bind (gen_chain ()) (fun l ->
          map (fun k -> (l, k)) (int_range 0 (List.length (Layout.prims l)))))
    (fun (l, k) ->
      let ps = Layout.prims l in
      let take n xs = List.filteri (fun i _ -> i < n) xs in
      let drop n xs = List.filteri (fun i _ -> i >= n) xs in
      let l1 = Layout.of_prims (Layout.logical_shape l) (take k ps) in
      let l2 = Layout.of_prims (Layout.physical_shape l1) (drop k ps) in
      let r = Layout.relation l
      and r12 = Relation.compose (Layout.relation l1) (Layout.relation l2) in
      if not (Shape.equal (Relation.domain r) (Relation.domain r12)) then false
      else if not (Shape.equal (Relation.range r) (Relation.range r12)) then
        false
      else begin
        let rng = Relation.range r in
        let bwd = Relation.compile_bwd r
        and bwd12 = Relation.compile_bwd r12 in
        let ok = ref true in
        for off = 0 to Shape.num_elements rng - 1 do
          let y = Shape.index_of_offset rng off in
          if bwd y <> bwd12 y then ok := false
        done;
        !ok
      end)

let prop_canonicalize_idempotent =
  QCheck2.Test.make ~count:counts ~name:"canonicalization idempotent"
    ~print:print_layout (gen_chain ()) (fun l ->
      let r = Layout.relation l in
      let c = Relation.canonicalize r in
      Relation.equal r c && Relation.equal c (Relation.canonicalize c))

let prop_inverse_roundtrip =
  QCheck2.Test.make ~count:counts ~name:"inverse o forward = id (bijective)"
    ~print:print_layout
    (gen_chain ~basic_only:true ())
    (fun l ->
      let r = Layout.relation l in
      if not (Relation.bijective r) then false
      else begin
        let inv = Relation.inverse r in
        let fwd = Relation.compile_fwd r
        and back = Relation.compile_fwd inv in
        let dom = Relation.domain r in
        let ok = ref true in
        if not (Shape.equal (Relation.domain inv) (Relation.range r)) then
          ok := false;
        if not (Shape.equal (Relation.range inv) dom) then ok := false;
        for off = 0 to Shape.num_elements dom - 1 do
          let x = Shape.index_of_offset dom off in
          if back (fwd x) <> x then ok := false
        done;
        !ok
      end)

(* The symbolic pair lowering uses: [forward_exprs] then [inverse_exprs]
   over fresh logical variables (with their ranges as simplifier bounds,
   as in lowering) must evaluate back to every logical point. *)
let prop_symbolic_inverse_roundtrip =
  QCheck2.Test.make ~count:counts
    ~name:"inverse_exprs o forward_exprs = id (symbolic)" ~print:print_layout
    (gen_chain ~basic_only:true ())
    (fun l ->
      let dom = Layout.logical_shape l in
      let vars = Array.mapi (fun i _ -> Var.fresh (Fmt.str "l%d" i)) dom in
      let bounds w =
        let r = ref None in
        Array.iteri
          (fun i x -> if Var.equal x w then r := Some (0, dom.(i) - 1))
          vars;
        !r
      in
      let fwd = Layout.forward_exprs ~bounds l (Array.map Ixexpr.var vars) in
      let back = Layout.inverse_exprs ~bounds l fwd in
      let ok = ref true in
      for off = 0 to Shape.num_elements dom - 1 do
        let x = Shape.index_of_offset dom off in
        let env w =
          let r = ref 0 in
          Array.iteri (fun i v -> if Var.equal v w then r := x.(i)) vars;
          !r
        in
        if Array.map (Ixexpr.eval env) back <> x then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Differential oracle: relation path = seed path, byte-identical     *)
(* ------------------------------------------------------------------ *)

let prop_pack_differential =
  QCheck2.Test.make ~count:counts
    ~name:"pack/unpack/physical_shape = Reference (byte-identical)"
    ~print:print_layout (gen_chain ()) (fun l ->
      let src = src_of l in
      let packed = Layout.pack l src and packed_ref = Layout.Reference.pack l src in
      packed = packed_ref
      && Layout.unpack l packed = Layout.Reference.unpack l packed_ref
      && Layout.physical_shape l = Layout.Reference.physical_shape l)

let prop_phys_index_differential =
  QCheck2.Test.make ~count:counts
    ~name:"phys_index/eval_fwd = Reference (byte-identical)"
    ~print:print_layout
    (* unfold is one-to-many: eval_fwd/phys_index reject it, so the
       oracle runs on pad/split/reorder/fuse chains (pad included via a
       post-hoc filter on unfold only) *)
    (QCheck2.Gen.map
       (fun l ->
         if
           List.exists
             (function Layout.Unfold _ -> true | _ -> false)
             (Layout.prims l)
         then Layout.create (Layout.logical_shape l)
         else l)
       (gen_chain ()))
    (fun l ->
      let fwd = Layout.eval_fwd l and fwd_ref = Layout.Reference.eval_fwd l in
      let pix = Layout.phys_index l and pix_ref = Layout.Reference.phys_index l in
      let dom = Layout.logical_shape l in
      let ok = ref true in
      for off = 0 to Shape.num_elements dom - 1 do
        let x = Shape.index_of_offset dom off in
        if fwd x <> fwd_ref x then ok := false;
        if pix x <> pix_ref x then ok := false
      done;
      !ok)

let prop_strides_and_cost =
  QCheck2.Test.make ~count:counts ~name:"strides/extents/cost from relation"
    ~print:print_layout (gen_chain ()) (fun l ->
      let r = Layout.relation l in
      let phys = Layout.Reference.physical_shape l in
      Layout.phys_strides l = Shape.strides phys
      && Relation.range_strides r = Shape.strides phys
      && Relation.num_range_elements r = Shape.num_elements phys
      && Relation.expansion r >= 1.0
      && Relation.conversion_cost r
         = Shape.num_elements (Layout.logical_shape l) + Shape.num_elements phys
      && Layout.conversion_cost l = Relation.conversion_cost r)

(* ------------------------------------------------------------------ *)
(* Pinned canonicalization / guard regressions                        *)
(* ------------------------------------------------------------------ *)

let steps_str r = Fmt.str "%a" Fmt.(list ~sep:(any ";") Relation.pp_step) (Relation.steps r)

let test_canon_permute_fusion () =
  let s = [| 2; 3; 4 |] in
  let r1 = Relation.permute s [| 1; 2; 0 |] in
  let r2 = Relation.permute (Relation.range r1) [| 2; 0; 1 |] in
  (* fusing the two rotations yields the identity: empty canonical chain *)
  let r = Relation.compose r1 r2 in
  check_int "identity chain" 0 (List.length (Relation.steps r));
  (* a non-identity fusion stays a single permute *)
  let r3 = Relation.permute (Relation.range r1) [| 1; 0; 2 |] in
  let r' = Relation.compose r1 r3 in
  Alcotest.(check string) "fused" "permute([2,1,0])" (steps_str r')

let test_canon_decode_encode_cancel () =
  let s = [| 12 |] in
  let d = Relation.decode s ~dim:0 ~radices:[| 3; 4 |] in
  let e = Relation.encode (Relation.range d) ~dim:0 ~radices:[| 3; 4 |] in
  check_int "decode;encode cancels" 0
    (List.length (Relation.steps (Relation.compose d e)));
  let e' = Relation.encode [| 3; 4 |] ~dim:0 ~radices:[| 3; 4 |] in
  let d' = Relation.decode [| 12 |] ~dim:0 ~radices:[| 3; 4 |] in
  check_int "encode;decode cancels" 0
    (List.length (Relation.steps (Relation.compose e' d')))

let test_canon_shift_merge () =
  let s = [| 4 |] in
  let a = Relation.shift s ~dim:0 ~lo:1 ~hi:0 in
  let b = Relation.shift (Relation.range a) ~dim:0 ~lo:0 ~hi:2 in
  Alcotest.(check string) "merged" "shift(dim=0, lo=1, hi=2)"
    (steps_str (Relation.compose a b))

let test_canon_nested_decode () =
  let s = [| 8 |] in
  let a = Relation.decode s ~dim:0 ~radices:[| 2; 4 |] in
  let b = Relation.decode (Relation.range a) ~dim:1 ~radices:[| 2; 2 |] in
  Alcotest.(check string) "flattened" "decode(dim=0, [2,2,2])"
    (steps_str (Relation.compose a b))

let test_canon_preserves_semantics_pinned () =
  (* the nested-decode rewrite above must not change the point map *)
  let s = [| 8 |] in
  let a = Relation.decode s ~dim:0 ~radices:[| 2; 4 |] in
  let b = Relation.decode (Relation.range a) ~dim:1 ~radices:[| 2; 2 |] in
  let r = Relation.compose a b in
  let fwd = Relation.compile_fwd r in
  for x = 0 to 7 do
    (* digits of x in radix 2,2,2, most significant first *)
    check_ints
      (Fmt.str "decode %d" x)
      [ x / 4; x / 2 mod 2; x mod 2 ]
      (Array.to_list (fwd [| x |]))
  done

let test_window_guards () =
  (* extent 6, tile 3, stride 2: last tile overhangs by one *)
  let r = Relation.window [| 6 |] ~dim:0 ~tile:3 ~stride:2 in
  let bwd = Relation.compile_bwd r in
  Alcotest.(check (option (list int)))
    "in range" (Some [ 5 ])
    (Option.map Array.to_list (bwd [| 2; 1 |]));
  Alcotest.(check (option (list int)))
    "overhang hole" None
    (Option.map Array.to_list (bwd [| 2; 2 |]));
  (* forward images of x=2 with extent 5: tiles 0 (offset 2) and 1 (offset 0) *)
  let r5 = Relation.window [| 5 |] ~dim:0 ~tile:3 ~stride:2 in
  Alcotest.(check (list (list int)))
    "fwd points"
    [ [ 0; 2 ]; [ 1; 0 ] ]
    (List.map Array.to_list (Relation.fwd_points r5 [| 2 |]))

let test_shift_guards () =
  let r = Relation.shift [| 3 |] ~dim:0 ~lo:2 ~hi:1 in
  let bwd = Relation.compile_bwd r in
  Alcotest.(check (option (list int)))
    "lo margin" None
    (Option.map Array.to_list (bwd [| 1 |]));
  Alcotest.(check (option (list int)))
    "body" (Some [ 0 ])
    (Option.map Array.to_list (bwd [| 2 |]));
  Alcotest.(check (option (list int)))
    "hi margin" None
    (Option.map Array.to_list (bwd [| 5 |]))

let test_inverse_pinned () =
  let s = [| 4; 6 |] in
  let l = Layout.create s in
  let l = Layout.split l ~dim:1 ~factors:[ 2; 3 ] in
  let l = Layout.reorder l [| 2; 0; 1 |] in
  let r = Layout.relation l in
  let inv = Relation.inverse r in
  Alcotest.(check bool) "bijective" true (Relation.bijective r);
  Alcotest.(check bool)
    "domains swap" true
    (Shape.equal (Relation.domain inv) (Relation.range r)
    && Shape.equal (Relation.range inv) (Relation.domain r));
  let fwd = Relation.compile_fwd r and back = Relation.compile_fwd inv in
  for off = 0 to 23 do
    let x = Shape.index_of_offset s off in
    check_ints "roundtrip" (Array.to_list x) (Array.to_list (back (fwd x)))
  done

let test_relation_errors () =
  let raises f =
    Alcotest.(check bool) "raises" true
      (try
         ignore (f ());
         false
       with Relation.Relation_error _ -> true)
  in
  raises (fun () -> Relation.decode [| 6 |] ~dim:0 ~radices:[| 2; 2 |]);
  raises (fun () -> Relation.permute [| 2; 3 |] [| 0; 0 |]);
  raises (fun () -> Relation.shift [| 4 |] ~dim:0 ~lo:(-1) ~hi:0);
  raises (fun () -> Relation.window [| 4 |] ~dim:0 ~tile:5 ~stride:1);
  raises (fun () ->
      Relation.compose (Relation.id [| 2 |]) (Relation.id [| 3 |]));
  raises (fun () -> Relation.inverse (Relation.shift [| 4 |] ~dim:0 ~lo:1 ~hi:0));
  raises (fun () ->
      Relation.compile_fwd (Relation.window [| 4 |] ~dim:0 ~tile:2 ~stride:2))

(* ------------------------------------------------------------------ *)
(* Incremental validation (obs-counter regression)                    *)
(* ------------------------------------------------------------------ *)

let validate_count () =
  match Alt_obs.Metrics.find "layout.relation.validate" with
  | Some { value = Alt_obs.Metrics.Counter n; _ } -> n
  | _ -> 0

let test_incremental_validation_count () =
  Alt_obs.Metrics.enable ();
  Alt_obs.Metrics.reset ();
  let prims =
    [
      Layout.Split { dim = 0; factors = [ 2; 2 ] };
      Layout.Reorder [| 1; 0; 2 |];
      Layout.Fuse { dim = 1; count = 2 };
      Layout.Pad { dim = 0; lo = 1; hi = 1 };
      Layout.Unfold { dim = 1; tile = 3; stride = 2 };
    ]
  in
  let n = List.length prims in
  let l = Layout.of_prims [| 4; 6 |] prims in
  (* incremental apply: one validation per primitive, not n(n+1)/2 *)
  check_int "linear validation count" n (validate_count ());
  (* same-shape replay shares the proven relation: zero re-validation *)
  Alt_obs.Metrics.reset ();
  let l' = Layout.replay [| 4; 6 |] l in
  check_int "replay shares, no revalidation" 0 (validate_count ());
  Alcotest.(check bool) "replay equal" true (Layout.equal l l');
  (* replay onto a different shape must still validate the whole chain *)
  Alt_obs.Metrics.reset ();
  let basic = Layout.of_prims [| 4; 6 |] [ Layout.Reorder [| 1; 0 |] ] in
  Alt_obs.Metrics.reset ();
  let (_ : Layout.t) = Layout.replay [| 6; 4 |] basic in
  Alcotest.(check bool) "cross-shape replay validates" true
    (validate_count () >= 1);
  Alt_obs.Metrics.disable ()

let test_compose_metrics () =
  Alt_obs.Metrics.enable ();
  Alt_obs.Metrics.reset ();
  let a = Relation.permute [| 2; 3 |] [| 1; 0 |] in
  let b = Relation.permute [| 3; 2 |] [| 1; 0 |] in
  let (_ : Relation.t) = Relation.compose a b in
  let count name =
    match Alt_obs.Metrics.find name with
    | Some { value = Alt_obs.Metrics.Counter n; _ } -> n
    | _ -> 0
  in
  check_int "compose ticked" 1 (count "layout.relation.compose");
  Alcotest.(check bool) "simplify ticked" true
    (count "layout.relation.simplify" >= 1);
  Alt_obs.Metrics.disable ()

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "alt_relation"
    [
      ( "canonicalization",
        [
          Alcotest.test_case "permute fusion" `Quick test_canon_permute_fusion;
          Alcotest.test_case "decode/encode cancel" `Quick
            test_canon_decode_encode_cancel;
          Alcotest.test_case "shift merge" `Quick test_canon_shift_merge;
          Alcotest.test_case "nested decode flatten" `Quick
            test_canon_nested_decode;
          Alcotest.test_case "rewrites preserve semantics" `Quick
            test_canon_preserves_semantics_pinned;
        ] );
      ( "guards",
        [
          Alcotest.test_case "window guards + fwd points" `Quick
            test_window_guards;
          Alcotest.test_case "shift guards" `Quick test_shift_guards;
          Alcotest.test_case "inverse pinned" `Quick test_inverse_pinned;
          Alcotest.test_case "constructor validation" `Quick
            test_relation_errors;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "validation count linear" `Quick
            test_incremental_validation_count;
          Alcotest.test_case "compose/simplify metrics" `Quick
            test_compose_metrics;
        ] );
      qsuite "roundtrip-props"
        [
          prop_bwd_fwd_id;
          prop_fwd_bwd_id;
          prop_compose_sequential;
          prop_canonicalize_idempotent;
          prop_inverse_roundtrip;
          prop_symbolic_inverse_roundtrip;
        ];
      qsuite "differential-props"
        [
          prop_pack_differential;
          prop_phys_index_differential;
          prop_strides_and_cost;
        ];
    ]
