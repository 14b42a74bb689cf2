(* Data layout state and layout primitives (paper Section 4.1).

   A layout is the original (logical) shape of a tensor plus an ordered
   sequence of primitives.  Primitives are cached, exactly as in the paper;
   the actual transformation happens when
   - deducing the physical shape ([physical_shape]),
   - rewriting access expressions during lowering ([forward_exprs],
     implementing Table 1 and the unfold rule Eq. (1)),
   - reconstructing the loop nest of a producer ([inverse_exprs], the
     S_Y^{-1} of Section 6), and
   - moving concrete data ([pack] / [unpack], used by conversion operators,
     offline weight packing and test oracles).

   Concrete index semantics (shape deduction, pack/unpack, forward/backward
   point maps, strides, conversion cost) are expressed through the
   {!Relation} algebra (DESIGN.md §16): every layout owns a canonical
   index relation, derived incrementally as primitives are applied and
   memoized per domain.  The record itself stays the seed
   [{ logical; prims }] pair — candidate digests, fault-injection keys and
   checkpoints all [Marshal] values containing layouts, so the wire shape
   must not change.  The symbolic rewrites ([forward_exprs],
   [inverse_exprs], [logical_of_physical]) intentionally keep walking the
   primitive list verbatim: canonicalized relations could emit different
   (equivalent) index expressions and perturb tuning trajectories.

   The seed implementations of the concrete maps are kept verbatim in
   {!Reference} as the differential oracle (test/test_relation.ml proves
   byte-identity); production entry points never route through them.

   Physical buffers are always row-major over the physical shape.

   [store_at] couples two tensors and is therefore represented at the graph
   level (see [Alt_graph.Placement]); this module handles single-tensor
   primitives. *)

exception Layout_error of string

let err fmt = Fmt.kstr (fun s -> raise (Layout_error s)) fmt

type prim =
  | Split of { dim : int; factors : int list }
  | Reorder of int array
  | Fuse of { dim : int; count : int }
  | Unfold of { dim : int; tile : int; stride : int }
  | Pad of { dim : int; lo : int; hi : int }

type t = { logical : Shape.t; prims : prim list (* in application order *) }

let create logical =
  Shape.validate logical;
  { logical; prims = [] }

let logical_shape t = t.logical
let prims t = t.prims
let is_trivial t = t.prims = []

let has_advanced t =
  List.exists
    (function Unfold _ | Pad _ -> true | Split _ | Reorder _ | Fuse _ -> false)
    t.prims

let invertible t =
  List.for_all
    (function Split _ | Reorder _ | Fuse _ -> true | Unfold _ | Pad _ -> false)
    t.prims

let pp_prim ppf = function
  | Split { dim; factors } ->
      Fmt.pf ppf "split(dim=%d, factors=[%a])" dim
        Fmt.(list ~sep:comma int)
        factors
  | Reorder perm -> Fmt.pf ppf "reorder([%a])" Fmt.(array ~sep:comma int) perm
  | Fuse { dim; count } -> Fmt.pf ppf "fuse(dim=%d, count=%d)" dim count
  | Unfold { dim; tile; stride } ->
      Fmt.pf ppf "unfold(dim=%d, tile=%d, stride=%d)" dim tile stride
  | Pad { dim; lo; hi } -> Fmt.pf ppf "pad(dim=%d, lo=%d, hi=%d)" dim lo hi

let pp ppf t =
  Fmt.pf ppf "@[<h>%a :: %a@]" Shape.pp t.logical
    Fmt.(list ~sep:(any " ; ") pp_prim)
    t.prims

let equal a b = Shape.equal a.logical b.logical && a.prims = b.prims

(* Number of tiles in an unfolded dimension of extent [d]: ceil((d-B)/S)+1.
   The last tile may overhang the tensor; overhanging positions zero-fill
   on [pack] and are guarded on conversion, matching Section 4.1.2. *)
let unfold_tiles ~d ~tile ~stride =
  if tile > d then err "unfold: tile %d larger than extent %d" tile d;
  Shape.cdiv (d - tile) stride + 1

(* ------------------------------------------------------------------ *)
(* Shape deduction.                                                   *)
(* ------------------------------------------------------------------ *)

(* Ticks once per primitive validated: the regression test for the
   incremental [apply]/[of_prims]/[replay] path asserts an n-primitive
   chain costs exactly n validations, not the seed's n(n+1)/2. *)
let m_validate = Alt_obs.Metrics.counter "layout.relation.validate"

let shape_step (s : Shape.t) p =
  Alt_obs.Metrics.incr m_validate;
  match p with
  | Split { dim; factors } ->
      if dim < 0 || dim >= Shape.rank s then err "split: dim %d out of range" dim;
      let p = List.fold_left ( * ) 1 factors in
      if p <> s.(dim) then
        err "split: factors product %d <> extent %d (dim %d)" p s.(dim) dim;
      if List.exists (fun f -> f <= 0) factors then err "split: factor <= 0";
      Array.concat
        [
          Array.sub s 0 dim;
          Array.of_list factors;
          Array.sub s (dim + 1) (Shape.rank s - dim - 1);
        ]
  | Reorder perm ->
      let n = Shape.rank s in
      if Array.length perm <> n then err "reorder: permutation rank mismatch";
      let seen = Array.make n false in
      Array.iter
        (fun p ->
          if p < 0 || p >= n || seen.(p) then err "reorder: invalid permutation";
          seen.(p) <- true)
        perm;
      Array.map (fun p -> s.(p)) perm
  | Fuse { dim; count } ->
      if count < 2 then err "fuse: count must be >= 2";
      if dim < 0 || dim + count > Shape.rank s then err "fuse: range out of bounds";
      Array.concat
        [
          Array.sub s 0 dim;
          [| Shape.prod_range s dim (dim + count - 1) |];
          Array.sub s (dim + count) (Shape.rank s - dim - count);
        ]
  | Unfold { dim; tile; stride } ->
      if dim < 0 || dim >= Shape.rank s then err "unfold: dim out of range";
      let tiles = unfold_tiles ~d:s.(dim) ~tile ~stride in
      Array.concat
        [
          Array.sub s 0 dim;
          [| tiles; tile |];
          Array.sub s (dim + 1) (Shape.rank s - dim - 1);
        ]
  | Pad { dim; lo; hi } ->
      if dim < 0 || dim >= Shape.rank s then err "pad: dim out of range";
      if lo < 0 || hi < 0 then err "pad: negative padding";
      let s' = Array.copy s in
      s'.(dim) <- s.(dim) + lo + hi;
      s'

(* Shapes before each primitive, plus the final shape (length = #prims+1). *)
let shape_trace t : Shape.t list =
  let rec go s = function
    | [] -> [ s ]
    | p :: tl -> s :: go (shape_step s p) tl
  in
  go t.logical t.prims

(* ------------------------------------------------------------------ *)
(* Derived relation (memoized).                                       *)
(* ------------------------------------------------------------------ *)

(* The relation step of one primitive, given the shape it applies to
   ([fuse] needs the extents it collapses). *)
let prim_relation (s : Shape.t) = function
  | Split { dim; factors } ->
      Relation.decode s ~dim ~radices:(Array.of_list factors)
  | Reorder perm -> Relation.permute s perm
  | Fuse { dim; count } -> Relation.encode s ~dim ~radices:(Array.sub s dim count)
  | Unfold { dim; tile; stride } -> Relation.window s ~dim ~tile ~stride
  | Pad { dim; lo; hi } -> Relation.shift s ~dim ~lo ~hi

type derived = { phys : Shape.t; rel : Relation.t }

(* Per-domain memo of derived state, keyed structurally by the layout
   itself.  [apply] extends the parent's entry, so growing a chain
   validates each new primitive exactly once; worker domains re-derive
   lazily on first use (the table is domain-local — no locking). *)
let memo_key : (t, derived) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let memo_cap = 65536

let memo_put t d =
  let tbl = Domain.DLS.get memo_key in
  if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
  Hashtbl.replace tbl t d

let extend_derived d p =
  (* validate against the cached physical shape — one [shape_step] — and
     push the primitive's relation onto the canonical chain *)
  let phys = shape_step d.phys p in
  { phys; rel = Relation.compose d.rel (prim_relation d.phys p) }

let derived t =
  let tbl = Domain.DLS.get memo_key in
  match Hashtbl.find_opt tbl t with
  | Some d -> d
  | None ->
      let d0 = { phys = t.logical; rel = Relation.id t.logical } in
      let d = List.fold_left extend_derived d0 t.prims in
      memo_put t d;
      d

let physical_shape t = (derived t).phys
let relation t = (derived t).rel
let phys_strides t = Relation.range_strides (derived t).rel
let conversion_cost t = Relation.conversion_cost (derived t).rel

(* ------------------------------------------------------------------ *)
(* Primitive constructors (validated against the current shape).       *)
(* ------------------------------------------------------------------ *)

let apply t p =
  (* Validation happens eagerly so misuse fails at schedule-construction
     time, not deep inside lowering; only the new primitive is checked —
     the memoized parent relation already proves the prefix. *)
  let d = extend_derived (derived t) p in
  let t' = { t with prims = t.prims @ [ p ] } in
  memo_put t' d;
  t'

let split t ~dim ~factors = apply t (Split { dim; factors })
let reorder t perm = apply t (Reorder (Array.copy perm))
let fuse t ~dim ~count = apply t (Fuse { dim; count })
let unfold t ~dim ~tile ~stride = apply t (Unfold { dim; tile; stride })
let pad t ~dim ~lo ~hi = apply t (Pad { dim; lo; hi })

(* ------------------------------------------------------------------ *)
(* Symbolic forward rewriting (Table 1 and Eq. (1)).                   *)
(* ------------------------------------------------------------------ *)

type window = Var.t -> int option
(* For sliding-window accesses: maps a window variable (e.g. the output
   height iterator of a convolution) to the constant convolution stride V. *)

let no_window : window = fun _ -> None

let split_exprs e factors =
  (* e over extent (prod factors) -> one expression per factor, row-major. *)
  let fs = Array.of_list factors in
  let m = Array.length fs in
  let tail_prod j = Shape.prod_range fs (j + 1) (m - 1) in
  Array.to_list
    (Array.init m (fun j ->
         let q = Ixexpr.div e (Ixexpr.const (tail_prod j)) in
         if j = 0 then q else Ixexpr.mod_ q (Ixexpr.const fs.(j))))

let fuse_expr es sizes =
  (* indices es with extents sizes -> single row-major expression *)
  let n = Array.length sizes in
  let acc = ref Ixexpr.zero in
  for j = 0 to n - 1 do
    let tail = Shape.prod_range sizes (j + 1) (n - 1) in
    acc := Ixexpr.add !acc (Ixexpr.mul es.(j) (Ixexpr.const tail))
  done;
  !acc

let forward_exprs ?(bounds = Ixexpr.no_bounds) ?(window = no_window) t
    (idx : Ixexpr.t array) : Ixexpr.t array =
  if Array.length idx <> Shape.rank t.logical then
    err "forward_exprs: index rank %d <> logical rank %d" (Array.length idx)
      (Shape.rank t.logical);
  let step (shape, idx) p =
    let shape' = shape_step shape p in
    let idx' =
      match p with
      | Split { dim; factors } ->
          Array.concat
            [
              Array.sub idx 0 dim;
              Array.of_list (split_exprs idx.(dim) factors);
              Array.sub idx (dim + 1) (Array.length idx - dim - 1);
            ]
      | Reorder perm -> Array.map (fun pdim -> idx.(pdim)) perm
      | Fuse { dim; count } ->
          let sizes = Array.sub shape dim count in
          let es = Array.sub idx dim count in
          Array.concat
            [
              Array.sub idx 0 dim;
              [| fuse_expr es sizes |];
              Array.sub idx (dim + count) (Array.length idx - dim - count);
            ]
      | Pad { dim; lo; hi = _ } ->
          let idx' = Array.copy idx in
          idx'.(dim) <- Ixexpr.add idx.(dim) (Ixexpr.const lo);
          idx'
      | Unfold { dim; tile; stride } ->
          (* Eq. (1): access V*i + r with window var i of stride V becomes
             [ i / wpt ; V*i + r - stride * (i / wpt) ]
             where wpt = floor((tile - M) / V) + 1 and M is the window
             extent (max value of r, plus one). *)
          let e = idx.(dim) in
          let wvars =
            Var.Set.filter (fun v -> window v <> None) (Ixexpr.vars e)
          in
          let wv =
            match Var.Set.elements wvars with
            | [ v ] -> v
            | [] ->
                err "unfold: access %a has no window variable (dim %d)"
                  Ixexpr.pp e dim
            | _ -> err "unfold: access %a has several window variables" Ixexpr.pp e
          in
          let v_stride = Option.get (window wv) in
          (match Ixexpr.coeff_of ~bounds e wv with
          | Some c when c = v_stride -> ()
          | Some c ->
              err "unfold: window var %a has coefficient %d, stride is %d"
                Var.pp wv c v_stride
          | None -> err "unfold: access %a not affine in window var" Ixexpr.pp e);
          let r = Option.get (Ixexpr.drop_var ~bounds e wv) in
          let m =
            match Ixexpr.range ~bounds r with
            | Some (lo, hi) when lo >= 0 -> hi + 1
            | _ -> err "unfold: cannot bound window extent of %a" Ixexpr.pp r
          in
          if m > tile then
            err "unfold: window extent %d exceeds tile size %d" m tile;
          let wpt = ((tile - m) / v_stride) + 1 in
          let tile_ix =
            Ixexpr.simplify ~bounds
              (Ixexpr.div (Ixexpr.var wv) (Ixexpr.const wpt))
          in
          let off =
            Ixexpr.simplify ~bounds
              (Ixexpr.sub e (Ixexpr.mul (Ixexpr.const stride) tile_ix))
          in
          Array.concat
            [
              Array.sub idx 0 dim;
              [| tile_ix; off |];
              Array.sub idx (dim + 1) (Array.length idx - dim - 1);
            ]
    in
    (shape', idx')
  in
  let _, out = List.fold_left step (t.logical, idx) t.prims in
  Array.map (Ixexpr.simplify ~bounds) out

(* ------------------------------------------------------------------ *)
(* Symbolic inverse rewriting: physical indices -> logical indices.    *)
(* ------------------------------------------------------------------ *)

(* Physical index exprs -> logical index exprs, defined even for unfold
   (logical = tile*stride + offset) and pad (logical = i - lo, with an
   in-bounds condition).  Used to generate conversion-operator programs. *)
let logical_of_physical ?(bounds = Ixexpr.no_bounds) t (idx : Ixexpr.t array) :
    Ixexpr.t array * (Ixexpr.t * int) list =
  let trace = Array.of_list (shape_trace t) in
  let prims = Array.of_list t.prims in
  let n = Array.length prims in
  let cur = ref idx in
  let conds = ref [] in
  for i = n - 1 downto 0 do
    let shape_before = trace.(i) in
    let idx = !cur in
    (cur :=
       match prims.(i) with
       | Split { dim; factors } ->
           let sizes = Array.of_list factors in
           let es = Array.sub idx dim (Array.length sizes) in
           Array.concat
             [
               Array.sub idx 0 dim;
               [| fuse_expr es sizes |];
               Array.sub idx
                 (dim + Array.length sizes)
                 (Array.length idx - dim - Array.length sizes);
             ]
       | Reorder perm ->
           let out = Array.make (Array.length idx) Ixexpr.zero in
           Array.iteri (fun i pdim -> out.(pdim) <- idx.(i)) perm;
           out
       | Fuse { dim; count } ->
           let sizes = Array.to_list (Array.sub shape_before dim count) in
           Array.concat
             [
               Array.sub idx 0 dim;
               Array.of_list (split_exprs idx.(dim) sizes);
               Array.sub idx (dim + 1) (Array.length idx - dim - 1);
             ]
       | Unfold { dim; tile = _; stride } ->
           let t_ix = idx.(dim) and off = idx.(dim + 1) in
           let logical =
             Ixexpr.add (Ixexpr.mul t_ix (Ixexpr.const stride)) off
           in
           conds := (logical, shape_before.(dim)) :: !conds;
           Array.concat
             [
               Array.sub idx 0 dim;
               [| logical |];
               Array.sub idx (dim + 2) (Array.length idx - dim - 2);
             ]
       | Pad { dim; lo; hi = _ } ->
           let logical = Ixexpr.sub idx.(dim) (Ixexpr.const lo) in
           conds := (logical, shape_before.(dim)) :: !conds;
           let idx' = Array.copy idx in
           idx'.(dim) <- logical;
           idx')
  done;
  ( Array.map (Ixexpr.simplify ~bounds) !cur,
    List.map (fun (e, d) -> (Ixexpr.simplify ~bounds e, d)) !conds )

(* The S_Y^{-1} of Section 6: on an invertible chain (split, reorder and
   fuse only) the inverse walk raises no conditions. *)
let inverse_exprs ?bounds t (idx : Ixexpr.t array) : Ixexpr.t array =
  if not (invertible t) then
    err "inverse_exprs: layout %a contains advanced primitives" pp t;
  fst (logical_of_physical ?bounds t idx)

(* ------------------------------------------------------------------ *)
(* Concrete data movement (relation-backed, seed kept as oracle).      *)
(* ------------------------------------------------------------------ *)

(* The seed implementations, verbatim: per-primitive backward/forward
   walks over the primitive list.  They are the differential oracle the
   QCheck2 suite pins the relation path against. *)
module Reference = struct
  let physical_shape t = List.fold_left shape_step t.logical t.prims

  (* Map a physical multi-index to its logical source (total even for unfold
     and pad; pad out-of-range positions return None => zero fill). *)
  let concrete_logical_of_physical t : int array -> int array option =
    let trace = Array.of_list (shape_trace t) in
    let prims = Array.of_list t.prims in
    let n = Array.length prims in
    fun phys ->
      let cur = ref (Array.copy phys) in
      let ok = ref true in
      (try
         for i = n - 1 downto 0 do
           let shape_before = trace.(i) in
           let idx = !cur in
           (cur :=
              match prims.(i) with
              | Split { dim; factors } ->
                  let sizes = Array.of_list factors in
                  let m = Array.length sizes in
                  let v = ref 0 in
                  for j = 0 to m - 1 do
                    v := (!v * sizes.(j)) + idx.(dim + j)
                  done;
                  Array.concat
                    [
                      Array.sub idx 0 dim;
                      [| !v |];
                      Array.sub idx (dim + m) (Array.length idx - dim - m);
                    ]
              | Reorder perm ->
                  let out = Array.make (Array.length idx) 0 in
                  Array.iteri (fun i pdim -> out.(pdim) <- idx.(i)) perm;
                  out
              | Fuse { dim; count } ->
                  let sizes = Array.sub shape_before dim count in
                  let out = Array.make count 0 in
                  let v = ref idx.(dim) in
                  for j = count - 1 downto 0 do
                    out.(j) <- !v mod sizes.(j);
                    v := !v / sizes.(j)
                  done;
                  Array.concat
                    [
                      Array.sub idx 0 dim;
                      out;
                      Array.sub idx (dim + 1) (Array.length idx - dim - 1);
                    ]
              | Unfold { dim; tile = _; stride } ->
                  let v = (idx.(dim) * stride) + idx.(dim + 1) in
                  if v >= shape_before.(dim) then raise Exit;
                  Array.concat
                    [
                      Array.sub idx 0 dim;
                      [| v |];
                      Array.sub idx (dim + 2) (Array.length idx - dim - 2);
                    ]
              | Pad { dim; lo; hi = _ } ->
                  let v = idx.(dim) - lo in
                  if v < 0 || v >= shape_before.(dim) then raise Exit;
                  let idx' = Array.copy idx in
                  idx'.(dim) <- v;
                  idx')
         done
       with Exit -> ok := false);
      if !ok then Some !cur else None

  let pack t (src : float array) : float array =
    if Array.length src <> Shape.num_elements t.logical then
      err "pack: source size %d <> logical elements %d" (Array.length src)
        (Shape.num_elements t.logical);
    let phys = physical_shape t in
    let dst = Array.make (Shape.num_elements phys) 0.0 in
    let back = concrete_logical_of_physical t in
    let lstrides = Shape.strides t.logical in
    for off = 0 to Array.length dst - 1 do
      let pidx = Shape.index_of_offset phys off in
      match back pidx with
      | None -> () (* zero fill (padding / overrun) *)
      | Some lidx ->
          let loff = ref 0 in
          Array.iteri (fun i x -> loff := !loff + (x * lstrides.(i))) lidx;
          dst.(off) <- src.(!loff)
    done;
    dst

  let unpack t (src : float array) : float array =
    (* Defined for any layout: every physical element maps back to a logical
       position; duplicated (unfolded) elements agree by construction. *)
    let phys = physical_shape t in
    if Array.length src <> Shape.num_elements phys then
      err "unpack: source size %d <> physical elements %d" (Array.length src)
        (Shape.num_elements phys);
    let dst = Array.make (Shape.num_elements t.logical) 0.0 in
    let back = concrete_logical_of_physical t in
    let lstrides = Shape.strides t.logical in
    for off = 0 to Array.length src - 1 do
      let pidx = Shape.index_of_offset phys off in
      match back pidx with
      | None -> ()
      | Some lidx ->
          let loff = ref 0 in
          Array.iteri (fun i x -> loff := !loff + (x * lstrides.(i))) lidx;
          dst.(!loff) <- src.(off)
    done;
    dst

  (* Concrete logical index -> physical index; rejects unfold (one-to-many).
     Used by reference executors and [unpack] round-trip tests. *)
  let eval_fwd t : int array -> int array =
    if List.exists (function Unfold _ -> true | _ -> false) t.prims then
      err "eval_fwd: layout has unfold (one-to-many mapping)";
    let prims = t.prims in
    let trace = shape_trace t in
    fun lidx ->
      let rec go idx shapes prims =
        match (shapes, prims) with
        | _, [] -> idx
        | shape :: shapes', p :: prims' ->
            let idx' =
              match p with
              | Split { dim; factors } ->
                  let sizes = Array.of_list factors in
                  let m = Array.length sizes in
                  let out = Array.make m 0 in
                  let v = ref idx.(dim) in
                  for j = m - 1 downto 0 do
                    out.(j) <- !v mod sizes.(j);
                    v := !v / sizes.(j)
                  done;
                  Array.concat
                    [
                      Array.sub idx 0 dim;
                      out;
                      Array.sub idx (dim + 1) (Array.length idx - dim - 1);
                    ]
              | Reorder perm -> Array.map (fun pdim -> idx.(pdim)) perm
              | Fuse { dim; count } ->
                  let sizes = Array.sub shape dim count in
                  let v = ref 0 in
                  for j = 0 to count - 1 do
                    v := (!v * sizes.(j)) + idx.(dim + j)
                  done;
                  Array.concat
                    [
                      Array.sub idx 0 dim;
                      [| !v |];
                      Array.sub idx (dim + count) (Array.length idx - dim - count);
                    ]
              | Pad { dim; lo; hi = _ } ->
                  let idx' = Array.copy idx in
                  idx'.(dim) <- idx.(dim) + lo;
                  idx'
              | Unfold _ -> assert false
            in
            go idx' shapes' prims'
        | [], _ :: _ -> assert false
      in
      go (Array.copy lidx) trace prims

  let phys_index t =
    let fwd = eval_fwd t in
    let phys = physical_shape t in
    fun lidx -> Shape.offset_of_index phys (fwd lidx)
end

let pack t (src : float array) : float array =
  if Array.length src <> Shape.num_elements t.logical then
    err "pack: source size %d <> logical elements %d" (Array.length src)
      (Shape.num_elements t.logical);
  let d = derived t in
  let phys = d.phys in
  let dst = Array.make (Shape.num_elements phys) 0.0 in
  let back = Relation.compile_bwd d.rel in
  let lstrides = Shape.strides t.logical in
  for off = 0 to Array.length dst - 1 do
    let pidx = Shape.index_of_offset phys off in
    match back pidx with
    | None -> () (* zero fill (padding / overrun) *)
    | Some lidx ->
        let loff = ref 0 in
        Array.iteri (fun i x -> loff := !loff + (x * lstrides.(i))) lidx;
        dst.(off) <- src.(!loff)
  done;
  dst

let unpack t (src : float array) : float array =
  let d = derived t in
  let phys = d.phys in
  if Array.length src <> Shape.num_elements phys then
    err "unpack: source size %d <> physical elements %d" (Array.length src)
      (Shape.num_elements phys);
  let dst = Array.make (Shape.num_elements t.logical) 0.0 in
  let back = Relation.compile_bwd d.rel in
  let lstrides = Shape.strides t.logical in
  for off = 0 to Array.length src - 1 do
    let pidx = Shape.index_of_offset phys off in
    match back pidx with
    | None -> ()
    | Some lidx ->
        let loff = ref 0 in
        Array.iteri (fun i x -> loff := !loff + (x * lstrides.(i))) lidx;
        dst.(!loff) <- src.(off)
  done;
  dst

let eval_fwd t : int array -> int array =
  if List.exists (function Unfold _ -> true | _ -> false) t.prims then
    err "eval_fwd: layout has unfold (one-to-many mapping)";
  Relation.compile_fwd (relation t)

let phys_index t =
  let fwd = eval_fwd t in
  let phys = physical_shape t in
  fun lidx -> Shape.offset_of_index phys (fwd lidx)

let num_physical_elements t = Shape.num_elements (physical_shape t)

let expansion_ratio t =
  float_of_int (num_physical_elements t)
  /. float_of_int (Shape.num_elements t.logical)

(* Replay a primitive sequence onto a (same-shaped) tensor — how layout
   propagation duplicates a source tensor's primitives (Section 4.2). *)
let of_prims shape prims =
  List.fold_left apply (create shape) prims

let replay shape src =
  Shape.validate shape;
  if Shape.equal shape src.logical then
    (* Same logical shape: the source chain is already proven legal, and
       the copy is structurally equal to [src], so it shares the memoized
       relation — zero re-validation.  (This is what layout propagation
       does for every consumer of a chosen layout.) *)
    { logical = shape; prims = src.prims }
  else of_prims shape src.prims
