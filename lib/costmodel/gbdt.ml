(* Gradient-boosted regression trees — the XGBoost stand-in of the paper's
   cost model (Section 5.2.3).

   Squared-error boosting over depth-limited regression trees with
   shrinkage.  The tuner trains on (features, log-latency) pairs collected
   from simulator measurements and uses predictions to pick the top-k
   candidates to actually measure.

   Two fitters:

   - [fit] is the exact-greedy fitter (XGBoost's "exact" tree method):
     the features are transposed into columns and every column is
     argsorted {e once per fit}.  Each node owns a segment of every
     presorted column in one per-fit workspace and splits it by a stable
     in-place partition, so the columns stay sorted all the way down the
     tree and nothing below the root allocates.  Total sort cost is
     O(d n log n) per fit instead of O(trees x nodes x d x n log n).

   - [fit_reference] is the seed implementation (a fresh per-node
     per-feature [Array.sort]), kept verbatim as the differential oracle
     for tests and benchmarks.

   Both enumerate split candidates in the same order with the same
   floating-point expressions, so on tie-free feature columns the trees
   are bit-identical (the equivalence test draws continuous random data).
   When a feature column has {e tied} values inside a node, the reference
   fitter's unstable sort may permute the tied run differently than the
   stable partition; the split {e sets} still agree exactly (splits never
   separate tied values), and only the last-ulp rounding of the tied run's
   prefix sums could differ.  [fit] itself takes its tie order from the
   kept per-fit presort, so on tied data it reproduces the earlier
   presort-and-allocate fitter's trees exactly (pinned by goldens) — see
   DESIGN.md §10. *)

type tree =
  | Leaf of float
  | Node of { feat : int; thresh : float; left : tree; right : tree }

(* A tree flattened to arrays for allocation-free batched prediction:
   node [i] is a leaf iff [ffeat.(i) < 0], in which case [fthresh.(i)] is
   the leaf value; otherwise go to [fleft.(i)] / [fright.(i)]. *)
type flat = {
  ffeat : int array;
  fthresh : float array;
  fleft : int array;
  fright : int array;
}

type t = {
  base : float;
  trees : tree list;
  shrinkage : float;
  flats : flat array; (* trees, flattened, in boosting order *)
}

type params = {
  max_depth : int;
  min_samples : int;
  n_trees : int;
  learning_rate : float;
}

let default_params =
  { max_depth = 4; min_samples = 4; n_trees = 40; learning_rate = 0.3 }

let rec predict_tree tree (x : float array) =
  match tree with
  | Leaf v -> v
  | Node { feat; thresh; left; right } ->
      if x.(feat) <= thresh then predict_tree left x else predict_tree right x

let predict t x =
  List.fold_left
    (fun acc tree -> acc +. (t.shrinkage *. predict_tree tree x))
    t.base t.trees

(* ------------------------------------------------------------------ *)
(* Flattened trees and batched prediction                             *)
(* ------------------------------------------------------------------ *)

let rec tree_size = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> 1 + tree_size left + tree_size right

let flatten (tree : tree) : flat =
  let n = tree_size tree in
  let ffeat = Array.make n (-1) in
  let fthresh = Array.make n 0.0 in
  let fleft = Array.make n 0 in
  let fright = Array.make n 0 in
  let next = ref 0 in
  let rec go t =
    let i = !next in
    incr next;
    (match t with
    | Leaf v -> fthresh.(i) <- v
    | Node { feat; thresh; left; right } ->
        ffeat.(i) <- feat;
        fthresh.(i) <- thresh;
        fleft.(i) <- go left;
        fright.(i) <- go right);
    i
  in
  ignore (go tree : int);
  { ffeat; fthresh; fleft; fright }

(* Below this batch size the tree-major walk loses to plain per-sample
   prediction: its per-tree setup (loading the four flat arrays, restarting
   the candidate loop) is amortized over too few candidates, while the
   pointer-chasing recursive walk fits small batches entirely in L1 —
   BENCH_tuner.json's rank_speedup was 0.83 at 32 candidates before the
   cutoff.  48 is the measured crossover on the reference box; both paths
   are bit-equal, so the cutoff is a pure throughput knob. *)
let batch_cutoff = 48

(* Tree-major: each flat's arrays stay in cache across the whole batch.
   Per candidate the accumulation order and expressions mirror [predict]
   exactly (base, then [acc +. shrinkage *. tree] in boosting order), so
   the two are bit-equal on every input — the tuner's ranking pass may
   use either.  Batches under [batch_cutoff] take the per-sample path. *)
let predict_batch t (xs : float array array) : float array =
  let n = Array.length xs in
  if n < batch_cutoff then Array.map (predict t) xs
  else begin
  let out = Array.make n t.base in
  let shrinkage = t.shrinkage in
  Array.iter
    (fun f ->
      let ffeat = f.ffeat and fthresh = f.fthresh in
      let fleft = f.fleft and fright = f.fright in
      for c = 0 to n - 1 do
        let x = xs.(c) in
        let i = ref 0 in
        while ffeat.(!i) >= 0 do
          i := if x.(ffeat.(!i)) <= fthresh.(!i) then fleft.(!i) else fright.(!i)
        done;
        out.(c) <- out.(c) +. (shrinkage *. fthresh.(!i))
      done)
    t.flats;
  out
  end

(* Mean and SSE of [a] over segment [lo, hi) of [idx], summed in [idx]
   order (the order the reference fitter visits a node's samples). *)
let seg_mean a idx ~lo ~hi =
  if hi <= lo then 0.0
  else begin
    let s = ref 0.0 in
    for k = lo to hi - 1 do
      s := !s +. a.(idx.(k))
    done;
    !s /. float_of_int (hi - lo)
  end

let seg_sse a idx ~lo ~hi ~mean =
  let s = ref 0.0 in
  for k = lo to hi - 1 do
    s := !s +. ((a.(idx.(k)) -. mean) ** 2.0)
  done;
  !s

let mean a idx = seg_mean a idx ~lo:0 ~hi:(Array.length idx)

let sse a idx =
  seg_sse a idx ~lo:0 ~hi:(Array.length idx) ~mean:(mean a idx)

(* ------------------------------------------------------------------ *)
(* Exact-greedy fitter (presort once per fit, partition in place)     *)
(* ------------------------------------------------------------------ *)

(* Per-fit workspace.  A node owns segment [lo, hi) of every column of
   [cols]: column [f]'s segment is the node's samples sorted by feature
   [f].  A split stably partitions each segment in place (left members
   first), so the children own [lo, lo + at) and [lo + at, hi) and
   nothing below the root allocates. *)
type workspace = {
  vals : float array array; (* vals.(f).(s) = xs.(s).(f) *)
  sorted : int array array; (* per-fit argsort of every column of [vals] *)
  cols : int array array; (* per-tree working copy of [sorted] *)
  ident : int array; (* 0 .. n-1: the root's visitation order *)
  sq : float array; (* residual ** 2.0, per tree *)
  scratch : int array; (* right members during a partition *)
  mark : bool array; (* left membership during a partition *)
  mutable split_at : int; (* left-child size of the last [best_split] *)
}

(* Transpose the features and argsort every column once; shared by all
   trees of a fit (the sort key is x, which boosting never changes).  The
   comparator and the input permutation match the reference fitter's
   root-node sort, so the presorted columns are bit-compatible with it. *)
let workspace (xs : float array array) =
  let n = Array.length xs and nfeat = Array.length xs.(0) in
  let vals = Array.init nfeat (fun f -> Array.init n (fun s -> xs.(s).(f))) in
  let sorted =
    Array.map
      (fun v ->
        let a = Array.init n Fun.id in
        Array.sort (fun i j -> Float.compare v.(i) v.(j)) a;
        a)
      vals
  in
  {
    vals;
    sorted;
    cols = Array.map Array.copy sorted;
    ident = Array.init n Fun.id;
    sq = Array.make n 0.0;
    scratch = Array.make n 0;
    mark = Array.make n false;
    split_at = 0;
  }

(* Best split of the node owning [lo, hi): returns the winning feature
   (left-child size in [ws.split_at]), or -1 if no candidate gains more
   than 1e-12.  The split candidates, their enumeration order and every
   floating-point expression are those of the reference fitter; its
   prefix-sum arrays become a total pass plus a running scan that adds
   the same terms in the same order. *)
let best_split ws (ys : float array) ~lo ~hi ~parent_sse ~min_samples =
  let n = hi - lo in
  let sq = ws.sq in
  let found = ref false and best_gain = ref 0.0 and best_feat = ref (-1) in
  for f = 0 to Array.length ws.cols - 1 do
    let col = ws.cols.(f) and v = ws.vals.(f) in
    let tsum = ref 0.0 and tsq = ref 0.0 in
    for k = lo to hi - 1 do
      let s = col.(k) in
      tsum := !tsum +. ys.(s);
      tsq := !tsq +. sq.(s)
    done;
    let lsum = ref 0.0 and lsq = ref 0.0 in
    for k = lo to lo + min_samples - 1 do
      let s = col.(k) in
      lsum := !lsum +. ys.(s);
      lsq := !lsq +. sq.(s)
    done;
    for i = min_samples to n - min_samples do
      let k = lo + i in
      if v.(col.(k - 1)) < v.(col.(k)) then begin
        let ln = float_of_int i and rn = float_of_int (n - i) in
        let lsum = !lsum and rsum = !tsum -. !lsum in
        let lsq = !lsq and rsq = !tsq -. !lsq in
        let lsse = lsq -. (lsum *. lsum /. ln) in
        let rsse = rsq -. (rsum *. rsum /. rn) in
        let gain = parent_sse -. (lsse +. rsse) in
        if not (!found && !best_gain >= gain) then begin
          found := true;
          best_gain := gain;
          best_feat := f;
          ws.split_at <- i
        end
      end;
      let s = col.(k) in
      lsum := !lsum +. ys.(s);
      lsq := !lsq +. sq.(s)
    done
  done;
  if !found && not (!best_gain <= 1e-12) then !best_feat else -1

(* Stable in-place partition of every column's [lo, hi) by left-child
   membership.  Membership is decided by {e rank} in the split feature's
   column (its first [at] entries), not by comparing against the
   threshold — midpoint thresholds can round onto a boundary value, and
   rank is what the reference fitter's [Array.sub] uses.  The split
   column is already partitioned; marks are cleared before returning. *)
let partition ws ~feat ~lo ~hi ~at =
  let sf = ws.cols.(feat) and mark = ws.mark and scratch = ws.scratch in
  for k = lo to lo + at - 1 do
    mark.(sf.(k)) <- true
  done;
  Array.iteri
    (fun f col ->
      if f <> feat then begin
        let l = ref lo and r = ref 0 in
        for k = lo to hi - 1 do
          let s = col.(k) in
          if mark.(s) then begin
            col.(!l) <- s;
            incr l
          end
          else begin
            scratch.(!r) <- s;
            incr r
          end
        done;
        Array.blit scratch 0 col !l !r
      end)
    ws.cols;
  for k = lo to lo + at - 1 do
    mark.(sf.(k)) <- false
  done

(* Grow the subtree of the node owning [lo, hi).  [idx] holds the node's
   samples at [lo, hi) in the reference fitter's visitation order: the
   identity at the root, the parent's split column below it (the
   reference hands children [Array.sub sorted], which is exactly that
   partitioned segment). *)
let rec grow ws ys ~idx ~lo ~hi ~depth ~params =
  let mean = seg_mean ys idx ~lo ~hi in
  if depth >= params.max_depth || hi - lo < 2 * params.min_samples then
    Leaf mean
  else
    let parent_sse = seg_sse ys idx ~lo ~hi ~mean in
    if parent_sse < 1e-10 then Leaf mean
    else
      let feat =
        best_split ws ys ~lo ~hi ~parent_sse ~min_samples:params.min_samples
      in
      if feat < 0 then Leaf mean
      else begin
        let at = ws.split_at in
        let col = ws.cols.(feat) and v = ws.vals.(feat) in
        let thresh = (v.(col.(lo + at - 1)) +. v.(col.(lo + at))) /. 2.0 in
        partition ws ~feat ~lo ~hi ~at;
        let mid = lo + at and depth = depth + 1 in
        let left = grow ws ys ~idx:col ~lo ~hi:mid ~depth ~params in
        let right = grow ws ys ~idx:col ~lo:mid ~hi ~depth ~params in
        Node { feat; thresh; left; right }
      end

(* Boost [n_new] trees onto [residual] (mutated in place). *)
let boost xs residual ~params ~shrinkage ~n_new =
  let ws = workspace xs in
  let n = Array.length xs in
  let trees = ref [] in
  for _ = 1 to n_new do
    Array.iteri (fun f c -> Array.blit c 0 ws.cols.(f) 0 n) ws.sorted;
    for s = 0 to n - 1 do
      ws.sq.(s) <- residual.(s) ** 2.0
    done;
    let tree =
      grow ws residual ~idx:ws.ident ~lo:0 ~hi:n ~depth:0 ~params
    in
    trees := tree :: !trees;
    Array.iteri
      (fun i _ ->
        residual.(i) <-
          residual.(i) -. (shrinkage *. predict_tree tree xs.(i)))
      residual
  done;
  List.rev !trees

let fit ?(params = default_params) (xs : float array array) (ys : float array)
    : t =
  if Array.length xs = 0 then
    { base = 0.0; trees = []; shrinkage = params.learning_rate; flats = [||] }
  else begin
    let base = mean ys (Array.init (Array.length xs) Fun.id) in
    let residual = Array.map (fun y -> y -. base) ys in
    let trees =
      boost xs residual ~params ~shrinkage:params.learning_rate
        ~n_new:params.n_trees
    in
    {
      base;
      trees;
      shrinkage = params.learning_rate;
      flats = Array.of_list (List.map flatten trees);
    }
  end

(* Warm start: keep the existing ensemble (base, shrinkage, trees) and
   boost [extra_trees] new trees on the residuals of the {e full} grown
   dataset.  The base is deliberately not recentered — the new trees
   absorb any drift of the data mean, exactly as later boosting rounds
   would.  Off by default in the tuner because the resulting model (and
   hence the tuning trajectory) differs from a from-scratch fit. *)
let refit ?(params = default_params) ?extra_trees (t : t)
    (xs : float array array) (ys : float array) : t =
  let n_new =
    match extra_trees with
    | Some e ->
        if e < 0 then invalid_arg "Gbdt.refit: extra_trees must be >= 0";
        e
    | None -> max 1 (params.n_trees / 5)
  in
  if Array.length xs = 0 || n_new = 0 then t
  else begin
    let residual =
      Array.init (Array.length xs) (fun i -> ys.(i) -. predict t xs.(i))
    in
    let trees = boost xs residual ~params ~shrinkage:t.shrinkage ~n_new in
    {
      t with
      trees = t.trees @ trees;
      flats = Array.append t.flats (Array.of_list (List.map flatten trees));
    }
  end

(* ------------------------------------------------------------------ *)
(* Reference fitter (the seed implementation, kept as the oracle)     *)
(* ------------------------------------------------------------------ *)

(* Best (feature, threshold) split of [idx] minimizing children SSE. *)
let best_split (xs : float array array) (ys : float array) (idx : int array)
    ~min_samples =
  let nfeat = Array.length xs.(0) in
  let best = ref None in
  let parent_sse = sse ys idx in
  for f = 0 to nfeat - 1 do
    let sorted = Array.copy idx in
    Array.sort (fun a b -> Float.compare xs.(a).(f) xs.(b).(f)) sorted;
    let n = Array.length sorted in
    (* prefix sums for O(n) split evaluation *)
    let psum = Array.make (n + 1) 0.0 and psq = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      psum.(i + 1) <- psum.(i) +. ys.(sorted.(i));
      psq.(i + 1) <- psq.(i) +. (ys.(sorted.(i)) ** 2.0)
    done;
    for i = min_samples to n - min_samples do
      if xs.(sorted.(i - 1)).(f) < xs.(sorted.(i)).(f) then begin
        let ln = float_of_int i and rn = float_of_int (n - i) in
        let lsum = psum.(i) and rsum = psum.(n) -. psum.(i) in
        let lsq = psq.(i) and rsq = psq.(n) -. psq.(i) in
        let lsse = lsq -. (lsum *. lsum /. ln) in
        let rsse = rsq -. (rsum *. rsum /. rn) in
        let gain = parent_sse -. (lsse +. rsse) in
        let thresh = (xs.(sorted.(i - 1)).(f) +. xs.(sorted.(i)).(f)) /. 2.0 in
        match !best with
        | Some (g, _, _, _) when g >= gain -> ()
        | _ ->
            let li = Array.sub sorted 0 i and ri = Array.sub sorted i (n - i) in
            best := Some (gain, f, thresh, (li, ri))
      end
    done
  done;
  !best

let rec fit_tree xs ys idx ~depth ~params =
  if
    depth >= params.max_depth
    || Array.length idx < 2 * params.min_samples
    || sse ys idx < 1e-10
  then Leaf (mean ys idx)
  else
    match best_split xs ys idx ~min_samples:params.min_samples with
    | None | Some (_, _, _, ([||], _)) | Some (_, _, _, (_, [||])) ->
        Leaf (mean ys idx)
    | Some (gain, feat, thresh, (li, ri)) ->
        if gain <= 1e-12 then Leaf (mean ys idx)
        else
          Node
            {
              feat;
              thresh;
              left = fit_tree xs ys li ~depth:(depth + 1) ~params;
              right = fit_tree xs ys ri ~depth:(depth + 1) ~params;
            }

let fit_reference ?(params = default_params) (xs : float array array)
    (ys : float array) : t =
  if Array.length xs = 0 then
    { base = 0.0; trees = []; shrinkage = params.learning_rate; flats = [||] }
  else begin
    let n = Array.length xs in
    let base = mean ys (Array.init n (fun i -> i)) in
    let residual = Array.map (fun y -> y -. base) ys in
    let trees = ref [] in
    let idx = Array.init n (fun i -> i) in
    for _ = 1 to params.n_trees do
      let tree = fit_tree xs residual idx ~depth:0 ~params in
      trees := tree :: !trees;
      Array.iteri
        (fun i _ ->
          residual.(i) <-
            residual.(i) -. (params.learning_rate *. predict_tree tree xs.(i)))
        residual
    done;
    let trees = List.rev !trees in
    {
      base;
      trees;
      shrinkage = params.learning_rate;
      flats = Array.of_list (List.map flatten trees);
    }
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let n_trees t = List.length t.trees

let rec tree_equal a b =
  match (a, b) with
  | Leaf x, Leaf y -> Float.equal x y
  | Node a, Node b ->
      a.feat = b.feat
      && Float.equal a.thresh b.thresh
      && tree_equal a.left b.left && tree_equal a.right b.right
  | _ -> false

let equal a b =
  Float.equal a.base b.base
  && Float.equal a.shrinkage b.shrinkage
  && List.equal tree_equal a.trees b.trees

(* Coefficient of determination on a held-out set — used in tests. *)
let r2 t xs ys =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let preds = Array.map (predict t) xs in
    let ym = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
    let ss_res = ref 0.0 and ss_tot = ref 0.0 in
    Array.iteri
      (fun i y ->
        ss_res := !ss_res +. ((y -. preds.(i)) ** 2.0);
        ss_tot := !ss_tot +. ((y -. ym) ** 2.0))
      ys;
    1.0 -. (!ss_res /. Float.max 1e-12 !ss_tot)
  end
