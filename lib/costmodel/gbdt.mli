(** Gradient-boosted regression trees — the XGBoost stand-in for the
    paper's learned cost model (Section 5.2.3). *)

type t

type params = {
  max_depth : int;
  min_samples : int;
  n_trees : int;
  learning_rate : float;
}

val default_params : params

val fit : ?params:params -> float array array -> float array -> t
(** Squared-error boosting of depth-limited trees with shrinkage, using
    the exact-greedy fitter.  Once per fit the features are transposed
    into columns and every column is argsorted; each tree then works in
    one d×n workspace of those presorted columns, where a node owns the
    segment [\[lo, hi)] of every column and splits it by a stable
    in-place partition.  Total sort cost is O(d n log n) per fit, and
    nothing is allocated per node beyond the tree itself.

    {b Tie behaviour.}  On {e tie-free} feature columns the trees are
    bit-identical to {!fit_reference} (QCheck2-proven on continuous random
    data at the tuner's width, d = 24, and asserted by [bench-tuner]'s
    tie-free oracle).  When a column holds {e tied} values inside a node
    — the common case for real schedule features, which are discrete
    knobs — the reference fitter's unstable per-node [Array.sort] may
    permute a tied run differently than this fitter, whose tie order is
    inherited from the per-fit presort.  Split {e sets} still agree
    exactly, but the prefix sums over a permuted tied run can round
    differently in the last ulp, which can tip a near-tied gain
    comparison and yield a different (equally optimal) tree.  On tied
    data this fitter's trees are instead pinned by digest goldens taken
    from the presort-and-allocate fitter it replaced; see DESIGN.md §10. *)

val fit_reference : ?params:params -> float array array -> float array -> t
(** The seed fitter (a fresh [Array.sort] per node per feature), kept as
    the differential oracle for tests and benchmarks.  Same trees as
    {!fit}, O(log n) slower per node. *)

val refit : ?params:params -> ?extra_trees:int -> t ->
  float array array -> float array -> t
(** Warm start: keep the ensemble and boost [extra_trees] new trees
    (default [max 1 (params.n_trees / 5)]) on the residuals of the full
    grown dataset.  The base and shrinkage are inherited; the base is not
    recentered.  Raises [Invalid_argument] on negative [extra_trees]. *)

val predict : t -> float array -> float

val batch_cutoff : int
(** Batch size below which {!predict_batch} falls back to per-sample
    {!predict}: the tree-major walk only pays for itself once its
    per-tree setup is amortized over enough candidates (48 is the
    measured crossover; below it the batched path ranked ~20% slower). *)

val predict_batch : t -> float array array -> float array
(** Rank a whole candidate batch over the flattened tree arrays.
    Bit-equal to mapping {!predict} (same fold order and float
    expressions), just faster and allocation-free per node for batches
    of at least {!batch_cutoff} candidates; smaller batches take the
    per-sample path directly. *)

val n_trees : t -> int
(** Number of boosted trees in the ensemble. *)

val equal : t -> t -> bool
(** Structural equality with exact float comparison — the old-vs-new
    fitter equivalence check. *)

val r2 : t -> float array array -> float array -> float
(** Coefficient of determination on a held-out set. *)
