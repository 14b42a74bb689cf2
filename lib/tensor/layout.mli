(** Data layout state and layout primitives (paper Section 4.1).

    A layout records a tensor's logical shape plus a cached sequence of
    primitives.  Basic primitives ([split]/[reorder]/[fuse], Table 1)
    perform one-to-one transformations; advanced primitives ([unfold] for
    overlapped tiling and [pad] for alignment, Section 4.1.2) may expand
    data.  [store_at] couples two tensors and lives at the graph level
    ({!Alt_graph.Placement}).  Physical buffers are row-major over
    [physical_shape].

    Concrete index semantics are carried by a canonical {!Relation}
    (DESIGN.md §16), derived incrementally as primitives are applied;
    the seed per-primitive implementations survive verbatim in
    {!Reference} as the differential oracle that tests call directly. *)

exception Layout_error of string

type prim =
  | Split of { dim : int; factors : int list }
  | Reorder of int array
  | Fuse of { dim : int; count : int }
  | Unfold of { dim : int; tile : int; stride : int }
  | Pad of { dim : int; lo : int; hi : int }

type t

val create : Shape.t -> t
(** Identity layout of a logical shape. *)

val logical_shape : t -> Shape.t
val physical_shape : t -> Shape.t
val prims : t -> prim list
val is_trivial : t -> bool

val relation : t -> Relation.t
(** The layout's index relation: domain = [logical_shape], range =
    [physical_shape], steps = the canonicalized primitive chain.
    Memoized; derived incrementally by {!apply}. *)

val phys_strides : t -> int array
(** Row-major element strides of the physical shape, read from the
    relation's range — what lowering and the exec backend's
    affine-profile extraction use. *)

val conversion_cost : t -> int
(** {!Relation.conversion_cost} of the layout's relation: one read per
    logical element + one write per physical element. *)

val has_advanced : t -> bool
(** True if the primitive sequence contains [unfold] or [pad] — the
    "non-trivial advanced primitives" test of Algorithm 1. *)

val invertible : t -> bool
(** True if the logical->physical index map is a bijection (no advanced
    primitives); required of output-tensor layouts. *)

val apply : t -> prim -> t

val split : t -> dim:int -> factors:int list -> t
(** Factors must multiply to the current extent of [dim]. *)

val reorder : t -> int array -> t
(** [reorder t perm]: new dim [i] is old dim [perm.(i)]. *)

val fuse : t -> dim:int -> count:int -> t
val unfold : t -> dim:int -> tile:int -> stride:int -> t
val pad : t -> dim:int -> lo:int -> hi:int -> t

val equal : t -> t -> bool
val pp : t Fmt.t
val pp_prim : prim Fmt.t

type window = Var.t -> int option
(** Maps sliding-window variables (e.g. a convolution's output spatial
    iterators) to their constant stride V; used by the unfold rewrite. *)

val no_window : window

val forward_exprs :
  ?bounds:Ixexpr.bounds -> ?window:window -> t -> Ixexpr.t array ->
  Ixexpr.t array
(** Rewrites logical access expressions to physical ones (Table 1); for
    [unfold] the access must have the sliding form [V*i + r] with window
    variable [i] (Eq. (1)).  Raises {!Layout_error} otherwise. *)

val inverse_exprs : ?bounds:Ixexpr.bounds -> t -> Ixexpr.t array -> Ixexpr.t array
(** Physical index expressions -> logical; requires [invertible].  This is
    the S_Y^{-1} used when reconstructing a producer's loop nest. *)

val logical_of_physical :
  ?bounds:Ixexpr.bounds -> t -> Ixexpr.t array ->
  Ixexpr.t array * (Ixexpr.t * int) list
(** Physical index expressions -> logical, total even for [unfold] and
    [pad]; also returns in-bounds conditions [(expr, extent)] meaning
    [0 <= expr < extent] that guard padded / overhanging positions.  Used to
    generate conversion-operator programs. *)

val eval_fwd : t -> int array -> int array
(** Concrete logical index -> physical index; rejects layouts with
    [unfold] (one-to-many). *)

val phys_index : t -> int array -> int
(** Concrete logical index -> physical {e offset} (row-major over
    [physical_shape]); rejects layouts with [unfold] like {!eval_fwd}.
    Pinned byte-identical to {!Reference.phys_index} by the QCheck2
    differential suite. *)

val pack : t -> float array -> float array
(** Materializes the physical buffer from logical row-major data (zero
    fills padding; duplicates overlapped tiles). *)

val unpack : t -> float array -> float array
(** Recovers logical row-major data from a physical buffer. *)

val num_physical_elements : t -> int

val expansion_ratio : t -> float
(** Physical elements / logical elements (>= 1; > 1 for unfold and pad). *)

val of_prims : Shape.t -> prim list -> t
(** Replays a primitive sequence onto a fresh layout of [shape].  Each
    primitive is validated exactly once against the incrementally
    maintained physical shape (linear in chain length; the seed
    re-validated the whole prefix per step, quadratic — the
    [layout.relation.validate] counter ticks once per validation and a
    regression test pins the linear count). *)

val replay : Shape.t -> t -> t
(** [replay shape src] copies [src]'s primitive chain onto a tensor of
    [shape] — how layout propagation duplicates a chosen layout onto
    consumers.  When [shape] equals [src]'s logical shape (the common
    case) the already-proven relation is shared and nothing is
    re-validated; otherwise it falls back to {!of_prims} (which raises
    {!Layout_error} if the chain is illegal for [shape]). *)

(** The seed implementations of the concrete maps, kept verbatim as the
    differential oracle: the QCheck2 suite in test/test_relation.ml pins
    the relation-backed [pack]/[unpack]/[eval_fwd]/[phys_index] above
    byte-identical to these.  Production entry points never route
    through this module. *)
module Reference : sig
  val physical_shape : t -> Shape.t
  val pack : t -> float array -> float array
  val unpack : t -> float array -> float array
  val eval_fwd : t -> int array -> int array
  val phys_index : t -> int array -> int
end
