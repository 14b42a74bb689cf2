(** Task extraction and cross-model deduplication (DESIGN.md §14).

    A tuning task is a complex operator plus the elementwise chain that
    will fuse after it.  Structurally identical tasks — wherever they
    appear, in whichever model — share one tuning run; the scheduler
    weighs each unique task by its total occurrence count across the
    zoo. *)

module Opdef = Alt_ir.Opdef
module Graph = Alt_graph.Graph

val signature : Opdef.t -> Opdef.t list -> string
(** Structural dedup key of (operator, fused chain): operator kind with
    its spatial parameters, exact shapes, and chain length. *)

val fusable_chain : Graph.t -> Graph.node -> Graph.node list
(** The elementwise chain that can fuse after a node (single consumer,
    [Assign] combiner, same shape, not complex). *)

val transfer_key : Opdef.t -> string
(** Cost-model transfer key: like {!signature} but with shapes dropped
    (kind + spatial parameters + output rank + reduction count), so
    similar tasks of different sizes can share a donated GBDT ensemble.
    Coarser than {!signature}: equal signatures imply equal transfer
    keys, never the reverse. *)

type entry = {
  signature : string;
  node : Graph.node; (** representative node (first seen) *)
  chain : Graph.node list; (** its fusable elementwise chain *)
  occurrences : (string * int) list;
      (** model name -> how many nodes this task covers there, in zoo
          order *)
}

val occurrences_total : entry -> int

val of_graphs : (string * Graph.t) list -> entry list
(** Unique tasks across a zoo of named graphs, first-seen order, with
    per-model occurrence counts. *)
