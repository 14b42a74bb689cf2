(* Task extraction and cross-model deduplication (DESIGN.md §14).

   A tuning task is a complex operator together with the elementwise chain
   that will fuse after it.  Structurally identical tasks — same operator
   signature, wherever they appear in whichever model — share one tuning
   run; [of_graphs] walks a whole zoo and returns the unique tasks in
   first-seen order, with per-model occurrence counts so the scheduler can
   weigh a task by its total latency contribution across the zoo. *)

module Shape = Alt_tensor.Shape
module Opdef = Alt_ir.Opdef
module Graph = Alt_graph.Graph

(* Structural signature of a tuning task for deduplication. *)
let signature (op : Opdef.t) (fused : Opdef.t list) : string =
  let kind_tag =
    match op.Opdef.kind with
    | Opdef.Conv c ->
        Fmt.str "conv:%s"
          (String.concat ","
             (List.map
                (fun (s : Opdef.conv_spatial) ->
                  Fmt.str "%d.%d.%d" s.Opdef.kernel s.Opdef.stride
                    s.Opdef.dilation)
                c.spatials))
    | Opdef.Matmul m -> if m.batched then "bmm" else "gmm"
    | Opdef.Simple -> "simple"
  in
  Fmt.str "%s|out=%a|in=%s|chain=%d" kind_tag Shape.pp op.Opdef.out_shape
    (String.concat ";"
       (List.map (fun (_, s) -> Shape.to_string s) op.Opdef.inputs))
    (List.length fused)

(* The elementwise chain that can fuse after [node] (structural: single
   consumer, Assign, same shape, not complex). *)
let fusable_chain (g : Graph.t) (node : Graph.node) : Graph.node list =
  let rec walk acc cur =
    match Graph.consumers g cur with
    | [ c ]
      when c.Graph.op.Opdef.combiner = Opdef.Assign
           && (not c.Graph.op.Opdef.complex)
           && Shape.equal c.Graph.op.Opdef.out_shape
                node.Graph.op.Opdef.out_shape ->
        walk (acc @ [ c ]) c.Graph.op.Opdef.out_name
    | _ -> acc
  in
  walk [] node.Graph.op.Opdef.out_name

(* Coarser than [signature]: shapes are dropped so e.g. all stride-1 3x3
   convolutions share a key regardless of channel counts.  The feature
   space is a fixed [Features.dim]-wide vector for every operator, so a
   donated ensemble always types; the key just restricts donation to
   tasks whose latency structure is close enough for the transferred
   trees to rank candidates usefully. *)
let transfer_key (op : Opdef.t) : string =
  let kind_tag =
    match op.Opdef.kind with
    | Opdef.Conv c ->
        Fmt.str "conv:%s"
          (String.concat ","
             (List.map
                (fun (s : Opdef.conv_spatial) ->
                  Fmt.str "%d.%d.%d" s.Opdef.kernel s.Opdef.stride
                    s.Opdef.dilation)
                c.spatials))
    | Opdef.Matmul m -> if m.batched then "bmm" else "gmm"
    | Opdef.Simple -> "simple"
  in
  Fmt.str "%s|rank=%d|nred=%d" kind_tag
    (Shape.rank op.Opdef.out_shape)
    (List.length op.Opdef.reduce)

type entry = {
  signature : string;
  node : Graph.node; (* representative node (first seen) *)
  chain : Graph.node list; (* its fusable elementwise chain *)
  occurrences : (string * int) list;
      (* model name -> how many nodes this task covers there *)
}

let occurrences_total (e : entry) =
  List.fold_left (fun a (_, c) -> a + c) 0 e.occurrences

let of_graphs (graphs : (string * Graph.t) list) : entry list =
  (* first-seen order across the zoo; occurrence counts accumulated per
     model, model order within an entry following the zoo order *)
  let uniq : (string, entry ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (model, g) ->
      List.iter
        (fun (n : Graph.node) ->
          let chain = fusable_chain g n in
          let s =
            signature n.Graph.op (List.map (fun c -> c.Graph.op) chain)
          in
          let e =
            match Hashtbl.find_opt uniq s with
            | Some e -> e
            | None ->
                let e =
                  ref { signature = s; node = n; chain; occurrences = [] }
                in
                Hashtbl.replace uniq s e;
                order := e :: !order;
                e
          in
          let occ = !e.occurrences in
          let occurrences =
            match List.assoc_opt model occ with
            | None -> occ @ [ (model, 1) ]
            | Some c ->
                List.map
                  (fun (m, k) -> if m = model then (m, c + 1) else (m, k))
                  occ
          in
          e := { !e with occurrences })
        (Graph.complex_nodes g))
    graphs;
  List.rev_map (fun e -> !e) !order
