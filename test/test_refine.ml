(* Step 4: crucial-register identification. *)

open Rfn_circuit
module Refine = Rfn_core.Refine
module Concretize = Rfn_core.Concretize
module B = Circuit.Builder

(* A design where the needed refinement is obvious: bad = watchdog of a
   register chain d2<-d1<-d0<-0; the abstract trace claims d2 can be 1,
   which only d1 (then d0) can refute. *)
let chain_to_zero () =
  let b = B.create () in
  let zero = B.const b false in
  let d0 = B.reg_of b "d0" zero in
  let d1 = B.reg_of b "d1" d0 in
  let d2 = B.reg_of b "d2" d1 in
  B.output b "bad" d2;
  (B.finalize b, d0, d1, d2)

let test_simulation_finds_conflicting_register () =
  let c, d0, d1, d2 = chain_to_zero () in
  let abs = Abstraction.initial c ~roots:[ d2 ] in
  (* fabricated abstract trace: "d1 = 1 at cycle 0 makes d2 = 1 at
     cycle 1" — 3-valued simulation of the design disagrees, because
     d1 is 0 after reset... the conflict appears at cycle 1 where the
     trace pins d1 again. *)
  let trace =
    Trace.make
      ~states:
        [| Cube.of_list [ (d2, false) ]; Cube.of_list [ (d2, true) ] |]
      ~inputs:[| Cube.of_list [ (d1, true) ] |]
  in
  (* note: d1=1 at cycle 0 does not conflict (initial state is imposed),
     but simulating the step gives d2' = d1 = 1 = trace: no conflict on
     d2. Extend the trace so d1 is pinned 1 at cycle 1 while d0 is
     pinned 0 at cycle 0: simulation then computes d1@1 = d0@0 = 0,
     a concrete disagreement, making d1 a conflict candidate; and on
     the refined model (d1 concrete, d0 still a pinned pseudo-input)
     the trace is unsatisfiable. *)
  let trace3 =
    Trace.make
      ~states:
        [|
          Cube.of_list [ (d2, false) ];
          Cube.of_list [ (d2, false) ];
          Cube.of_list [ (d2, true) ];
        |]
      ~inputs:
        [| Cube.of_list [ (d1, false); (d0, false) ]; Cube.of_list [ (d1, true) ] |]
  in
  ignore trace;
  let r = Refine.crucial_registers ~bad:d2 abs ~abstract_trace:trace3 () in
  Alcotest.(check bool) "d1 is a candidate" true
    (List.mem d1 r.Refine.candidates);
  Alcotest.(check bool) "d1 is kept" true (List.mem d1 r.Refine.kept);
  Alcotest.(check bool) "the refined model refutes the trace" true
    r.Refine.invalidated

let test_greedy_drops_redundant_candidates () =
  (* two chains: bad = chain_a watchdog; chain_b is irrelevant. Force
     both chains' registers into the candidate set via a trace that
     conflicts on both; the greedy pass must invalidate using chain_a
     only once it tries it. *)
  let b = B.create () in
  let zero = B.const b false in
  let a0 = B.reg_of b "a0" zero in
  let a1 = B.reg_of b "a1" a0 in
  let x = B.input b "x" in
  let b0 = B.reg_of b "b0" x in
  let b1 = B.reg_of b "b1" b0 in
  ignore b1;
  B.output b "bad" a1;
  let c = B.finalize b in
  let abs = Abstraction.initial c ~roots:[ a1 ] in
  (* trace: a0=1 and b0=1 claimed at cycle 1; simulation gives a0=0
     (conflict -> candidate) and b0=X (no conflict). *)
  let trace =
    Trace.make
      ~states:
        [|
          Cube.of_list [ (a1, false) ];
          Cube.of_list [ (a1, false) ];
          Cube.of_list [ (a1, true) ];
        |]
      ~inputs:
        [|
          Cube.of_list [ (a0, false) ];
          Cube.of_list [ (a0, true); (b0, true) ];
        |]
  in
  let r = Refine.crucial_registers ~bad:a1 abs ~abstract_trace:trace () in
  Alcotest.(check (list int)) "only a0 kept" [ a0 ] r.Refine.kept;
  Alcotest.(check bool) "invalidated" true r.Refine.invalidated

let test_fallback_frequency () =
  (* a trace with no conflicts at all: fall back to the most frequently
     mentioned pseudo-inputs *)
  let b = B.create () in
  let x = B.input b "x" in
  let p = B.reg_of b "p" x in
  let q = B.reg_of b "q" x in
  let w = B.reg_of b "w" (B.and2 b p q) in
  B.output b "bad" w;
  let c = B.finalize b in
  let abs = Abstraction.initial c ~roots:[ w ] in
  (* p mentioned twice, q once; neither conflicts (both driven by x) *)
  let trace =
    Trace.make
      ~states:
        [|
          Cube.of_list [ (w, false) ];
          Cube.of_list [ (w, false) ];
          Cube.of_list [ (w, true) ];
        |]
      ~inputs:
        [|
          Cube.of_list [ (p, true); (x, true) ];
          Cube.of_list [ (p, true); (q, true); (x, true) ];
        |]
  in
  let r =
    Refine.crucial_registers ~max_fallback:1 ~bad:w abs ~abstract_trace:trace ()
  in
  Alcotest.(check (list int)) "most frequent pseudo-input" [ p ]
    r.Refine.candidates

let test_rfn_refinement_converges_on_chain () =
  (* end-to-end: the chain design is proved after refining d1 then d0 *)
  let c, _, _, d2 = chain_to_zero () in
  let prop = Property.make ~name:"chain" ~bad:d2 in
  match Rfn_core.Rfn.verify c prop with
  | Rfn_core.Rfn.Proved, stats ->
    Alcotest.(check bool) "several iterations" true
      (List.length stats.Rfn_core.Rfn.provenance >= 2);
    Alcotest.(check int) "final model has the whole chain" 3
      stats.Rfn_core.Rfn.final_abstract_regs
  | _ -> Alcotest.fail "expected Proved"

let test_concretize_guided_vs_unguided () =
  let c = Helpers.deep_bug_design ~width:3 in
  let bad = Circuit.output c "bad" in
  (* abstract trace from a full-information run (the design is small
     enough to treat the whole design as its own abstraction) *)
  let prop = Property.make ~name:"bug" ~bad in
  match Rfn_core.Rfn.verify c prop with
  | Rfn_core.Rfn.Falsified t, _ ->
    let depth = Trace.length t in
    (* unguided search at the same depth must also find it eventually
       (tiny design), guided search must find it quickly *)
    let guided, gstats =
      Concretize.guided c ~bad ~abstract_trace:t
    in
    (match guided with
    | Concretize.Found _ -> ()
    | _ -> Alcotest.fail "guided search failed");
    let unguided, ustats = Concretize.unguided c ~bad ~depth in
    (match unguided with
    | Concretize.Found _ -> ()
    | _ -> Alcotest.fail "unguided search failed on a tiny design");
    Alcotest.(check bool) "guidance does not increase backtracks" true
      (gstats.Rfn_atpg.Atpg.backtracks <= ustats.Rfn_atpg.Atpg.backtracks)
  | _ -> Alcotest.fail "expected Falsified"

let tests =
  [
    Alcotest.test_case "simulation finds the conflicting register" `Quick
      test_simulation_finds_conflicting_register;
    Alcotest.test_case "greedy drops redundant candidates" `Quick
      test_greedy_drops_redundant_candidates;
    Alcotest.test_case "frequency fallback" `Quick test_fallback_frequency;
    Alcotest.test_case "refinement converges on a chain" `Quick
      test_rfn_refinement_converges_on_chain;
    Alcotest.test_case "guided vs unguided concretization" `Quick
      test_concretize_guided_vs_unguided;
  ]

let () = Alcotest.run "refine" [ ("refine", tests) ]
