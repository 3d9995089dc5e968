(* Extensions beyond the paper's core loop: BDD subsetting (evaluated
   and rejected by the paper — reproduced here), multi-trace guidance
   (the paper's future work), and variable-order carry-over between
   refinement iterations. *)

open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Reach = Rfn_mc.Reach
module Hybrid = Rfn_core.Hybrid
module Concretize = Rfn_core.Concretize
module Rfn = Rfn_core.Rfn
module Sim3v = Rfn_sim3v.Sim3v

(* ---- subset_heavy --------------------------------------------------- *)

let subset_implies =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"subset_heavy under-approximates"
       (QCheck.pair
          (Helpers.arbitrary_circuit ~nins:5 ~nregs:2 ~ngates:14)
          (QCheck.int_range 1 12))
       (fun (rc, budget) ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Varmap.make view in
         let man = Varmap.man vm in
         let f = (Symbolic.functions vm) rc.Helpers.out in
         let s = Bdd.subset_heavy man ~max_size:budget f in
         Bdd.size man s <= max budget 1
         && Bdd.is_zero (Bdd.diff man s f)))

let test_subset_keeps_small_bdds () =
  let man = Bdd.create ~nvars:4 () in
  let f = Bdd.dand man (Bdd.var man 0) (Bdd.var man 2) in
  Alcotest.(check bool) "small BDD untouched" true
    (Bdd.equal f (Bdd.subset_heavy man ~max_size:100 f))

let test_subset_is_drastic () =
  (* the paper's observation: aggressive subsetting loses most of the
     state set. A parity function over n variables subsides to a single
     cube — a 2^-(n-1) fraction. *)
  let n = 10 in
  let man = Bdd.create ~nvars:n () in
  let parity =
    List.fold_left
      (fun acc i -> Bdd.dxor man acc (Bdd.var man i))
      (Bdd.zero man)
      (List.init n (fun i -> i))
  in
  let s = Bdd.subset_heavy man ~max_size:(n + 1) parity in
  let kept = Bdd.density man s /. Bdd.density man parity in
  Alcotest.(check bool) "almost everything lost" true (kept < 0.01)

(* ---- multi-trace extraction and guidance ---------------------------- *)

let test_extract_multi_distinct () =
  (* a design with two distinct ways to reach bad in one step *)
  let b = Circuit.Builder.create () in
  let module B = Circuit.Builder in
  let x = B.input b "x" and y = B.input b "y" in
  let rx = B.reg_of b "rx" x in
  let ry = B.reg_of b "ry" y in
  let bad = B.or2 b rx ry in
  B.output b "bad" bad;
  let c = B.finalize b in
  let view = Sview.whole c ~roots:[ bad ] in
  let vm = Varmap.make view in
  let fn = Symbolic.functions vm in
  let img = Image.make vm in
  let init = Symbolic.initial_states vm in
  let bad_states = Reach.bad_predicate vm ~fn ~bad in
  match Reach.run img ~vm ~init ~bad_states with
  | { Reach.outcome = Reach.Reached k; rings; _ } ->
    let results =
      Hybrid.extract_multi ~count:3 vm ~rings ~target:(fn bad) ~k
    in
    Alcotest.(check bool) "more than one trace" true (List.length results >= 2);
    let finals =
      List.map
        (fun r ->
          let t = r.Hybrid.trace in
          Cube.to_list (Trace.state t (Trace.length t - 1)))
        results
    in
    Alcotest.(check int) "final cubes pairwise distinct"
      (List.length finals)
      (List.length (List.sort_uniq compare finals));
    (* each trace replays *)
    List.iter
      (fun r ->
        Alcotest.(check bool) "replays" true
          (Sim3v.replay_concrete c r.Hybrid.trace ~bad))
      results
  | _ -> Alcotest.fail "expected Reached"

let test_guided_any () =
  let c = Helpers.deep_bug_design ~width:2 in
  let bad = Circuit.output c "bad" in
  match Rfn.verify c (Property.make ~name:"bug" ~bad) with
  | Rfn.Falsified t, _ -> (
    (* a bogus trace (wrong length, impossible constraints) followed by
       the real one: the first Found must still win *)
    let impossible =
      Trace.make
        ~states:[| Cube.of_list [ (bad, true) ] |]
        ~inputs:[| Cube.empty |]
    in
    match
      Concretize.first_found
        (fun abstract_trace ->
          fst (Concretize.guided c ~bad ~abstract_trace))
        [ impossible; t ]
    with
    | Concretize.Found t' ->
      Alcotest.(check bool) "replays" true (Sim3v.replay_concrete c t' ~bad)
    | _ -> Alcotest.fail "expected Found")
  | _ -> Alcotest.fail "expected Falsified"

let test_multi_trace_config_verifies () =
  (* the full loop with guidance_traces = 3 still gives sound verdicts *)
  let config = { Rfn.default_config with Rfn.guidance_traces = 3 } in
  let c = Helpers.deep_bug_design ~width:3 in
  let bad = Circuit.output c "bad" in
  (match Rfn.verify ~config c (Property.make ~name:"bug" ~bad) with
  | Rfn.Falsified t, _ ->
    Alcotest.(check bool) "replays" true (Sim3v.replay_concrete c t ~bad)
  | _ -> Alcotest.fail "expected Falsified");
  let arb = Helpers.arbiter_design () in
  match Rfn.verify ~config arb (Property.of_output arb "bad") with
  | Rfn.Proved, _ -> ()
  | _ -> Alcotest.fail "expected Proved"

(* ---- order carry-over ----------------------------------------------- *)

let test_varmap_previous_preserves_semantics () =
  let proc = Rfn_designs.Processor.(make ~params:small ()) in
  let c = proc.Rfn_designs.Processor.circuit in
  let bad = proc.mutex.Property.bad in
  let a0 = Abstraction.initial c ~roots:[ bad ] in
  let vm0 = Varmap.make a0.Abstraction.view in
  let a1 =
    Abstraction.refine a0 ~add:[ Circuit.find c "grant_0" ]
  in
  let vm1 = Varmap.make ~previous:vm0 a1.Abstraction.view in
  (* the seeded varmap is fully functional: reach verdicts agree with a
     fresh one *)
  let verdict vm =
    let fn = Symbolic.functions vm in
    let img = Image.make vm in
    let init = Symbolic.initial_states vm in
    let bad_states = Reach.bad_predicate vm ~fn ~bad in
    match (Reach.run ~max_steps:100 img ~vm ~init ~bad_states).Reach.outcome with
    | Reach.Proved -> "proved"
    | Reach.Reached k -> Printf.sprintf "reached %d" k
    | Reach.Closed k -> Printf.sprintf "closed %d" k
    | Reach.Aborted w -> "abort " ^ Rfn_failure.resource_to_string w
  in
  let fresh = Varmap.make a1.Abstraction.view in
  Alcotest.(check string) "same verdict" (verdict fresh) (verdict vm1)

let force_seeding_not_worse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"seeded FORCE never beats unseeded badly"
       (QCheck.int_range 4 20)
       (fun n ->
         let edges = List.init (n - 1) (fun i -> [ i; i + 1 ]) in
         let unseeded = Rfn_bdd.Force.order ~nvars:n ~edges () in
         let seeded =
           Rfn_bdd.Force.order ~init:unseeded ~nvars:n ~edges ()
         in
         Rfn_bdd.Force.span ~pos:seeded ~edges
         <= Rfn_bdd.Force.span ~pos:unseeded ~edges))

(* ---- GC under pressure ---------------------------------------------- *)

let test_long_fixpoint_survives_tight_budget () =
  (* a 6-bit counter takes 64 fixpoint steps; with a small node budget
     the run only closes because the GC reclaims dead intermediates *)
  let b = Circuit.Builder.create () in
  let module B = Circuit.Builder in
  let en = B.input b "en" in
  let q = Rtl.counter b ~name:"q" ~width:6 ~enable:en () in
  let top = Rtl.eq_const b q 63 in
  B.output b "top" top;
  let c = B.finalize b in
  let view = Sview.whole c ~roots:[ top ] in
  let vm = Varmap.make ~node_limit:4_000 view in
  let fn = Symbolic.functions vm in
  let img = Image.make vm in
  let init = Symbolic.initial_states vm in
  let bad_states = Reach.bad_predicate vm ~fn ~bad:top in
  match Reach.run ~max_steps:200 img ~vm ~init ~bad_states with
  | { Reach.outcome = Reach.Reached 63; _ } -> ()
  | { Reach.outcome = Reach.Aborted why; _ } ->
    Alcotest.fail ("aborted despite gc: " ^ Rfn_failure.resource_to_string why)
  | _ -> Alcotest.fail "unexpected outcome"

let test_gate_name_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Gate.to_string k) true
        (Gate.of_string (Gate.to_string k) = Some k);
      Alcotest.(check bool) "lowercase too" true
        (Gate.of_string (String.lowercase_ascii (Gate.to_string k)) = Some k))
    [
      Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not;
      Gate.Buf; Gate.Mux;
    ];
  Alcotest.(check bool) "unknown rejected" true (Gate.of_string "FOO" = None)

let tests =
  [
    subset_implies;
    Alcotest.test_case "long fixpoint under tight node budget" `Quick
      test_long_fixpoint_survives_tight_budget;
    Alcotest.test_case "gate name roundtrip" `Quick test_gate_name_roundtrip;
    Alcotest.test_case "subsetting keeps small BDDs" `Quick
      test_subset_keeps_small_bdds;
    Alcotest.test_case "subsetting is drastic (paper's claim)" `Quick
      test_subset_is_drastic;
    Alcotest.test_case "extract_multi yields distinct traces" `Quick
      test_extract_multi_distinct;
    Alcotest.test_case "guided_any recovers from bad guidance" `Quick
      test_guided_any;
    Alcotest.test_case "multi-trace config stays sound" `Quick
      test_multi_trace_config_verifies;
    Alcotest.test_case "order carry-over preserves semantics" `Quick
      test_varmap_previous_preserves_semantics;
    force_seeding_not_worse;
  ]

let () = Alcotest.run "extensions" [ ("extensions", tests) ]
