(* Lint engine and cross-artifact invariant checker tests: golden
   findings over the design zoo and examples/fifo.bench, the QCheck
   "Builder designs never lint as errors" property, and corruption
   detection for the RFN_CHECK artifact checkers. *)

open Rfn_circuit
module B = Circuit.Builder
module Lint = Rfn_lint.Lint
module Check = Rfn_lint.Check
module Varmap = Rfn_mc.Varmap
module Cnf = Rfn_sat.Cnf
module Rfn = Rfn_core.Rfn

let report_lines ?only c props =
  let report = Lint.run ?only ~props c in
  Format.asprintf "%a" Lint.pp_report report

(* The acceptance design: a constant-next-state register, a dead
   input, and a structurally-false property — all three reported, with
   the right severities. *)
let acceptance_design () =
  let b = B.create () in
  let _dead = B.input b "unused" in
  let a = B.input b "a" in
  let stuck = B.reg b "stuck" in
  B.connect b stuck (B.const b false);
  let keep = B.reg_of b "keep" a in
  let bad = B.gate b ~name:"bad" Gate.Or [| keep; B.const b true |] in
  B.output b "bad" bad;
  B.finalize b

let test_acceptance () =
  let c = acceptance_design () in
  let props = [ Property.of_output c "bad" ] in
  let report = Lint.run ~props c in
  let has pass severity =
    List.exists
      (fun f -> f.Lint.pass = pass && f.Lint.severity = severity)
      report.Lint.findings
  in
  Alcotest.(check bool) "prop-const error" true (has "prop-const" Lint.Error);
  Alcotest.(check bool) "const-reg warning" true (has "const-reg" Lint.Warning);
  Alcotest.(check bool)
    "dead-input warning" true
    (has "dead-input" Lint.Warning);
  Alcotest.(check int) "one error" 1 (Lint.errors report);
  (* the register with constant init=0 next-state is named *)
  let const_reg =
    List.find (fun f -> f.Lint.pass = "const-reg") report.Lint.findings
  in
  Alcotest.(check (list string))
    "const-reg names stuck" [ "stuck" ]
    (List.map (Circuit.name c) const_reg.Lint.signals)

let test_vacuous_and_self_loop () =
  let b = B.create () in
  let a = B.input b "a" in
  let self = B.reg b "self" in
  B.connect b self self;
  let keep = B.reg_of b "keep" a in
  let bad = B.gate b ~name:"bad" Gate.And [| keep; B.const b false |] in
  B.output b "bad" bad;
  let c = B.finalize b in
  let report = Lint.run ~props:[ Property.of_output c "bad" ] c in
  let by pass =
    List.filter (fun f -> f.Lint.pass = pass) report.Lint.findings
  in
  Alcotest.(check int) "no errors (vacuous is a warning)" 0
    (Lint.errors report);
  (match by "prop-const" with
  | [ f ] -> Alcotest.(check bool) "vacuous warns" true (f.Lint.severity = Lint.Warning)
  | _ -> Alcotest.fail "expected one prop-const finding");
  match by "self-loop-reg" with
  | [ f ] ->
    Alcotest.(check (list string))
      "self-loop names self" [ "self" ]
      (List.map (Circuit.name c) f.Lint.signals)
  | _ -> Alcotest.fail "expected one self-loop-reg finding"

let test_free_init_and_duplicates () =
  let b = B.create () in
  let a = B.input b "a" in
  let fr = B.reg b ~init:`Free "fr" in
  B.connect b fr a;
  (* two structurally identical named gates: hash-consing merges
     unnamed duplicates, but named definitions keep their own cell *)
  let g1 = B.gate b ~name:"g1" Gate.And [| a; fr |] in
  let g2 = B.gate b ~name:"g2" Gate.And [| a; fr |] in
  let bad = B.gate b ~name:"bad" Gate.Or [| g1; g2 |] in
  B.output b "bad" bad;
  let c = B.finalize b in
  let report = Lint.run ~props:[ Property.of_output c "bad" ] c in
  let has pass = List.exists (fun f -> f.Lint.pass = pass) report.Lint.findings in
  Alcotest.(check bool) "prop-free-init" true (has "prop-free-init");
  Alcotest.(check bool) "duplicate-gate" true (has "duplicate-gate")

(* ---- invariant-backed passes ----------------------------------------- *)

(* A one-hot token ring: "collide" can only fire by violating the
   proven one-hot group (vacuous, Error); "stuck" genuinely depends on
   reachable behaviour and must not be flagged. *)
let test_onehot_violation () =
  let b = B.create () in
  let s0 = B.reg b ~init:`One "s0" in
  let s1 = B.reg b ~init:`Zero "s1" in
  let s2 = B.reg b ~init:`Zero "s2" in
  B.connect b s0 s2;
  B.connect b s1 s0;
  B.connect b s2 s1;
  B.output b "collide"
    (B.gate b ~name:"collide" Gate.Or
       [| B.and2 b s0 s1; B.and2 b s0 s2; B.and2 b s1 s2 |]);
  B.output b "stuck" s1;
  let c = B.finalize b in
  let props =
    [ Property.of_output c "collide"; Property.of_output c "stuck" ]
  in
  let report = Lint.run ~only:[ "onehot-violation" ] ~props c in
  match
    List.filter (fun f -> f.Lint.severity = Lint.Error) report.Lint.findings
  with
  | [ f ] ->
    Alcotest.(check string) "pass name" "onehot-violation" f.Lint.pass;
    Alcotest.(check bool)
      "the vacuous property is the one flagged" true
      (String.length f.Lint.message >= 18
      && String.sub f.Lint.message 0 18 = "property \"collide\"");
    Alcotest.(check bool)
      "the collide signal is implicated" true
      (List.mem (Circuit.output c "collide") f.Lint.signals)
  | fs ->
    Alcotest.failf "expected exactly one onehot-violation error, got %d"
      (List.length fs)

(* Twin registers clocked from the same function: the redundant one is
   reported with its keeper, the keeper itself is not flagged. *)
let test_equiv_reg () =
  let b = B.create () in
  let i0 = B.input b "i0" in
  let ra = B.reg b ~init:`Zero "ra" in
  let rb = B.reg b ~init:`Zero "rb" in
  let nxt = B.xor2 b i0 ra in
  B.connect b ra nxt;
  B.connect b rb nxt;
  B.output b "both" (B.and2 b ra rb);
  let c = B.finalize b in
  let report = Lint.run ~only:[ "equiv-reg" ] c in
  match report.Lint.findings with
  | [ f ] ->
    Alcotest.(check bool) "warning severity" true
      (f.Lint.severity = Lint.Warning);
    Alcotest.(check string) "golden message"
      "register \"rb\" is redundant: in every reachable state it equals \
       \"ra\""
      f.Lint.message
  | fs ->
    Alcotest.failf "expected exactly one equiv-reg warning, got %d"
      (List.length fs)

(* ---- golden reports -------------------------------------------------- *)

let golden name actual expected =
  Alcotest.(check string) name expected actual

let test_golden_arbiter () =
  let c = Helpers.arbiter_design () in
  golden "arbiter findings"
    (report_lines c [ Property.of_output c "bad" ])
    "0 error(s), 0 warning(s), 0 info(s) from 10 pass(es)\n"

(* The zoo counter carries an unused carry chain beyond the comparator:
   or_15..or_18 feed nothing, so the head of that chain floats. *)
let test_golden_counter () =
  let c = Helpers.counter_design ~width:3 ~limit:5 in
  golden "counter findings"
    (report_lines c [ Property.of_output c "at_limit" ])
    "warning: [floating-gate] gate \"or_18\" output is never read\n\
     info: [unreachable-logic] 4 signal(s) outside every output/property \
     cone: or_15, and_16, and_17, or_18\n\
     0 error(s), 1 warning(s), 1 info(s) from 10 pass(es)\n"

let test_golden_deep_bug () =
  let c = Helpers.deep_bug_design ~width:3 in
  golden "deep_bug findings"
    (report_lines c [ Property.of_output c "bad" ])
    "warning: [floating-gate] gate \"or_18\" output is never read\n\
     info: [unreachable-logic] 4 signal(s) outside every output/property \
     cone: or_15, and_16, and_17, or_18\n\
     0 error(s), 1 warning(s), 1 info(s) from 10 pass(es)\n"

(* dune runtest runs from _build/default/test; dune exec from the root *)
let fifo_path () =
  List.find Sys.file_exists
    [ "../examples/fifo.bench"; "examples/fifo.bench" ]

let test_golden_fifo () =
  let c = Bench_io.parse_file (fifo_path ()) in
  let props =
    List.map (fun (n, _) -> Property.of_output c n) c.Circuit.outputs
  in
  golden "fifo findings" (report_lines c props)
    "warning: [equiv-reg] register \"age_0\" is redundant: in every \
     reachable state it equals \"tail_0\"\n\
     warning: [equiv-reg] register \"age_1\" is redundant: in every \
     reachable state it equals \"tail_1\"\n\
     warning: [equiv-reg] register \"age_2\" is redundant: in every \
     reachable state it equals \"tail_2\"\n\
     warning: [floating-gate] gate \"not_8\" output is never read\n\
     warning: [floating-gate] gate \"or_45\" output is never read\n\
     warning: [floating-gate] gate \"or_69\" output is never read\n\
     warning: [floating-gate] gate \"or_103\" output is never read\n\
     warning: [floating-gate] gate \"or_131\" output is never read\n\
     warning: [floating-gate] gate \"or_496\" output is never read\n\
     warning: [floating-gate] gate \"or_518\" output is never read\n\
     info: [unreachable-logic] 28 signal(s) outside every output/property \
     cone: empty_flag, not_8, or_42, and_43, and_44, or_45, or_66, and_67, \
     ... (20 more)\n\
     0 error(s), 10 warning(s), 1 info(s) from 10 pass(es)\n"

let test_only_selects_passes () =
  let c = Helpers.arbiter_design () in
  let report = Lint.run ~only:[ "dead-input"; "const-reg" ] c in
  Alcotest.(check (list string))
    "passes_run" [ "const-reg"; "dead-input" ] report.Lint.passes_run;
  Alcotest.check_raises "unknown pass"
    (Invalid_argument "Lint.run: unknown pass \"nope\"") (fun () ->
      ignore (Lint.run ~only:[ "nope" ] c))

(* golden/lint.jsonl: the text and JSON report of every zoo design and
   committed netlist, all outputs as properties, as recorded when each
   pass still ran its own analysis. *)
let test_golden_reports () =
  let all_outputs c =
    List.map (fun (n, _) -> Property.of_output c n) c.Circuit.outputs
  in
  let cases =
    List.map (fun (name, c, _) -> (name, c)) (Helpers.zoo ())
    @ List.map
        (fun f -> (f, Netlist_io.load (Filename.concat "../examples" f)))
        [ "fifo.bench"; "passing_token.aag"; "passing_token.aig" ]
  in
  let ic = open_in "golden/lint.jsonl" in
  List.iter
    (fun (name, c) ->
      let expected = Rfn_obs.Json.of_string (input_line ic) in
      let field k =
        Option.get
          (Option.bind (Rfn_obs.Json.member k expected) Rfn_obs.Json.to_str)
      in
      Alcotest.(check string) (name ^ ": case") name (field "case");
      let report = Lint.run ~props:(all_outputs c) c in
      Alcotest.(check string) (name ^ ": text") (field "text")
        (Format.asprintf "%a" Lint.pp_report report);
      Alcotest.(check string) (name ^ ": json") (field "json")
        (Rfn_obs.Json.to_string (Lint.report_to_json c report)))
    cases;
  close_in ic

(* The analysis-backed passes share one quick Analysis.run per lint
   call, and a selection without them runs none. *)
let test_one_analysis_per_run () =
  let module Telemetry = Rfn_obs.Telemetry in
  let c = Bench_io.parse_file (fifo_path ()) in
  let props =
    List.map (fun (n, _) -> Property.of_output c n) c.Circuit.outputs
  in
  let analysis_runs only =
    Telemetry.reset ();
    Telemetry.enable ();
    ignore (Lint.run ?only ~props c);
    let n =
      match Telemetry.span_stats "analysis.run" with
      | Some (calls, _) -> calls
      | None -> 0
    in
    Telemetry.disable ();
    Telemetry.reset ();
    n
  in
  Alcotest.(check int) "full run" 1 (analysis_runs None);
  Alcotest.(check int) "const-reg only" 0 (analysis_runs (Some [ "const-reg" ]))

(* design lints never produce Error severity: errors are reserved for
   property violations, and random Builder designs carry no property *)
let qcheck_no_errors =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"lint on a Builder-constructed design never reports Error"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:12)
       (fun rc -> Lint.errors (Lint.run rc.Helpers.circuit) = 0))

(* ---- invariant checkers ---------------------------------------------- *)

let whole_vm () =
  let c = Helpers.counter_design ~width:3 ~limit:5 in
  let view = Sview.whole c ~roots:[ Circuit.output c "at_limit" ] in
  (c, view, Varmap.make view)

let test_varmap_clean () =
  let _, _, vm = whole_vm () in
  Alcotest.(check int) "no findings" 0 (List.length (Check.varmap vm))

let test_varmap_corrupted () =
  (* a stale varmap: [grow] re-rolls a promoted pseudo-input's input
     variable as its current-state variable in the shared tables, so
     the pre-refinement map no longer carries that free input's role *)
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let a0 = Abstraction.initial c ~roots:[ Circuit.output c "at_limit" ] in
  let stale = Varmap.make a0.Abstraction.view in
  let p =
    match Abstraction.pseudo_inputs a0 with
    | p :: _ -> p
    | [] -> Alcotest.fail "the counter's initial abstraction has no pseudo-input"
  in
  let a1, delta = Abstraction.refine_delta a0 ~add:[ p ] in
  ignore (Varmap.grow stale ~view:a1.Abstraction.view delta);
  Alcotest.(check int) "stale map caught" 1 (List.length (Check.varmap stale));
  (* collapse every variable onto level 0: duplicate roles and a role
     table that no longer round-trips *)
  let _, _, vm = whole_vm () in
  let collapsed = Varmap.remap vm ~man:(Varmap.man vm) ~map:(fun _ -> 0) in
  Alcotest.(check bool)
    "collapsed map caught" true
    (Check.varmap collapsed <> []);
  (* shift every variable outside the manager's allocated range *)
  let shifted = Varmap.remap vm ~man:(Varmap.man vm) ~map:(fun v -> v + 1000) in
  Alcotest.(check bool) "out-of-range map caught" true (Check.varmap shifted <> []);
  (* ensure converts findings into a Violation and counts the failure *)
  let before =
    Rfn_obs.Telemetry.counter_value
      (Rfn_obs.Telemetry.counter "check.invariant_failures")
  in
  (try
     Check.ensure ~what:"test" (Check.varmap stale);
     Alcotest.fail "expected Violation"
   with Check.Violation (what, findings) ->
     Alcotest.(check string) "what" "test" what;
     Alcotest.(check bool) "findings kept" true (findings <> []));
  let after =
    Rfn_obs.Telemetry.counter_value
      (Rfn_obs.Telemetry.counter "check.invariant_failures")
  in
  Alcotest.(check bool) "failure counted" true (after > before)

let test_cone_cache () =
  let _, view, vm = whole_vm () in
  let all = Bitset.to_list view.Sview.inside in
  Alcotest.(check int) "complete cache passes" 0
    (List.length (Check.cone_cache vm ~signals:all));
  (match all with
  | s :: rest ->
    Alcotest.(check bool)
      "missing cone caught" true
      (Check.cone_cache vm ~signals:rest <> []
      && List.exists
           (fun f -> f.Lint.signals = [ s ])
           (Check.cone_cache vm ~signals:rest))
  | [] -> Alcotest.fail "empty view");
  Alcotest.(check bool)
    "stale cone caught" true
    (Check.cone_cache vm ~signals:(Circuit.num_signals view.Sview.circuit :: all)
    <> [])

let test_trace_check () =
  let c, view, _ = whole_vm () in
  let r0 = c.Circuit.registers.(0) in
  let i0 = c.Circuit.inputs.(0) in
  let g =
    (* some gate signal: neither register nor input *)
    let rec find s =
      match Circuit.node c s with Circuit.Gate _ -> s | _ -> find (s + 1)
    in
    find 0
  in
  let ok =
    Trace.make
      ~states:[| Cube.of_list [ (r0, false) ]; Cube.of_list [ (r0, true) ] |]
      ~inputs:[| Cube.of_list [ (i0, true) ] |]
  in
  Alcotest.(check int) "well-formed trace" 0
    (List.length (Check.trace view ~depth:2 ok));
  Alcotest.(check bool)
    "depth mismatch caught" true
    (Check.trace view ~depth:3 ok <> []);
  let bad_state =
    Trace.make
      ~states:[| Cube.of_list [ (g, true) ]; Cube.empty |]
      ~inputs:[| Cube.empty |]
  in
  Alcotest.(check bool)
    "gate in state cube caught" true
    (Check.trace view ~depth:2 bad_state <> []);
  let bad_input =
    Trace.make
      ~states:[| Cube.empty; Cube.empty |]
      ~inputs:[| Cube.of_list [ (g, true) ] |]
  in
  Alcotest.(check bool)
    "gate in input cube caught" true
    (Check.trace view ~depth:2 bad_input <> []);
  (* ...unless the caller declares it pinnable (min-cut signals) *)
  Alcotest.(check int) "input_ok override" 0
    (List.length (Check.trace ~input_ok:(fun _ -> true) view ~depth:2 bad_input))

let test_cnf_check () =
  let c = Helpers.deep_bug_design ~width:2 in
  let bad = Circuit.output c "bad" in
  let view = Sview.whole c ~roots:[ bad ] in
  let unr = Cnf.create view in
  Cnf.extend unr ~frames:3;
  Alcotest.(check int) "unrolling is clean" 0 (List.length (Check.cnf unr));
  Alcotest.(check int) "valid pins" 0
    (List.length (Check.pins unr [ (0, bad, true); (2, bad, false) ]));
  Alcotest.(check bool)
    "frame out of range caught" true
    (Check.pins unr [ (3, bad, true) ] <> []);
  Alcotest.(check bool)
    "unencoded signal caught" true
    (Check.pins unr [ (0, Circuit.num_signals c, true) ] <> [])

(* Full CEGAR runs with phase-boundary checks on: outcomes unchanged,
   and the pass counter moves. *)
let test_verify_with_checks () =
  let config = { Rfn.default_config with Rfn.check_invariants = true } in
  let passes () =
    Rfn_obs.Telemetry.counter_value
      (Rfn_obs.Telemetry.counter "check.invariant_passes")
  in
  let before = passes () in
  let arb = Helpers.arbiter_design () in
  (match Rfn.verify ~config arb (Property.of_output arb "bad") with
  | Rfn.Proved, _ -> ()
  | _ -> Alcotest.fail "arbiter should prove with checks on");
  let deep = Helpers.deep_bug_design ~width:2 in
  (match Rfn.verify ~config deep (Property.of_output deep "bad") with
  | Rfn.Falsified _, _ -> ()
  | _ -> Alcotest.fail "deep bug should falsify with checks on");
  Alcotest.(check bool) "invariant checks ran" true (passes () > before)

let tests =
  [
    Alcotest.test_case "acceptance design" `Quick test_acceptance;
    Alcotest.test_case "vacuous + self-loop" `Quick test_vacuous_and_self_loop;
    Alcotest.test_case "free-init + duplicates" `Quick
      test_free_init_and_duplicates;
    Alcotest.test_case "onehot-violation flags vacuity" `Quick
      test_onehot_violation;
    Alcotest.test_case "equiv-reg flags redundant state" `Quick
      test_equiv_reg;
    Alcotest.test_case "golden: arbiter" `Quick test_golden_arbiter;
    Alcotest.test_case "golden: counter" `Quick test_golden_counter;
    Alcotest.test_case "golden: deep bug" `Quick test_golden_deep_bug;
    Alcotest.test_case "golden: fifo.bench" `Quick test_golden_fifo;
    Alcotest.test_case "--only selection" `Quick test_only_selects_passes;
    Alcotest.test_case "golden: zoo and committed netlists" `Quick
      test_golden_reports;
    Alcotest.test_case "one analysis per run" `Quick test_one_analysis_per_run;
    qcheck_no_errors;
    Alcotest.test_case "varmap: clean" `Quick test_varmap_clean;
    Alcotest.test_case "varmap: corrupted" `Quick test_varmap_corrupted;
    Alcotest.test_case "cone cache" `Quick test_cone_cache;
    Alcotest.test_case "trace shape" `Quick test_trace_check;
    Alcotest.test_case "cnf + pins" `Quick test_cnf_check;
    Alcotest.test_case "verify with RFN_CHECK" `Quick test_verify_with_checks;
  ]

let () = Alcotest.run "lint" [ ("lint", tests) ]
