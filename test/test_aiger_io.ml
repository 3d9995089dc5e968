(* AIGER front-end tests: golden parses, latch reset forms, symbol
   naming, line/byte-numbered error messages, ascii <-> binary
   round-trips (textual fixed point and a QCheck semantic
   differential), Netlist_io extension dispatch, and the committed
   example designs driven end to end through verify and lint. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Lint = Rfn_lint.Lint

(* ---- semantic equivalence oracle ------------------------------------ *)

(* Name-keyed simulation: AIGER serialisation renumbers signals, so two
   circuits are compared by driving equally-named inputs with the same
   pseudo-random values and comparing equally-named outputs, cycle by
   cycle from the declared initial states. *)
let sim_outputs c ~cycles ~seed =
  let state = Hashtbl.create 17 in
  Array.iter
    (fun r ->
      let init =
        match Circuit.node c r with
        | Circuit.Reg { init = `One; _ } -> true
        | _ -> false (* `Zero; `Free defaulted, see callers *)
      in
      Hashtbl.replace state (Circuit.name c r) init)
    c.Circuit.registers;
  let frames = ref [] in
  for cycle = 0 to cycles - 1 do
    let input s = Hashtbl.hash (seed, cycle, Circuit.name c s) land 1 = 1 in
    let st r = Hashtbl.find state (Circuit.name c r) in
    let vals = Circuit.eval c ~input ~state:st in
    frames :=
      List.map (fun (n, s) -> (n, vals.(s))) c.Circuit.outputs :: !frames;
    Array.iter
      (fun r ->
        match Circuit.node c r with
        | Circuit.Reg { next; _ } ->
          Hashtbl.replace state (Circuit.name c r) vals.(next)
        | _ -> assert false)
      c.Circuit.registers
  done;
  List.rev !frames

let check_equiv name c1 c2 =
  let sort = List.sort compare in
  List.iteri
    (fun cycle (f1, f2) ->
      Alcotest.(check (list (pair string bool)))
        (Printf.sprintf "%s: outputs agree at cycle %d" name cycle)
        (sort f1) (sort f2))
    (List.combine
       (sim_outputs c1 ~cycles:6 ~seed:42)
       (sim_outputs c2 ~cycles:6 ~seed:42))

(* ---- golden parse --------------------------------------------------- *)

let token_aag =
  "aag 5 1 2 0 2 1\n2\n4 8\n6 4\n10\n8 2 5\n10 4 6\ni0 req\nl0 q0\nl1 q1\n\
   b0 both_high\nc\ncomment text\n"

let test_parse_ascii () =
  let c = Aiger_io.parse token_aag in
  Alcotest.(check int) "inputs" 1 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "registers" 2 (Array.length c.Circuit.registers);
  Alcotest.(check string)
    "input named from symbol table" "req"
    (Circuit.name c c.Circuit.inputs.(0));
  Alcotest.(check string)
    "latch named from symbol table" "q0"
    (Circuit.name c c.Circuit.registers.(0));
  (* the bad-state property is an ordinary named output *)
  Alcotest.(check bool)
    "bad-state property declared as an output" true
    (List.mem_assoc "both_high" c.Circuit.outputs);
  (* both_high = q0 AND q1 *)
  let q0 = Circuit.find c "q0" and q1 = Circuit.find c "q1" in
  (match Circuit.node c (Circuit.output c "both_high") with
  | Circuit.Gate (Gate.And, fanins) ->
    Alcotest.(check (list int))
      "bad is the conjunction of the latches" [ q0; q1 ]
      (List.sort compare (Array.to_list fanins))
  | _ -> Alcotest.fail "bad output should be an AND gate");
  (* q1 next is q0 *)
  match Circuit.node c q1 with
  | Circuit.Reg { next; _ } ->
    Alcotest.(check int) "q1 shifts q0" q0 next
  | _ -> Alcotest.fail "q1 should be a register"

let test_fallback_names () =
  (* no symbol table: i<k>, l<k>, o<k>, b<k> *)
  let c = Aiger_io.parse "aag 2 1 1 1 0 1\n2\n4 2\n4\n2\n" in
  Alcotest.(check string) "input" "i0" (Circuit.name c c.Circuit.inputs.(0));
  Alcotest.(check string)
    "latch" "l0"
    (Circuit.name c c.Circuit.registers.(0));
  Alcotest.(check (list string))
    "output then bad" [ "b0"; "o0" ]
    (List.sort compare (List.map fst c.Circuit.outputs))

let test_latch_resets () =
  (* omitted, explicit 0, 1, own literal *)
  let c =
    Aiger_io.parse "aag 5 1 4 0 0 0\n2\n4 2\n6 2 0\n8 2 1\n10 2 10\n"
  in
  let init k =
    match Circuit.node c c.Circuit.registers.(k) with
    | Circuit.Reg { init; _ } -> init
    | _ -> assert false
  in
  Alcotest.(check bool) "omitted reset is zero" true (init 0 = `Zero);
  Alcotest.(check bool) "explicit 0 is zero" true (init 1 = `Zero);
  Alcotest.(check bool) "reset 1 is one" true (init 2 = `One);
  Alcotest.(check bool) "own literal is free" true (init 3 = `Free)

let test_constants_and_negation () =
  (* o0 = !i0, o1 = const true, o2 = const false *)
  let c = Aiger_io.parse "aag 1 1 0 3 0\n2\n3\n1\n0\n" in
  let node k = Circuit.node c (Circuit.output c (Printf.sprintf "o%d" k)) in
  (match node 0 with
  | Circuit.Gate (Gate.Not, _) -> ()
  | _ -> Alcotest.fail "negated literal should read back as a NOT");
  (match node 1 with
  | Circuit.Const true -> ()
  | _ -> Alcotest.fail "literal 1 should be constant true");
  (match node 2 with
  | Circuit.Const false -> ()
  | _ -> Alcotest.fail "literal 0 should be constant false");
  (* M only bounds the variable indices: a huge one costs nothing (it
     used to size an array and die with Out_of_memory) *)
  let big = Aiger_io.parse "aag 999999999999 1 0 1 0\n2\n3\n" in
  Alcotest.(check int) "unused variables allocate nothing" 2
    (Circuit.num_signals big)

(* ---- golden error messages ------------------------------------------ *)

let check_fails name text expected =
  match Aiger_io.parse text with
  | (_ : Circuit.t) -> Alcotest.fail (name ^ ": expected a parse error")
  | exception Failure msg -> Alcotest.(check string) name expected msg

let test_error_messages () =
  check_fails "bad magic" "bench 1 0 0 0 0\n"
    "Aiger_io: line 1: expected an AIGER header (aag/aig), got \
     \"bench 1 0 0 0 0\"";
  check_fails "short header" "aag 1 0\n"
    "Aiger_io: line 1: header \"aag 1 0\": expected M I L O A [B]";
  check_fails "constraint sections rejected" "aag 1 1 0 0 0 0 1\n2\n"
    "Aiger_io: line 1: invariant constraints, justice and fairness \
     properties are not supported";
  check_fails "M too small" "aag 1 1 1 0 0\n"
    "Aiger_io: line 1: header M = 1 < I + L + A = 2";
  check_fails "binary M must be exact" "aig 3 1 1 0 0\n"
    "Aiger_io: line 1: binary header requires M = I + L + A, got 3 <> 2";
  check_fails "implicit inputs past the limit" "aig 100000000 100000000 0 0 0"
    "Aiger_io: line 1: header I = 100000000 exceeds the limit of 1048576 \
     inputs";
  check_fails "wrong input literal" "aag 1 1 0 0 0\n4\n"
    "Aiger_io: line 2: input 0: expected literal 2, got 4";
  check_fails "bad latch reset" "aag 2 1 1 0 0\n2\n4 2 5\n"
    "Aiger_io: line 3: latch 0: reset must be 0, 1 or the latch literal 4, \
     got 5";
  check_fails "undefined variable" "aag 2 1 0 1 0\n2\n4\n"
    "Aiger_io: line 3: undefined variable 2";
  check_fails "negated AND lhs" "aag 2 1 0 0 1\n2\n5 2 2\n"
    "Aiger_io: line 3: AND 0: left-hand side 5 is negated";
  check_fails "missing section" "aag 2 1 1 0 0\n2\n"
    "Aiger_io: line 2: missing latch line";
  check_fails "input and latch share a symbol" "aag 2 1 1 0 0\n2\n4 2\ni0 x\nl0 x\n"
    "Aiger_io: line 5: duplicate signal name \"x\"";
  check_fails "symbol clashes with a fallback name" "aag 2 1 1 0 0\n2\n4 2\ni0 l0\n"
    "Aiger_io: duplicate signal name \"l0\"";
  check_fails "not a number" "aag x 0 0 0 0\n"
    "Aiger_io: line 1: expected a natural number, got \"x\""

(* Lowering a malformed unary gate must raise an [Invalid_argument]
   naming the gate (a bare [List.hd] here used to escape as
   [Failure "hd"], telling the user nothing). *)
let test_fanin1_messages () =
  Alcotest.(check int) "well-formed unary gate passes through" 42
    (Aiger_io.fanin1 ~gate:"n1" Gate.Not [ 42 ]);
  (try
     ignore (Aiger_io.fanin1 ~gate:"inv_q" Gate.Not []);
     Alcotest.fail "an empty fanin list must raise"
   with Invalid_argument msg ->
     Alcotest.(check string) "empty fanin list"
       "Aiger_io: NOT gate \"inv_q\" has 0 fanins (expected 1)" msg);
  try
    ignore (Aiger_io.fanin1 ~gate:"buf_x" Gate.Buf [ 1; 2; 3 ]);
    Alcotest.fail "excess fanins must raise"
  with Invalid_argument msg ->
    Alcotest.(check string) "excess fanins"
      "Aiger_io: BUF gate \"buf_x\" has 3 fanins (expected 1)" msg

let test_cycle_error () =
  match Aiger_io.parse "aag 3 1 0 1 2\n2\n6\n4 6 2\n6 4 2\n" with
  | (_ : Circuit.t) -> Alcotest.fail "expected a cycle error"
  | exception Failure msg ->
    let contains needle =
      let nh = String.length needle and mh = String.length msg in
      let rec go i = i + nh <= mh && (String.sub msg i nh = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "cycle path named (%s)" msg)
      true
      (contains "combinational cycle through AND variables:"
      && contains " -> ")

let test_binary_truncated () =
  (* one AND gate, but the delta varint never terminates *)
  let text = "aig 1 0 0 0 1\n\x80" in
  match Aiger_io.parse text with
  | (_ : Circuit.t) -> Alcotest.fail "expected a byte error"
  | exception Failure msg ->
    Alcotest.(check string) "byte-numbered EOF"
      "Aiger_io: byte 15: unexpected end of file in AND section" msg

(* ---- round-trips ---------------------------------------------------- *)

let test_ascii_binary_roundtrip () =
  let c = Aiger_io.parse token_aag in
  (* once lowered to an AIG, write -> parse -> write is a fixed point,
     in both formats, and the two formats describe the same graph *)
  let a1 = Aiger_io.to_string ~bads:[ "both_high" ] c in
  let c2 = Aiger_io.parse a1 in
  let a2 = Aiger_io.to_string ~bads:[ "both_high" ] c2 in
  Alcotest.(check string) "ascii fixed point" a1 a2;
  let b1 = Aiger_io.to_string ~binary:true ~bads:[ "both_high" ] c in
  let c3 = Aiger_io.parse b1 in
  Alcotest.(check string)
    "binary decodes to the same graph" a1
    (Aiger_io.to_string ~bads:[ "both_high" ] c3);
  check_equiv "ascii round-trip" c c2;
  check_equiv "binary round-trip" c c3

let roundtrip_prop binary (rc : Helpers.rand_circuit) =
  let c = rc.Helpers.circuit in
  let text = Aiger_io.to_string ~binary c in
  let c2 = Aiger_io.parse text in
  check_equiv (if binary then "binary" else "ascii") c c2;
  true

let qcheck_roundtrip binary =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:
         (Printf.sprintf "random circuit -> %s AIGER -> parse is equivalent"
            (if binary then "binary" else "ascii"))
       (Helpers.arbitrary_circuit ~nins:4 ~nregs:3 ~ngates:14)
       (roundtrip_prop binary))

let test_write_file_dispatch () =
  let c = Aiger_io.parse token_aag in
  let aig = Filename.temp_file "rfn_aiger" ".aig" in
  let aag = Filename.temp_file "rfn_aiger" ".aag" in
  Aiger_io.write_file aig c;
  Aiger_io.write_file aag c;
  let magic path =
    let ic = open_in_bin path in
    let m = really_input_string ic 3 in
    close_in ic;
    m
  in
  Alcotest.(check string) ".aig writes binary" "aig" (magic aig);
  Alcotest.(check string) ".aag writes ascii" "aag" (magic aag);
  check_equiv "binary file" c (Aiger_io.parse_file aig);
  check_equiv "ascii file" c (Aiger_io.parse_file aag);
  Sys.remove aig;
  Sys.remove aag

(* ---- Netlist_io dispatch -------------------------------------------- *)

let test_netlist_dispatch () =
  let c = Aiger_io.parse token_aag in
  let bench = Filename.temp_file "rfn_netlist" ".bench" in
  let aag = Filename.temp_file "rfn_netlist" ".aag" in
  Netlist_io.save bench c;
  Netlist_io.save ~bads:[ "both_high" ] aag c;
  check_equiv "bench dispatch" c (Netlist_io.load bench);
  check_equiv "aag dispatch" c (Netlist_io.load aag);
  check_equiv "aag magic" c (Netlist_io.parse token_aag);
  check_equiv "bench text" c (Netlist_io.parse (Bench_io.to_string c));
  Sys.remove bench;
  Sys.remove aag

(* ---- committed examples end to end ---------------------------------- *)

let quick_config =
  { Rfn.default_config with Rfn.max_iterations = 20; mc_max_steps = 100 }

(* dune runtest runs from _build/default/test; dune exec from the root *)
let example_path name =
  List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]

let example_end_to_end name () =
  let c = Netlist_io.load (example_path name) in
  let p = Property.of_output c "both_high" in
  (match Rfn.verify ~config:quick_config c p with
  | Rfn.Proved, _ -> ()
  | _ -> Alcotest.fail (name ^ ": token hand-off should be proved safe"));
  let report = Lint.run ~props:[ p ] c in
  (* the only expected finding: "both_high" is a mutex-violation
     watchdog, and the invariant-inference passes prove the mutex —
     the golden onehot-violation report on a committed design *)
  (match
     List.filter
       (fun f -> f.Lint.severity = Lint.Error)
       report.Lint.findings
   with
  | [ f ] ->
    Alcotest.(check string)
      (name ^ ": the one error is the vacuity finding")
      "onehot-violation" f.Lint.pass;
    Alcotest.(check string)
      (name ^ ": golden vacuity message")
      "property \"both_high\" can only fire by violating a proven \
       register-group invariant (mutex {q0, q1}): no reachable state \
       triggers it"
      f.Lint.message
  | fs ->
    Alcotest.failf "%s: expected exactly the vacuity finding, got %d errors"
      name (List.length fs));
  Alcotest.(check int) (name ^ ": no warnings") 0
    (List.length
       (List.filter (fun f -> f.Lint.severity = Lint.Warning) report.findings))

let tests =
  [
    Alcotest.test_case "golden ascii parse" `Quick test_parse_ascii;
    Alcotest.test_case "fallback symbol names" `Quick test_fallback_names;
    Alcotest.test_case "latch reset forms" `Quick test_latch_resets;
    Alcotest.test_case "constants and negation" `Quick
      test_constants_and_negation;
    Alcotest.test_case "golden error messages" `Quick test_error_messages;
    Alcotest.test_case "fanin1 names the gate" `Quick test_fanin1_messages;
    Alcotest.test_case "combinational cycle error" `Quick test_cycle_error;
    Alcotest.test_case "binary truncation error" `Quick test_binary_truncated;
    Alcotest.test_case "ascii/binary round-trip" `Quick
      test_ascii_binary_roundtrip;
    qcheck_roundtrip false;
    qcheck_roundtrip true;
    Alcotest.test_case "write_file extension dispatch" `Quick
      test_write_file_dispatch;
    Alcotest.test_case "Netlist_io dispatch" `Quick test_netlist_dispatch;
    Alcotest.test_case "example .aag verifies and lints" `Quick
      (example_end_to_end "passing_token.aag");
    Alcotest.test_case "example .aig verifies and lints" `Quick
      (example_end_to_end "passing_token.aig");
  ]

let () = Alcotest.run "aiger_io" [ ("aiger_io", tests) ]
