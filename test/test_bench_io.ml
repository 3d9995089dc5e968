open Rfn_circuit

let sample =
  {|
# a tiny sequential design
INPUT(a)
INPUT(b)
OUTPUT(f)
f = AND(a, nb)
nb = NOT(b)
r = DFF(f)       # register, init 0
r1 = DFF1(r)
rx = DFFX(r1)
k0 = CONST0
g = MUX(a, k0, rx)
OUTPUT(g)
|}

let test_parse_sample () =
  let c = Bench_io.parse sample in
  Alcotest.(check int) "inputs" 2 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "registers" 3 (Circuit.num_registers c);
  let r = Circuit.find c "r" in
  (match Circuit.node c r with
  | Circuit.Reg { init = `Zero; next } ->
    Alcotest.(check int) "r next is f" (Circuit.find c "f") next
  | _ -> Alcotest.fail "r should be a DFF");
  (match Circuit.node c (Circuit.find c "r1") with
  | Circuit.Reg { init = `One; _ } -> ()
  | _ -> Alcotest.fail "r1 should init to 1");
  match Circuit.node c (Circuit.find c "rx") with
  | Circuit.Reg { init = `Free; _ } -> ()
  | _ -> Alcotest.fail "rx should have a free init"

let test_forward_references () =
  (* g uses h before h is defined *)
  let c = Bench_io.parse "INPUT(a)\ng = NOT(h)\nh = NOT(a)\nOUTPUT(g)\n" in
  let values =
    Circuit.eval c ~input:(fun _ -> true) ~state:(fun _ -> false)
  in
  Alcotest.(check bool) "g = not (not a)" true values.(Circuit.find c "g")

let expect_failure name text =
  Alcotest.test_case name `Quick (fun () ->
      try
        ignore (Bench_io.parse text);
        Alcotest.fail "expected parse failure"
      with Failure _ -> ())

let expect_message name text fragments =
  Alcotest.test_case name `Quick (fun () ->
      try
        ignore (Bench_io.parse text);
        Alcotest.fail "expected parse failure"
      with Failure msg ->
        List.iter
          (fun frag ->
            let contains =
              let fl = String.length frag and ml = String.length msg in
              let rec at i =
                i + fl <= ml && (String.sub msg i fl = frag || at (i + 1))
              in
              at 0
            in
            if not contains then
              Alcotest.failf "message %S should mention %S" msg frag)
          fragments)

(* the error names every gate on the cycle, in read order, with the
   line of the cycle's entry point *)
let cycle_3_gates =
  expect_message "3-gate cycle path"
    "g1 = AND(g2, i)\ng2 = OR(g3, i)\ng3 = NOT(g1)\nINPUT(i)\nOUTPUT(g1)\n"
    [ "line 1"; "combinational cycle: g1 -> g2 -> g3 -> g1" ]

let undefined_signal_line =
  expect_message "undefined signal cites referencing line"
    "INPUT(a)\nf = NOT(a)\ng = NOT(zz)\nOUTPUT(g)\n"
    [ "line 3"; "undefined signal \"zz\"" ]

let test_roundtrip () =
  let c = Bench_io.parse sample in
  let printed = Bench_io.to_string c in
  let c2 = Bench_io.parse printed in
  Alcotest.(check int) "same signal count" (Circuit.num_signals c)
    (Circuit.num_signals c2);
  (* behaviour preserved: compare a few steps of simulation *)
  for v = 0 to 3 do
    let input c' s = v land (1 lsl (if Circuit.name c' s = "a" then 0 else 1)) <> 0 in
    let va = Circuit.eval c ~input:(input c) ~state:(fun _ -> false) in
    let vb = Circuit.eval c2 ~input:(input c2) ~state:(fun _ -> false) in
    Alcotest.(check bool) "f agrees"
      va.(Circuit.output c "f")
      vb.(Circuit.output c2 "f")
  done

let roundtrip_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"print/parse roundtrip on random circuits"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:3 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let c2 = Bench_io.parse (Bench_io.to_string c) in
         (* compare reachable behaviour of the distinguished output *)
         let out2 = Circuit.output c2 "out" in
         let steps = 5 in
         let rec sim c' out st cycle acc =
           if cycle >= steps then List.rev acc
           else begin
             let input s =
               (* deterministic pseudo-random input per (name, cycle) *)
               (Hashtbl.hash (Circuit.name c' s, cycle) land 1) = 1
             in
             let values, next = Circuit.step c' ~input ~state:st in
             sim c' out (fun r -> next r) (cycle + 1) (values.(out) :: acc)
           end
         in
         let init c' r =
           match Circuit.node c' r with
           | Circuit.Reg { init = `One; _ } -> true
           | _ -> false
         in
         sim c rc.Helpers.out (init c) 0 []
         = sim c2 out2 (init c2) 0 []))

let tests =
  [
    Alcotest.test_case "parse sample" `Quick test_parse_sample;
    Alcotest.test_case "forward references" `Quick test_forward_references;
    Alcotest.test_case "roundtrip sample" `Quick test_roundtrip;
    roundtrip_random;
    expect_failure "unknown operator" "INPUT(a)\nf = FROB(a)\n";
    expect_failure "undefined signal" "f = NOT(nonexistent)\nOUTPUT(f)\n";
    expect_failure "redefinition" "INPUT(a)\nf = NOT(a)\nf = BUF(a)\n";
    expect_failure "combinational cycle" "f = NOT(g)\ng = NOT(f)\n";
    cycle_3_gates;
    undefined_signal_line;
    expect_failure "dff arity" "INPUT(a)\nr = DFF(a, a)\n";
    expect_failure "undefined output" "INPUT(a)\nOUTPUT(zz)\n";
    expect_failure "input redefined" "INPUT(a)\na = CONST0\n";
    expect_failure "malformed line" "INPUT(a)\nthis is not a statement\n";
  ]

let () = Alcotest.run "bench_io" [ ("bench_io", tests) ]
