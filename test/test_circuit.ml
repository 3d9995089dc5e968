(* Builder semantics, topological order, fanouts, evaluation, and the
   word-level Rtl helpers (checked against integer arithmetic). *)

open Rfn_circuit
module B = Circuit.Builder

let test_builder_basics () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" in
  let g = B.and2 b x y in
  let r = B.reg_of b "r" g in
  B.output b "out" r;
  let c = B.finalize b in
  Alcotest.(check int) "inputs" 2 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "registers" 1 (Circuit.num_registers c);
  Alcotest.(check int) "gates" 1 (Circuit.num_gates c);
  Alcotest.(check int) "find by name" r (Circuit.find c "r");
  Alcotest.(check int) "output lookup" r (Circuit.output c "out");
  Alcotest.(check bool) "is_reg" true (Circuit.is_reg c r);
  Alcotest.(check bool) "is_input" true (Circuit.node c x = Circuit.Input)

let test_hash_consing () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" in
  let g1 = B.and2 b x y and g2 = B.and2 b x y in
  Alcotest.(check int) "structurally equal gates shared" g1 g2;
  let g3 = B.and2 b y x in
  Alcotest.(check bool) "operand order distinguishes" true (g1 <> g3);
  let n1 = B.not_ b x in
  Alcotest.(check int) "double negation collapses" x (B.not_ b n1);
  let c1 = B.const b true and c2 = B.const b true in
  Alcotest.(check int) "constants interned" c1 c2

let test_simplifications () =
  let b = B.create () in
  let x = B.input b "x" in
  Alcotest.(check int) "unary and collapses" x (B.gate b Gate.And [| x |]);
  Alcotest.(check int) "unary or collapses" x (B.gate b Gate.Or [| x |]);
  Alcotest.(check int) "buf collapses" x (B.gate b Gate.Buf [| x |]);
  let t = B.const b true in
  Alcotest.(check int) "not of const folds" (B.const b false) (B.not_ b t)

let test_duplicate_name_rejected () =
  let b = B.create () in
  let x = B.input b "x" in
  (try
     ignore (B.input b "x");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* a generated gate name skips one a signal already holds *)
  let y = B.input b "and_1" in
  ignore (B.and2 b x y)

let test_unconnected_register_rejected () =
  let b = B.create () in
  ignore (B.reg b "r");
  try
    ignore (B.finalize b);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_combinational_cycle_rejected () =
  let b = B.create () in
  let x = B.input b "x" in
  (* Build a cycle through named gates (hash-consing can't collapse). *)
  let g1 = B.gate b ~name:"g1" Gate.And [| x; x |] in
  let g2 = B.gate b ~name:"g2" Gate.Or [| g1; x |] in
  (* Rewire by constructing a register loop is fine... combinational
     cycles need fanin patching, which the builder API prevents; so we
     check the register path is accepted instead. *)
  let r = B.reg_of b "r" g2 in
  ignore r;
  ignore (B.finalize b)

let test_topological_order () =
  let b = B.create () in
  let x = B.input b "x" in
  let r = B.reg b "r" in
  let g1 = B.xor2 b x r in
  let g2 = B.not_ b g1 in
  B.connect b r g2;
  let c = B.finalize b in
  let pos = Array.make (Circuit.num_signals c) 0 in
  Array.iteri (fun i s -> pos.(s) <- i) c.Circuit.topo;
  Array.iteri
    (fun s node ->
      match node with
      | Circuit.Gate (_, fanins) ->
        Array.iter
          (fun f ->
            Alcotest.(check bool) "fanin before gate" true (pos.(f) < pos.(s)))
          fanins
      | _ -> ())
    c.Circuit.nodes;
  Alcotest.(check int) "level of g2" 2 c.Circuit.level.(g2)

let test_fanouts () =
  let b = B.create () in
  let x = B.input b "x" in
  let g1 = B.not_ b x in
  let g2 = B.gate b ~name:"g2" Gate.And [| x; g1 |] in
  let r = B.reg_of b "r" x in
  ignore g2;
  ignore r;
  let c = B.finalize b in
  let fx = Array.to_list c.Circuit.fanouts.(x) |> List.sort compare in
  Alcotest.(check (list int)) "x read by not, and, reg"
    (List.sort compare [ g1; g2; r ])
    fx

let test_eval_step () =
  let b = B.create () in
  let x = B.input b "x" in
  let r = B.reg b ~init:`One "r" in
  let g = B.xor2 b x r in
  B.connect b r g;
  B.output b "g" g;
  let c = B.finalize b in
  (* r starts 1; x=1 -> g = 0; next r = 0 *)
  let values, next = Circuit.step c ~input:(fun _ -> true) ~state:(fun _ -> true) in
  Alcotest.(check bool) "g = x xor r" false values.(g);
  Alcotest.(check bool) "next r" false (next r);
  Alcotest.(check bool) "initial_state one" true
    (Circuit.initial_state c ~free:(fun _ -> false) r)

let test_all_gate_kinds_eval () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" and z = B.input b "z" in
  let gates =
    [
      (B.gate b Gate.And [| x; y; z |], fun a bb cc -> a && bb && cc);
      (B.gate b Gate.Or [| x; y; z |], fun a bb cc -> a || bb || cc);
      (B.gate b Gate.Nand [| x; y; z |], fun a bb cc -> not (a && bb && cc));
      (B.gate b Gate.Nor [| x; y; z |], fun a bb cc -> not (a || bb || cc));
      (B.gate b Gate.Xor [| x; y; z |], fun a bb cc -> a <> bb <> cc);
      ( B.gate b Gate.Xnor [| x; y; z |],
        fun a bb cc -> not (a <> bb <> cc) );
      (B.gate b Gate.Mux [| x; y; z |], fun s d0 d1 -> if s then d1 else d0);
    ]
  in
  let c = B.finalize b in
  for v = 0 to 7 do
    let bit i = v land (1 lsl i) <> 0 in
    let input s = if s = x then bit 0 else if s = y then bit 1 else bit 2 in
    let values = Circuit.eval c ~input ~state:(fun _ -> false) in
    List.iter
      (fun (g, expect) ->
        Alcotest.(check bool)
          (Printf.sprintf "gate %d input %d" g v)
          (expect (bit 0) (bit 1) (bit 2))
          values.(g))
      gates
  done

(* ---- Rtl helpers checked against machine integers ----------------- *)

let eval_word values w =
  Array.to_list w
  |> List.mapi (fun i s -> if values.(s) then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let rtl_arith_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"rtl arithmetic matches integers"
       QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
       (fun (av, bv, kv) ->
         let b = B.create () in
         let x = Rtl.input b "x" 8 and y = Rtl.input b "y" 8 in
         let sum = Rtl.add b x y in
         let dif = Rtl.sub b x y in
         let inc = Rtl.incr b x in
         let dec = Rtl.decr b x in
         let eq = Rtl.eq b x y in
         let eqc = Rtl.eq_const b x kv in
         let lt = Rtl.lt b x y in
         let gec = Rtl.ge_const b x kv in
         let zero = Rtl.is_zero b x in
         let anyb = Rtl.any b x and allb = Rtl.all b x in
         let c = B.finalize b in
         let input s =
           match Circuit.node c s with
           | Circuit.Input ->
             let name = Circuit.name c s in
             let idx = int_of_string (String.sub name 2 (String.length name - 2)) in
             if name.[0] = 'x' then av land (1 lsl idx) <> 0
             else bv land (1 lsl idx) <> 0
           | _ -> false
         in
         let values = Circuit.eval c ~input ~state:(fun _ -> false) in
         eval_word values sum = (av + bv) land 255
         && eval_word values dif = (av - bv) land 255
         && eval_word values inc = (av + 1) land 255
         && eval_word values dec = (av - 1) land 255
         && values.(eq) = (av = bv)
         && values.(eqc) = (av = kv)
         && values.(lt) = (av < bv)
         && values.(gec) = (av >= kv)
         && values.(zero) = (av = 0)
         && values.(anyb) = (av <> 0)
         && values.(allb) = (av = 255)))

let test_rtl_counter () =
  let b = B.create () in
  let en = B.input b "en" and clr = B.input b "clr" in
  let q = Rtl.counter b ~clear:clr ~name:"q" ~width:4 ~enable:en () in
  let c = B.finalize b in
  let state = ref (fun _ -> false) in
  let run en_v clr_v =
    let _, next =
      Circuit.step c
        ~input:(fun s -> if s = en then en_v else clr_v)
        ~state:!state
    in
    state := next
  in
  run true false;
  run true false;
  run false false;
  let values = Circuit.eval c ~input:(fun _ -> false) ~state:!state in
  Alcotest.(check int) "counted to 2" 2 (eval_word values q);
  run true true;
  let values = Circuit.eval c ~input:(fun _ -> false) ~state:!state in
  Alcotest.(check int) "clear wins" 0 (eval_word values q)

let test_rtl_shift_reg () =
  let b = B.create () in
  let din = B.input b "din" and en = B.input b "en" in
  let q = Rtl.shift_reg b ~name:"s" ~length:3 ~din ~enable:en () in
  let c = B.finalize b in
  let state = ref (fun _ -> false) in
  let run din_v =
    let _, next =
      Circuit.step c ~input:(fun s -> if s = din then din_v else true)
        ~state:!state
    in
    state := next
  in
  run true;
  run false;
  run true;
  let v = Array.map (fun s -> !state s) q in
  Alcotest.(check (array bool)) "newest first" [| true; false; true |] v

(* Regression: [Circuit.output] on an unknown name used to leak a bare
   [Not_found] from [List.assoc]; it must name the missing output. *)
let test_output_lookup () =
  let b = B.create () in
  let x = B.input b "x" in
  B.output b "good" x;
  let c = B.finalize b in
  Alcotest.(check int) "known output" x (Circuit.output c "good");
  match Circuit.output c "nope" with
  | (_ : int) -> Alcotest.fail "unknown output should raise"
  | exception Invalid_argument msg ->
    Alcotest.(check string)
      "the error names the output" "Circuit.output: no output \"nope\"" msg

let tests =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "structural hashing" `Quick test_hash_consing;
    Alcotest.test_case "trivial simplifications" `Quick test_simplifications;
    Alcotest.test_case "duplicate names rejected" `Quick
      test_duplicate_name_rejected;
    Alcotest.test_case "unconnected register rejected" `Quick
      test_unconnected_register_rejected;
    Alcotest.test_case "register feedback accepted" `Quick
      test_combinational_cycle_rejected;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "fanout map" `Quick test_fanouts;
    Alcotest.test_case "eval and step" `Quick test_eval_step;
    Alcotest.test_case "output lookup" `Quick test_output_lookup;
    Alcotest.test_case "all gate kinds" `Quick test_all_gate_kinds_eval;
    rtl_arith_test;
    Alcotest.test_case "rtl counter" `Quick test_rtl_counter;
    Alcotest.test_case "rtl shift register" `Quick test_rtl_shift_reg;
  ]

let () = Alcotest.run "circuit" [ ("circuit", tests) ]
