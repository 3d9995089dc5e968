(* The netlist optimizer, the BMC baseline, and reordering-by-rebuild. *)

open Rfn_circuit
module Concretize = Rfn_core.Concretize
module Bdd = Rfn_bdd.Bdd
module Reorder = Rfn_bdd.Reorder
module Sim3v = Rfn_sim3v.Sim3v
module B = Circuit.Builder

(* ---- Opt.simplify --------------------------------------------------- *)

(* behavioural equivalence under a few cycles of deterministic stimulus *)
let equivalent c1 c2 ~out1 ~out2 ~cycles =
  let run c out =
    let st =
      ref (fun r ->
          Sim3v.of_bool (Circuit.initial_state c ~free:(fun _ -> false) r))
    in
    let acc = ref [] in
    let view = Sview.whole c ~roots:[ out ] in
    for cycle = 0 to cycles - 1 do
      let free s =
        Sim3v.of_bool (Hashtbl.hash (Circuit.name c s, cycle) land 1 = 1)
      in
      let values, next = Sim3v.step view ~free ~state:!st in
      acc := values.(out) :: !acc;
      st := next
    done;
    List.rev !acc
  in
  run c1 out1 = run c2 out2

let opt_preserves_behaviour =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"simplify preserves behaviour"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:14)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let c', lookup, report = Opt.simplify c in
         let out' =
           match lookup rc.Helpers.out with
           | Some s -> s
           | None -> QCheck.Test.fail_report "output swept"
         in
         report.Opt.gates_after <= report.Opt.gates_before
         && report.Opt.registers_after <= report.Opt.registers_before
         && equivalent c c' ~out1:rc.Helpers.out ~out2:out' ~cycles:8))

(* The constant-register fixpoint against explicit reachability: a
   register it keeps holds its initial value in every reachable state,
   and a signal it gives a concrete value takes that value in every
   reachable state under every input. *)
let constant_registers_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"constant_registers holds on every reachable state"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:5 ~ngates:14)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let stuck, values = Opt.constant_registers c in
         let regs = c.Circuit.registers in
         let reg_bit svec r =
           let rec idx i = if regs.(i) = r then i else idx (i + 1) in
           svec land (1 lsl idx 0) <> 0
         in
         let init r = Circuit.initial_state c ~free:(fun _ -> false) r in
         let concrete =
           List.filter_map
             (fun s ->
               match values.(s) with
               | Gate.V0 -> Some (s, false)
               | Gate.V1 -> Some (s, true)
               | Gate.VX -> None)
             (List.init (Circuit.num_signals c) Fun.id)
         in
         Hashtbl.fold
           (fun svec () ok ->
             ok
             && List.for_all
                  (fun r -> reg_bit svec r = init r)
                  (Bitset.to_list stuck)
             && List.for_all
                  (fun ivec ->
                    List.for_all
                      (fun (s, v) -> Helpers.eval_with c ~ivec ~svec s = v)
                      concrete)
                  (List.init (1 lsl Array.length c.Circuit.inputs) Fun.id))
           (Helpers.explicit_reachable c)
           true))

let test_opt_folds_constants () =
  let b = B.create () in
  let x = B.input b "x" in
  let t = B.const b true and f = B.const b false in
  let g1 = B.gate b Gate.And [| x; t |] in
  (* = x *)
  let g2 = B.gate b Gate.Or [| g1; f |] in
  (* = x *)
  let g3 = B.gate b Gate.Xor [| g2; g2; x |] in
  (* = x *)
  let g4 = B.gate b Gate.Mux [| f; g3; t |] in
  (* = g3 = x *)
  B.output b "y" g4;
  let c = B.finalize b in
  let c', lookup, _ = Opt.simplify c in
  Alcotest.(check int) "everything folds to the input" 0
    (Circuit.num_gates c');
  let y = Circuit.output c' "y" in
  Alcotest.(check bool) "output is the input" true (Circuit.node c' y = Circuit.Input);
  Alcotest.(check (option int)) "map tracks the fold" (Some y)
    (lookup g4)

let test_opt_stuck_register () =
  let b = B.create () in
  let x = B.input b "x" in
  (* r holds 0 forever: r' = r & x *)
  let r = B.reg b "r" in
  B.connect b r (B.and2 b r x);
  (* s toggles: genuinely alive *)
  let s = B.reg b "s" in
  B.connect b s (B.not_ b s);
  B.output b "both" (B.or2 b r s);
  let c = B.finalize b in
  let c', _, report = Opt.simplify c in
  Alcotest.(check int) "stuck register removed" 1
    (Circuit.num_registers c');
  Alcotest.(check bool) "fold counted" true (report.Opt.constants_folded >= 1);
  Alcotest.(check bool) "behaviour: both = s" true
    (equivalent c c' ~out1:(Circuit.output c "both")
       ~out2:(Circuit.output c' "both") ~cycles:6)

let test_opt_sweeps_dead_logic () =
  let b = B.create () in
  let x = B.input b "x" in
  let dead = B.reg_of b "dead" (B.not_ b x) in
  ignore dead;
  B.output b "y" (B.not_ b x);
  let c = B.finalize b in
  let c', _, _ = Opt.simplify c in
  Alcotest.(check int) "unobservable register swept" 0
    (Circuit.num_registers c')

let test_opt_verification_agrees () =
  (* RFN verdicts must be identical on the design and its simplified
     form *)
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let c = fifo.Rfn_designs.Fifo.circuit in
  let c', lookup, _ = Opt.simplify c in
  let bad = Option.get (lookup fifo.psh_full.Property.bad) in
  match
    Rfn_core.Rfn.verify c' (Property.make ~name:"psh_full" ~bad)
  with
  | Rfn_core.Rfn.Proved, _ -> ()
  | _ -> Alcotest.fail "psh_full no longer proved after simplify"

(* ---- ATPG falsify ----------------------------------------------------- *)

let test_bmc_finds_shallow_bug () =
  let c = Helpers.counter_design ~width:3 ~limit:4 in
  let bad = Circuit.output c "at_limit" in
  match Concretize.falsify c ~bad ~max_depth:10 with
  | Concretize.Found t, _ ->
    Alcotest.(check int) "shortest counterexample" 5 (Trace.length t);
    Alcotest.(check bool) "replays" true (Sim3v.replay_concrete c t ~bad)
  | _ -> Alcotest.fail "expected Found"

let test_bmc_exhausts () =
  let c = Helpers.arbiter_design () in
  let bad = Circuit.output c "bad" in
  match Concretize.falsify c ~bad ~max_depth:6 with
  | Concretize.Not_found_here, _ -> ()
  | _ -> Alcotest.fail "expected Exhausted"

let bmc_agrees_with_rfn =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"bmc within bound agrees with rfn"
       (Helpers.arbitrary_circuit ~nins:2 ~nregs:3 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let bad = rc.Helpers.out in
         let bmc, _ = Concretize.falsify c ~bad ~max_depth:10 in
         match (bmc, Rfn_core.Rfn.verify c (Property.make ~name:"p" ~bad)) with
         | Concretize.Found _, (Rfn_core.Rfn.Falsified _, _) -> true
         | Concretize.Not_found_here, (Rfn_core.Rfn.Proved, _) -> true
         (* deep bugs beyond the BMC bound, or aborts: no claim *)
         | Concretize.Not_found_here, (Rfn_core.Rfn.Falsified t, _) ->
           Trace.length t > 10
         | Concretize.Gave_up _, _ | _, (Rfn_core.Rfn.Aborted _, _) ->
           QCheck.assume_fail ()
         | Concretize.Found _, (Rfn_core.Rfn.Proved, _) -> false))

(* ---- Reorder -------------------------------------------------------- *)

let reorder_preserves_semantics =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"reorder preserves semantics"
       (Helpers.arbitrary_circuit ~nins:4 ~nregs:2 ~ngates:14)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Rfn_mc.Varmap.make view in
         let man = Rfn_mc.Varmap.man vm in
         let f = (Rfn_mc.Symbolic.functions vm) rc.Helpers.out in
         let g = Bdd.dnot man f in
         let dst, roots', map = Reorder.sift man ~roots:[ f; g ] in
         match roots' with
         | [ f'; g' ] ->
           let ok = ref true in
           for v = 0 to (1 lsl min 6 (Bdd.nvars man)) - 1 do
             let env_old i = v land (1 lsl i) <> 0 in
             let env_new i =
               (* variable i in dst corresponds to old variable with
                  map(old) = i *)
               let rec find o =
                 if o >= Bdd.nvars man then false
                 else if map o = i then env_old o
                 else find (o + 1)
               in
               find 0
             in
             if Bdd.eval dst f' env_new <> Bdd.eval man f env_old then
               ok := false;
             if Bdd.eval dst g' env_new <> Bdd.eval man g env_old then
               ok := false
           done;
           !ok
         | _ -> false))

let test_sift_shrinks_bad_order () =
  (* f = (x0 & x6) | (x1 & x7) | ... — exponential under the identity
     order, linear once the pairs sit together; greedy sifting finds
     the interleaving *)
  let n = 12 in
  let man = Bdd.create ~nvars:n () in
  let f =
    List.fold_left
      (fun acc i ->
        Bdd.dor man acc
          (Bdd.dand man (Bdd.var man i) (Bdd.var man (i + (n / 2)))))
      (Bdd.zero man)
      (List.init (n / 2) (fun i -> i))
  in
  let before = Reorder.total_size man [ f ] in
  let dst, roots', map = Reorder.sift ~max_passes:12 man ~roots:[ f ] in
  let after = Reorder.total_size dst roots' in
  Alcotest.(check bool)
    (Printf.sprintf "size improved a lot (%d -> %d)" before after)
    true
    (after * 2 < before);
  (* and semantics held *)
  match roots' with
  | [ f' ] ->
    for v = 0 to 255 do
      let env_old i = v land (1 lsl (i mod 8)) <> 0 in
      let env_new lvl =
        let rec find o =
          if o >= n then false else if map o = lvl then env_old o else find (o + 1)
        in
        find 0
      in
      Alcotest.(check bool) "same function" (Bdd.eval man f env_old)
        (Bdd.eval dst f' env_new)
    done
  | _ -> Alcotest.fail "one root expected"

let tests =
  [
    opt_preserves_behaviour;
    constant_registers_sound;
    Alcotest.test_case "constants fold through" `Quick test_opt_folds_constants;
    Alcotest.test_case "stuck registers removed" `Quick test_opt_stuck_register;
    Alcotest.test_case "dead logic swept" `Quick test_opt_sweeps_dead_logic;
    Alcotest.test_case "verification agrees after simplify" `Quick
      test_opt_verification_agrees;
    Alcotest.test_case "bmc finds a shallow bug" `Quick
      test_bmc_finds_shallow_bug;
    Alcotest.test_case "bmc exhausts clean designs" `Quick test_bmc_exhausts;
    bmc_agrees_with_rfn;
    reorder_preserves_semantics;
    Alcotest.test_case "sifting shrinks a bad order" `Quick
      test_sift_shrinks_bad_order;
  ]

let () = Alcotest.run "opt-bmc-reorder" [ ("opt-bmc-reorder", tests) ]
