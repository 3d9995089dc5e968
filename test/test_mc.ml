(* The symbolic model checker: variable maps, cone construction, image
   computation and reachability, validated against brute force. *)

open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Reach = Rfn_mc.Reach
module Force = Rfn_bdd.Force

let test_varmap_roles () =
  let c = Helpers.arbiter_design () in
  let bad = Circuit.output c "bad" in
  let view = Sview.whole c ~roots:[ bad ] in
  let vm = Varmap.make view in
  Array.iter
    (fun r ->
      let cv = Varmap.cur_var vm r and nv = Varmap.nxt_var vm r in
      Alcotest.(check bool) "next directly below current" true (nv = cv + 1);
      (match Varmap.role vm cv with
      | Varmap.Cur s -> Alcotest.(check int) "cur role" r s
      | _ -> Alcotest.fail "expected Cur");
      match Varmap.role vm nv with
      | Varmap.Nxt s -> Alcotest.(check int) "nxt role" r s
      | _ -> Alcotest.fail "expected Nxt")
    view.Sview.regs;
  Array.iter
    (fun i ->
      match Varmap.role vm (Varmap.inp_var vm i) with
      | Varmap.Inp s -> Alcotest.(check int) "inp role" i s
      | _ -> Alcotest.fail "expected Inp")
    view.Sview.free_inputs;
  Alcotest.(check int) "cur count" (Sview.num_regs view)
    (List.length (Varmap.cur_vars vm));
  Alcotest.(check int) "inp count"
    (Sview.num_free_inputs view)
    (List.length (Varmap.inp_vars vm))

let test_varmap_miss_diagnostics () =
  (* A role the signal does not carry must raise [Invalid_argument]
     naming the accessor and the signal — not a bare [Not_found] from
     deep inside a fixpoint. *)
  let c = Helpers.arbiter_design () in
  let bad = Circuit.output c "bad" in
  let view = Sview.whole c ~roots:[ bad ] in
  let vm = Varmap.make view in
  let input = view.Sview.free_inputs.(0) in
  let reg = view.Sview.regs.(0) in
  let contains msg fragment =
    let n = String.length msg and m = String.length fragment in
    let rec go i = i + m <= n && (String.sub msg i m = fragment || go (i + 1)) in
    go 0
  in
  let expect_invalid_arg label fragments f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument msg ->
      List.iter
        (fun fragment ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: message %S mentions %S" label msg fragment)
            true (contains msg fragment))
        fragments
  in
  expect_invalid_arg "cur_var on an input"
    [ "cur_var"; string_of_int input; Circuit.name c input ]
    (fun () -> Varmap.cur_var vm input);
  expect_invalid_arg "nxt_var on an input" [ "nxt_var" ] (fun () ->
      Varmap.nxt_var vm input);
  expect_invalid_arg "inp_var on a register"
    [ "inp_var"; Circuit.name c reg ]
    (fun () -> Varmap.inp_var vm reg);
  expect_invalid_arg "role of an unallocated variable" [ "role"; "9999" ]
    (fun () -> ignore (Varmap.role vm 9999));
  (* the option probes stay silent *)
  Alcotest.(check (option int)) "cur_var_opt misses" None
    (Varmap.cur_var_opt vm input);
  Alcotest.(check bool) "cur_var_opt hits" true
    (Varmap.cur_var_opt vm reg = Some (Varmap.cur_var vm reg));
  Alcotest.(check (option int)) "inp_var_opt misses" None
    (Varmap.inp_var_opt vm reg);
  Alcotest.(check (option int)) "nxt_var_opt misses" None
    (Varmap.nxt_var_opt vm input);
  (* Symbolic's cube builder wraps the miss with its own context *)
  expect_invalid_arg "state_cube over a non-register"
    [ "state_cube"; Circuit.name c input ]
    (fun () ->
      ignore (Symbolic.state_cube vm (Cube.of_list [ (input, true) ])))

let test_add_input_vars () =
  let c = Helpers.arbiter_design () in
  let bad = Circuit.output c "bad" in
  let vm = Varmap.make (Sview.whole c ~roots:[ bad ]) in
  let internal = Circuit.find c "g0_reg" in
  Alcotest.(check bool) "no var yet" false (Varmap.has_inp_var vm bad);
  Varmap.add_input_vars vm [ bad ];
  Alcotest.(check bool) "var added" true (Varmap.has_inp_var vm bad);
  let v = Varmap.inp_var vm bad in
  Varmap.add_input_vars vm [ bad ];
  Alcotest.(check int) "idempotent" v (Varmap.inp_var vm bad);
  ignore internal

(* Cone functions agree with direct evaluation. *)
let cones_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"symbolic cones match evaluation"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:3 ~ngates:12)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Varmap.make view in
         let man = Varmap.man vm in
         let fn = Symbolic.functions vm in
         let ok = ref true in
         for iv = 0 to 7 do
           for sv = 0 to 7 do
             let idx arr x =
               let rec go i = if arr.(i) = x then i else go (i + 1) in
               go 0
             in
             let input s = iv land (1 lsl idx c.Circuit.inputs s) <> 0 in
             let state r = sv land (1 lsl idx c.Circuit.registers r) <> 0 in
             let values = Circuit.eval c ~input ~state in
             let env v =
               match Varmap.role vm v with
               | Varmap.Cur r -> state r
               | Varmap.Inp i -> input i
               | Varmap.Nxt _ -> false
             in
             if Bdd.eval man (fn rc.Helpers.out) env <> values.(rc.Helpers.out)
             then ok := false
           done
         done;
         !ok))

(* Post-image equals one explicit transition step. *)
let image_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"post-image = explicit step"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:3 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Varmap.make view in
         let man = Varmap.man vm in
         let img = Image.make vm in
         let regs = c.Circuit.registers and inputs = c.Circuit.inputs in
         let idx arr x =
           let rec go i = if arr.(i) = x then i else go (i + 1) in
           go 0
         in
         (* random source set: states whose code is even *)
         let source_codes =
           List.filter (fun v -> v mod 2 = 0) (List.init 8 (fun i -> i))
         in
         let cube_of code =
           Bdd.cube man
             (Array.to_list regs
             |> List.map (fun r ->
                    (Varmap.cur_var vm r, code land (1 lsl idx regs r) <> 0)))
         in
         let source =
           List.fold_left
             (fun acc code -> Bdd.dor man acc (cube_of code))
             (Bdd.zero man) source_codes
         in
         let post = Image.post img source in
         (* explicit: all successors of the even-coded states *)
         let expected = Hashtbl.create 16 in
         List.iter
           (fun code ->
             for iv = 0 to 7 do
               let input s = iv land (1 lsl idx inputs s) <> 0 in
               let state r = code land (1 lsl idx regs r) <> 0 in
               let _, next = Circuit.step c ~input ~state in
               let code' =
                 Array.fold_left
                   (fun acc r ->
                     if next r then acc lor (1 lsl idx regs r) else acc)
                   0 regs
               in
               Hashtbl.replace expected code' ()
             done)
           source_codes;
         let ok = ref true in
         for code = 0 to 7 do
           let env v =
             match Varmap.role vm v with
             | Varmap.Cur r -> code land (1 lsl idx regs r) <> 0
             | _ -> false
           in
           if Bdd.eval man post env <> Hashtbl.mem expected code then
             ok := false
         done;
         !ok))

(* Build with [cache], collect all but the sources and their
   unscheduled images, then compare [Image.post] on every source. *)
let post_agrees ~cluster_size ~cache vm =
  let man = Varmap.man vm in
  let fn = Symbolic.functions vm in
  let img, _ = Image.build ~cluster_size ~fn ~cache vm in
  let sources = Helpers.image_sources vm in
  let expected = List.map (Helpers.unscheduled_post vm ~fn) sources in
  Bdd.gc man ~roots:(sources @ expected);
  List.for_all2 (fun q e -> Bdd.equal (Image.post img q) e) sources expected

(* Image.post against the unscheduled image on random abstractions,
   through in-place refinements that share one cluster cache: the
   build quantifies cluster-local inputs out of their cluster, and a
   refinement can make such an input shared or promote a pseudo-input
   to a register. A collection between build and post must keep the
   quantified copies alive. *)
let image_matches_unscheduled =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"post = unscheduled image across refinements"
       QCheck.(
         triple
           (Helpers.arbitrary_circuit ~nins:3 ~nregs:5 ~ngates:14)
           (int_bound 2) small_nat)
       (fun (rc, size, pick) ->
         let cluster_size = [| 1; 8; 5000 |].(size) in
         let cache = Image.cache () in
         let rec go abs vm k =
           post_agrees ~cluster_size ~cache vm
           && (k = 0
              ||
              match Abstraction.pseudo_inputs abs with
              | [] -> true
              | ps ->
                let p = List.nth ps (pick mod List.length ps) in
                let abs, d = Abstraction.refine_delta abs ~add:[ p ] in
                go abs (Varmap.grow vm ~view:abs.Abstraction.view d) (k - 1))
         in
         let a0 =
           Abstraction.initial rc.Helpers.circuit ~roots:[ rc.Helpers.out ]
         in
         go a0 (Varmap.make a0.Abstraction.view) 3))

(* r1' = (a xor r2) and r1, r2' = a and r3, r3' = not r3. With r1
   alone in the model, [a] and the pseudo-input r2 are read by r1's
   cluster only, and quantifying them leaves r1' -> r1, not a
   constant. *)
let local_input_design () =
  let module B = Circuit.Builder in
  let b = B.create () in
  let a = B.input b "a" in
  let r1 = B.reg b "r1" and r2 = B.reg b "r2" and r3 = B.reg b "r3" in
  B.connect b r1 (B.and2 b (B.xor2 b a r2) r1);
  B.connect b r2 (B.and2 b a r3);
  B.connect b r3 (B.not_ b r3);
  B.output b "out" r1;
  (B.finalize b, a, r1, r2)

(* The two refinements the quantified copies must survive, by
   construction: [a] is read only by r1's cluster until r2 joins the
   model, and r2 is a pseudo-input (an [Inp] variable, local to r1's
   cluster) until it is promoted to a register. One cluster per
   register. *)
let test_local_input_refinements () =
  let c, a, r1, r2 = local_input_design () in
  let cache = Image.cache () in
  let check_step label vm =
    Alcotest.(check bool) (label ^ ": post = unscheduled") true
      (post_agrees ~cluster_size:1 ~cache vm);
    let man = Varmap.man vm in
    let reading v bdds =
      List.length (List.filter (fun f -> List.mem v (Bdd.support man f)) bdds)
    in
    let quantified =
      match cache.Image.quantified with
      | Some (m, qs) when m == man -> Array.to_list qs
      | _ -> Alcotest.fail (label ^ ": copies not tagged with the manager")
    in
    fun v ->
      (reading v (Array.to_list cache.Image.clusters), reading v quantified)
  in
  let a0 = Abstraction.initial c ~roots:[ r1 ] in
  let vm = Varmap.make a0.Abstraction.view in
  let va = Varmap.inp_var vm a and v2 = Varmap.inp_var vm r2 in
  let reads = check_step "initial" vm in
  Alcotest.(check (pair int int)) "a is local to r1's cluster" (1, 0)
    (reads va);
  Alcotest.(check (pair int int)) "pseudo-input r2 is local" (1, 0) (reads v2);
  let a1, d = Abstraction.refine_delta a0 ~add:[ r2 ] in
  let vm = Varmap.grow vm ~view:a1.Abstraction.view d in
  Alcotest.(check bool) "r2 is promoted in place" true
    (Varmap.role vm v2 = Varmap.Cur r2);
  let reads = check_step "refined" vm in
  Alcotest.(check (pair int int)) "a is shared, kept in the schedule" (2, 2)
    (reads va);
  Alcotest.(check (pair int int)) "promoted r2 is kept in the schedule" (1, 1)
    (reads v2)

(* The quantified copies are released in the manager that protected
   them: by [clear_cache], and by the next build even when the caller
   has moved the cache to another manager meanwhile (a reordering
   hand-off translates the clusters and leaves the copies). *)
let test_copies_released_in_their_manager () =
  let c, _, r1, _ = local_input_design () in
  let a0 = Abstraction.initial c ~roots:[ r1 ] in
  let protected = Helpers.protected_handles in
  let minus l drop =
    List.fold_left
      (fun l f ->
        let rec remove = function
          | [] -> []
          | x :: rest -> if x = f then rest else x :: remove rest
        in
        remove l)
      l (Helpers.handles drop)
  in
  let copies man cache =
    match cache.Image.quantified with
    | Some (m, qs) when m == man -> Array.to_list qs
    | _ -> Alcotest.fail "copies not tagged with the building manager"
  in
  let build vm cache =
    let fn = Symbolic.functions vm in
    ignore (Image.build ~cluster_size:1 ~fn ~cache vm)
  in
  (* clear_cache *)
  let vm = Varmap.make a0.Abstraction.view in
  let man = Varmap.man vm in
  let cache = Image.cache () in
  build vm cache;
  let held = protected man and qs = copies man cache in
  Alcotest.(check bool) "a copy differs from its cluster" true
    (qs <> Array.to_list cache.Image.clusters);
  Image.clear_cache cache;
  Alcotest.(check (list int)) "clear_cache releases exactly the copies"
    (minus held qs) (protected man);
  (* a build after a manager switch *)
  let vm1 = Varmap.make a0.Abstraction.view in
  let m1 = Varmap.man vm1 in
  let cache = Image.cache () in
  build vm1 cache;
  let held1 = protected m1 and qs1 = copies m1 cache in
  let vm2 = Varmap.replica vm1 in
  let m2 = Varmap.man vm2 in
  let fn2 = Symbolic.functions vm2 in
  ignore (fn2 r1);
  let cones2 = protected m2 in
  (* the caller takes its clusters along; here it rebuilds them *)
  Array.iter (Bdd.unprotect m1) cache.Image.clusters;
  let clusters1 = Array.to_list cache.Image.clusters in
  cache.Image.entries <- [||];
  cache.Image.clusters <- [||];
  ignore (Image.build ~cluster_size:1 ~fn:fn2 ~cache vm2);
  Alcotest.(check (list int)) "old manager: the copies are released there"
    (minus (minus held1 clusters1) qs1)
    (protected m1);
  let fresh = Array.to_list cache.Image.clusters @ copies m2 cache in
  Alcotest.(check (list int)) "new manager: cones, clusters and copies"
    (List.sort compare (cones2 @ Helpers.handles fresh))
    (protected m2)

(* Pre-image by compose: x is in pre(T) iff some input leads x to T. *)
let preimage_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"pre-image by compose = explicit"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:3 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Varmap.make view in
         let man = Varmap.man vm in
         let fn = Symbolic.functions vm in
         let regs = c.Circuit.registers and inputs = c.Circuit.inputs in
         let idx arr x =
           let rec go i = if arr.(i) = x then i else go (i + 1) in
           go 0
         in
         (* target: states with register 0 set *)
         let target = Bdd.var man (Varmap.cur_var vm regs.(0)) in
         let pre = Image.pre_via_compose vm ~fn target in
         (* pre is over cur vars and input vars; quantify inputs for a
            state-level check *)
         let pre_states = Bdd.exists man (Varmap.inp_vars vm) pre in
         let ok = ref true in
         for code = 0 to 7 do
           let state r = code land (1 lsl idx regs r) <> 0 in
           let expected = ref false in
           for iv = 0 to 7 do
             let input s = iv land (1 lsl idx inputs s) <> 0 in
             let _, next = Circuit.step c ~input ~state in
             if next regs.(0) then expected := true
           done;
           let env v =
             match Varmap.role vm v with
             | Varmap.Cur r -> state r
             | _ -> false
           in
           if Bdd.eval man pre_states env <> !expected then ok := false
         done;
         !ok))

(* Full reachability vs explicit-state search, including bad-state
   detection at the right step. *)
let reach_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"reachability = explicit search"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:12)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Varmap.make view in
         let man = Varmap.man vm in
         let fn = Symbolic.functions vm in
         let img = Image.make vm in
         let init = Symbolic.initial_states vm in
         let bad_states = Reach.bad_predicate vm ~fn ~bad:rc.Helpers.out in
         let res = Reach.run ~max_steps:64 img ~vm ~init ~bad_states in
         let expected = Helpers.explicit_violates c ~bad:rc.Helpers.out in
         match res.Reach.outcome with
         | Reach.Proved ->
           (not expected)
           &&
           (* the reached set must cover exactly the explicit one *)
           let explicit = Helpers.explicit_reachable c in
           let regs = c.Circuit.registers in
           let idx x =
             let rec go i = if regs.(i) = x then i else go (i + 1) in
             go 0
           in
           let ok = ref true in
           for code = 0 to (1 lsl Array.length regs) - 1 do
             let env v =
               match Varmap.role vm v with
               | Varmap.Cur r -> code land (1 lsl idx r) <> 0
               | _ -> false
             in
             if Bdd.eval man res.Reach.reached env <> Hashtbl.mem explicit code
             then ok := false
           done;
           !ok
         | Reach.Reached _ -> expected
         | Reach.Closed _ | Reach.Aborted _ -> QCheck.assume_fail ()))

(* Rings are disjoint and their union is the reached set. *)
let rings_partition =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"rings partition the reached set"
       (Helpers.arbitrary_circuit ~nins:2 ~nregs:4 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let vm = Varmap.make view in
         let man = Varmap.man vm in
         let img = Image.make vm in
         let init = Symbolic.initial_states vm in
         let res =
           Reach.run ~max_steps:64 img ~vm ~init ~bad_states:(Bdd.zero man)
         in
         let union =
           Array.fold_left (Bdd.dor man) (Bdd.zero man) res.Reach.rings
         in
         let disjoint = ref true in
         Array.iteri
           (fun i ri ->
             Array.iteri
               (fun j rj ->
                 if i < j && not (Bdd.is_zero (Bdd.dand man ri rj)) then
                   disjoint := false)
               res.Reach.rings)
           res.Reach.rings;
         !disjoint && Bdd.equal union res.Reach.reached))

let test_limits_abort () =
  let c = Helpers.deep_bug_design ~width:4 in
  let bad = Circuit.output c "bad" in
  let view = Sview.whole c ~roots:[ bad ] in
  let vm = Varmap.make ~node_limit:60 view in
  (match
     let fn = Symbolic.functions vm in
     let img = Image.make vm in
     let init = Symbolic.initial_states vm in
     let bad_states = Reach.bad_predicate vm ~fn ~bad in
     (Reach.run img ~vm ~init ~bad_states).Reach.outcome
   with
  | Reach.Aborted _ -> ()
  | exception Bdd.Limit_exceeded -> ()
  | _ -> Alcotest.fail "expected a node-limit abort");
  (* step limit *)
  let vm = Varmap.make view in
  let fn = Symbolic.functions vm in
  let img = Image.make vm in
  let init = Symbolic.initial_states vm in
  let bad_states = Reach.bad_predicate vm ~fn ~bad in
  match (Reach.run ~max_steps:2 img ~vm ~init ~bad_states).Reach.outcome with
  | Reach.Aborted Rfn_failure.Steps -> ()
  | _ -> Alcotest.fail "expected step-limit abort"

let test_stop_at_bad_false_closes () =
  (* 2-bit counter, always enabled via constant: state 3 reached at
     step 3, fixpoint closes at 4 states *)
  let b = Circuit.Builder.create () in
  let module B = Circuit.Builder in
  let en = B.const b true in
  let q = Rtl.counter b ~name:"q" ~width:2 ~enable:en () in
  let top = B.and2 b q.(0) q.(1) in
  B.output b "top" top;
  let c = B.finalize b in
  let view = Sview.whole c ~roots:[ top ] in
  let vm = Varmap.make view in
  let fn = Symbolic.functions vm in
  let img = Image.make vm in
  let init = Symbolic.initial_states vm in
  let bad_states = Reach.bad_predicate vm ~fn ~bad:top in
  let res = Reach.run ~stop_at_bad:false img ~vm ~init ~bad_states in
  (match res.Reach.outcome with
  | Reach.Closed 3 -> ()
  | Reach.Closed k -> Alcotest.failf "closed at %d, expected 3" k
  | _ -> Alcotest.fail "expected Closed");
  Alcotest.(check int) "four rings" 4 (Array.length res.Reach.rings);
  (* with the default stop_at_bad the run stops at the hit *)
  let res = Reach.run img ~vm ~init ~bad_states in
  match res.Reach.outcome with
  | Reach.Reached 3 -> ()
  | _ -> Alcotest.fail "expected Reached 3"

let test_force_reduces_span () =
  (* a chain hypergraph scrambled: FORCE should bring the span down to
     near-minimal *)
  let nvars = 16 in
  let edges = List.init (nvars - 1) (fun i -> [ i; (i + 7) mod nvars ]) in
  let identity = Array.init nvars (fun i -> i) in
  let before = Force.span ~pos:identity ~edges in
  let pos = Force.order ~nvars ~edges () in
  let after = Force.span ~pos ~edges in
  Alcotest.(check bool) "span not worse" true (after <= before);
  (* result is a permutation *)
  let seen = Array.make nvars false in
  Array.iter (fun p -> seen.(p) <- true) pos;
  Alcotest.(check bool) "permutation" true (Array.for_all (fun x -> x) seen)

let tests =
  [
    Alcotest.test_case "varmap roles and interleaving" `Quick test_varmap_roles;
    Alcotest.test_case "varmap miss diagnostics" `Quick
      test_varmap_miss_diagnostics;
    Alcotest.test_case "add_input_vars" `Quick test_add_input_vars;
    cones_agree;
    image_agrees;
    image_matches_unscheduled;
    Alcotest.test_case "local inputs made shared or promoted" `Quick
      test_local_input_refinements;
    Alcotest.test_case "copies released in their manager" `Quick
      test_copies_released_in_their_manager;
    preimage_agrees;
    reach_agrees;
    rings_partition;
    Alcotest.test_case "resource limits abort" `Quick test_limits_abort;
    Alcotest.test_case "stop_at_bad:false closes" `Quick
      test_stop_at_bad_false_closes;
    Alcotest.test_case "FORCE reduces span" `Quick test_force_reduces_span;
  ]

let () = Alcotest.run "mc" [ ("mc", tests) ]
