(* The BDD package is validated against brute-force truth tables on
   random Boolean expressions, plus targeted tests for quantification,
   composition, renaming, cube extraction, counting, GC and limits. *)

module Bdd = Rfn_bdd.Bdd

(* Random expression trees over [nvars] variables. *)
type expr =
  | Var of int
  | Const of bool
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Ite of expr * expr * expr

let rec eval_expr env = function
  | Var i -> env i
  | Const b -> b
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b
  | Ite (c, t, e) -> if eval_expr env c then eval_expr env t else eval_expr env e

let rec build_bdd man = function
  | Var i -> Bdd.var man i
  | Const true -> Bdd.one man
  | Const false -> Bdd.zero man
  | Not e -> Bdd.dnot man (build_bdd man e)
  | And (a, b) -> Bdd.dand man (build_bdd man a) (build_bdd man b)
  | Or (a, b) -> Bdd.dor man (build_bdd man a) (build_bdd man b)
  | Xor (a, b) -> Bdd.dxor man (build_bdd man a) (build_bdd man b)
  | Ite (c, t, e) ->
    Bdd.ite man (build_bdd man c) (build_bdd man t) (build_bdd man e)

let expr_gen nvars =
  let open QCheck.Gen in
  sized_size (int_bound 20) @@ fix (fun self n ->
      if n <= 0 then
        oneof [ map (fun i -> Var i) (int_bound (nvars - 1)); map (fun b -> Const b) bool ]
      else
        frequency
          [
            (1, map (fun i -> Var i) (int_bound (nvars - 1)));
            (2, map (fun e -> Not e) (self (n - 1)));
            (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)));
            ( 1,
              map3 (fun a b c -> Ite (a, b, c)) (self (n / 3)) (self (n / 3))
                (self (n / 3)) );
          ])

let rec pp_expr = function
  | Var i -> Printf.sprintf "v%d" i
  | Const b -> string_of_bool b
  | Not e -> Printf.sprintf "~(%s)" (pp_expr e)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (pp_expr a) (pp_expr b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (pp_expr a) (pp_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (pp_expr a) (pp_expr b)
  | Ite (a, b, c) ->
    Printf.sprintf "ite(%s,%s,%s)" (pp_expr a) (pp_expr b) (pp_expr c)

let nvars = 6
let arbitrary_expr = QCheck.make (expr_gen nvars) ~print:pp_expr

let all_envs f =
  let ok = ref true in
  for v = 0 to (1 lsl nvars) - 1 do
    if not (f (fun i -> v land (1 lsl i) <> 0)) then ok := false
  done;
  !ok

let qt name count f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary_expr f)

let semantics_test =
  qt "bdd agrees with direct evaluation" 500 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      all_envs (fun env -> Bdd.eval man f env = eval_expr env e))

let reduction_test =
  qt "equivalent functions share one node" 200 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      (* rebuild the same function through a different expression shape *)
      let g = Bdd.dnot man (Bdd.dnot man f) in
      let h = Bdd.dxor man f (Bdd.zero man) in
      Bdd.equal f g && Bdd.equal f h)

let exists_test =
  qt "existential quantification" 200 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let q = Bdd.exists man [ 0; 3 ] f in
      all_envs (fun env ->
          let expected =
            List.exists
              (fun (v0, v3) ->
                eval_expr
                  (fun i -> if i = 0 then v0 else if i = 3 then v3 else env i)
                  e)
              [ (false, false); (false, true); (true, false); (true, true) ]
          in
          Bdd.eval man q env = expected))

let and_exists_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"and_exists = exists of conjunction"
       (QCheck.pair arbitrary_expr arbitrary_expr)
       (fun (ea, eb) ->
         let man = Bdd.create ~nvars () in
         let a = build_bdd man ea and b = build_bdd man eb in
         let direct = Bdd.exists man [ 1; 2; 5 ] (Bdd.dand man a b) in
         Bdd.equal (Bdd.and_exists man [ 1; 2; 5 ] a b) direct))

(* Operand pairs for the binary kernels: random pairs, plus the cases
   their terminal rules short-circuit — equal operands and a constant
   on either side. *)
let operand_pair =
  let open QCheck.Gen in
  let e = expr_gen nvars in
  let pairs =
    frequency
      [
        (4, pair e e);
        (1, map (fun a -> (a, a)) e);
        (1, map2 (fun a b -> (a, Const b)) e bool);
        (1, map2 (fun b a -> (Const b, a)) bool e);
      ]
  in
  QCheck.make pairs ~print:(fun (a, b) -> pp_expr a ^ " , " ^ pp_expr b)

(* [dor] and [diff] run their own recursions; they must return the very
   handle the negation forms they replaced return. *)
let or_diff_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"dor/diff = their negation forms"
       operand_pair (fun (ea, eb) ->
         let man = Bdd.create ~nvars () in
         let a = build_bdd man ea and b = build_bdd man eb in
         let n = Bdd.dnot man in
         let dor = Bdd.dor man a b and diff = Bdd.diff man a b in
         Bdd.equal dor (n (Bdd.dand man (n a) (n b)))
         && Bdd.equal dor (Bdd.dor man b a)
         && Bdd.equal diff (Bdd.dand man a (n b))
         && all_envs (fun env ->
                let va = eval_expr env ea and vb = eval_expr env eb in
                Bdd.eval man dor env = (va || vb)
                && Bdd.eval man diff env = (va && not vb))))

(* Both quantifiers against the truth table, over a random variable
   set: their inner disjunction is the native [dor]. *)
let quantify_truth_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"exists/and_exists = truth table on random variable sets"
       QCheck.(
         triple arbitrary_expr arbitrary_expr (int_bound ((1 lsl nvars) - 1)))
       (fun (ea, eb, mask) ->
         let man = Bdd.create ~nvars () in
         let a = build_bdd man ea and b = build_bdd man eb in
         let vars =
           List.filter
             (fun i -> mask land (1 lsl i) <> 0)
             (List.init nvars Fun.id)
         in
         let ex = Bdd.exists man vars a and ae = Bdd.and_exists man vars a b in
         (* some assignment of [vars] that agrees with [env] elsewhere *)
         let some env p =
           let free = List.length vars in
           let rec go k =
             k < 1 lsl free
             && (p (fun i ->
                     match List.find_index (( = ) i) vars with
                     | Some j -> k land (1 lsl j) <> 0
                     | None -> env i)
                || go (k + 1))
           in
           go 0
         in
         all_envs (fun env ->
             Bdd.eval man ex env = some env (fun env' -> eval_expr env' ea)
             && Bdd.eval man ae env
                = some env (fun env' ->
                      eval_expr env' ea && eval_expr env' eb))))

let compose_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"vector compose substitutes"
       (QCheck.pair arbitrary_expr arbitrary_expr)
       (fun (ef, eg) ->
         let man = Bdd.create ~nvars () in
         let f = build_bdd man ef and g = build_bdd man eg in
         (* substitute g for variable 0 and ~g for variable 2, simultaneously *)
         let subst v =
           if v = 0 then Some g else if v = 2 then Some (Bdd.dnot man g) else None
         in
         let h = Bdd.vector_compose man subst f in
         all_envs (fun env ->
             let gv = eval_expr env eg in
             let env' i = if i = 0 then gv else if i = 2 then not gv else env i in
             Bdd.eval man h env = eval_expr env' ef)))

let rename_test =
  qt "rename is variable permutation" 200 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      (* rotate all variables by one *)
      let map v = (v + 1) mod nvars in
      let g = Bdd.rename man map f in
      all_envs (fun env ->
          Bdd.eval man g env = eval_expr (fun i -> env (map i)) e))

let rename_monotone_test =
  qt "monotone rename (shift down)" 200 (fun e ->
      let man = Bdd.create ~nvars:(2 * nvars) () in
      let f = build_bdd man e in
      let map v = v + nvars in
      let g = Bdd.rename man map f in
      all_envs (fun env ->
          (* evaluate g under an env reading shifted vars *)
          let ok = ref true in
          for hi = 0 to 0 do
            ignore hi;
            let env2 i = if i >= nvars then env (i - nvars) else false in
            if Bdd.eval man g env2 <> eval_expr env e then ok := false
          done;
          !ok))

let cube_roundtrip_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"cube/cube_of roundtrip"
       QCheck.(list_of_size (QCheck.Gen.int_bound 5) (pair (int_bound 5) bool))
       (fun lits ->
         let tbl = Hashtbl.create 8 in
         List.iter
           (fun (v, b) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v b)
           lits;
         let lits = Hashtbl.fold (fun v b acc -> (v, b) :: acc) tbl [] in
         let sorted = List.sort compare lits in
         let man = Bdd.create ~nvars () in
         let c = Bdd.cube man lits in
         List.sort compare (Bdd.cube_of man c) = sorted))

let sat_cubes_test =
  qt "fattest_cube satisfies" 300 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      if Bdd.is_zero f then true
      else begin
        let check cube =
          (* every completion of the cube satisfies f; check default-
             false completion *)
          let env i =
            match List.assoc_opt i cube with Some b -> b | None -> false
          in
          Bdd.eval man f env
          &&
          let env1 i =
            match List.assoc_opt i cube with Some b -> b | None -> true
          in
          Bdd.eval man f env1
        in
        check (Bdd.fattest_cube man f)
      end)

let fattest_is_minimal_test =
  qt "fattest cube has minimal literal count" 200 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      if Bdd.is_zero f then true
      else begin
        let fat = List.length (Bdd.fattest_cube man f) in
        (* Any BDD path-cube is at least as long as the fattest one. *)
        let rec min_path f =
          if Bdd.is_one f then 0
          else if Bdd.is_zero f then max_int / 2
          else 1 + min (min_path (Bdd.low man f)) (min_path (Bdd.high man f))
        in
        fat = min_path f
      end)

let density_test =
  qt "density counts minterms" 300 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let count = ref 0 in
      for v = 0 to (1 lsl nvars) - 1 do
        if eval_expr (fun i -> v land (1 lsl i) <> 0) e then incr count
      done;
      let measured = Bdd.count_minterms man ~over:nvars f in
      abs_float (measured -. float_of_int !count) < 1e-6)

let support_test =
  qt "support is sound" 200 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let sup = Bdd.support man f in
      (* flipping a variable outside the support never changes f *)
      all_envs (fun env ->
          List.for_all
            (fun v ->
              List.mem v sup
              || Bdd.eval man f env
                 = Bdd.eval man f (fun i -> if i = v then not (env i) else env i))
            [ 0; 1; 2; 3; 4; 5 ]))

let rebuild_test =
  qt "rebuild into reversed order preserves semantics" 200 (fun e ->
      let src = Bdd.create ~nvars () in
      let f = build_bdd src e in
      let dst = Bdd.create ~nvars () in
      let map v = nvars - 1 - v in
      let g = Bdd.rebuild ~src ~dst ~map f in
      all_envs (fun env -> Bdd.eval dst g (fun i -> env (map i)) = eval_expr env e))

let gc_test =
  qt "gc preserves roots and protected nodes" 100 (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build_bdd man e in
      let keep = Bdd.protect man (Bdd.dnot man f) in
      (* garbage *)
      for i = 0 to 50 do
        ignore (Bdd.dand man f (Bdd.var man (i mod nvars)))
      done;
      let before = Bdd.num_nodes man in
      Bdd.gc man ~roots:[ f ];
      let after = Bdd.num_nodes man in
      after <= before
      && all_envs (fun env ->
             Bdd.eval man f env = eval_expr env e
             && Bdd.eval man keep env = not (eval_expr env e)))

let gc_reuse_test () =
  let man = Bdd.create ~nvars () in
  let a = Bdd.dand man (Bdd.var man 0) (Bdd.var man 1) in
  ignore a;
  Bdd.gc man ~roots:[];
  let live = Bdd.num_nodes man in
  (* recreate: slots are recycled, live count unchanged after rebuild *)
  let b = Bdd.dand man (Bdd.var man 0) (Bdd.var man 1) in
  Alcotest.(check bool) "b works" true
    (Bdd.eval man b (fun _ -> true));
  Alcotest.(check bool) "node store reused" true (Bdd.num_nodes man <= live + 3)

let limit_test () =
  let man = Bdd.create ~node_limit:20 ~nvars:16 () in
  (try
     let acc = ref (Bdd.one man) in
     for i = 0 to 15 do
       acc := Bdd.dand man !acc (Bdd.dxor man (Bdd.var man i) (Bdd.one man))
     done;
     Alcotest.fail "expected Limit_exceeded"
   with Bdd.Limit_exceeded -> ());
  (* manager still usable *)
  Alcotest.(check bool) "still usable" true
    (Bdd.eval man (Bdd.var man 0) (fun _ -> true))

let add_vars_test () =
  let man = Bdd.create ~nvars:2 () in
  let f = Bdd.dand man (Bdd.var man 0) (Bdd.var man 1) in
  let v2 = Bdd.add_vars man 1 in
  Alcotest.(check int) "new var index" 2 v2;
  let g = Bdd.dand man f (Bdd.var man v2) in
  Alcotest.(check bool) "works with new var" true
    (Bdd.eval man g (fun _ -> true));
  Alcotest.(check bool) "var order: new var at bottom" true
    (Bdd.topvar man g = 0)

let tests =
  [
    semantics_test;
    reduction_test;
    exists_test;
    and_exists_test;
    or_diff_test;
    quantify_truth_test;
    compose_test;
    rename_test;
    rename_monotone_test;
    cube_roundtrip_test;
    sat_cubes_test;
    fattest_is_minimal_test;
    density_test;
    support_test;
    rebuild_test;
    gc_test;
    Alcotest.test_case "gc recycles slots" `Quick gc_reuse_test;
    Alcotest.test_case "node limit" `Quick limit_test;
    Alcotest.test_case "add_vars" `Quick add_vars_test;
  ]

let () = Alcotest.run "bdd" [ ("bdd", tests) ]
