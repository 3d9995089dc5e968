(* The SAT backend, three ways:

   - the CDCL solver against a brute-force reference on random CNFs
     (verdicts, model soundness) plus a DRAT-style self-check that
     every learned clause is entailed by the original formula;
   - unit tests of the incremental interface (assumptions, budgets,
     reuse after Unsat-under-assumptions);
   - [Sat_bmc.falsify] against ATPG's [Concretize.falsify] on the zoo
     (same verdicts, same shortest-counterexample depths), and the full
     CEGAR loop under [--engine atpg|sat|portfolio] (same verdicts,
     validated traces), with and without injected faults. *)

open Rfn_circuit
module Solver = Rfn_sat.Solver
module Sat_bmc = Rfn_core.Sat_bmc
module Concretize = Rfn_core.Concretize
module Rfn = Rfn_core.Rfn
module Supervisor = Rfn_core.Supervisor
module Sim3v = Rfn_sim3v.Sim3v
module F = Rfn_failure

(* SAT unrollings check their CNF when the suite runs under RFN_CHECK. *)
let env_check = Rfn_lint.Check.env_enabled ()

(* ------------------------------------------------------------------ *)
(* Random CNFs and a brute-force reference                             *)
(* ------------------------------------------------------------------ *)

(* A clause is a list of (var, sign); a CNF a clause list over
   variables [0, nvars). *)
type cnf = { nvars : int; clauses : (int * bool) list list }

let cnf_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun nvars ->
    int_range 1 30 >>= fun nclauses ->
    let lit_gen =
      pair (int_bound (nvars - 1)) bool
    in
    let clause_gen = int_range 1 4 >>= fun n -> list_size (return n) lit_gen in
    list_size (return nclauses) clause_gen >>= fun clauses ->
    return { nvars; clauses })

let cnf_print { nvars; clauses } =
  Printf.sprintf "%d vars: %s" nvars
    (String.concat " & "
       (List.map
          (fun cl ->
            "("
            ^ String.concat "|"
                (List.map
                   (fun (v, s) -> (if s then "" else "~") ^ string_of_int v)
                   cl)
            ^ ")")
          clauses))

let arbitrary_cnf = QCheck.make cnf_gen ~print:cnf_print

let model_satisfies m clauses =
  List.for_all
    (List.exists (fun (v, s) -> (m lsr v) land 1 = 1 = s))
    clauses

let brute_force_sat { nvars; clauses } =
  let rec go m =
    if m >= 1 lsl nvars then false
    else model_satisfies m clauses || go (m + 1)
  in
  go 0

let solver_of ?log_learnts { nvars; clauses } =
  let s = Solver.create ?log_learnts () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter
    (fun cl -> Solver.add_clause s (List.map (fun (v, b) -> Solver.lit v b) cl))
    clauses;
  s

let test_random_cnf_differential () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"solver agrees with brute force"
       arbitrary_cnf
       (fun cnf ->
         let s = solver_of cnf in
         match Solver.solve s with
         | Solver.Sat ->
           (* the verdict must match AND the reported model must
              actually satisfy every clause *)
           let m = ref 0 in
           for v = 0 to cnf.nvars - 1 do
             if Solver.value s v then m := !m lor (1 lsl v)
           done;
           brute_force_sat cnf && model_satisfies !m cnf.clauses
         | Solver.Unsat -> not (brute_force_sat cnf)
         | Solver.Unknown _ -> false))

let test_learned_clauses_entailed () =
  (* DRAT-in-spirit: every clause the solver learns must be a logical
     consequence of the input formula — checked by brute force: no
     assignment satisfies the formula while falsifying the learned
     clause. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"learned clauses are entailed"
       arbitrary_cnf
       (fun cnf ->
         let s = solver_of ~log_learnts:true cnf in
         ignore (Solver.solve s);
         List.for_all
           (fun learnt ->
             let falsifies m =
               List.for_all
                 (fun l ->
                   (m lsr Solver.var_of l) land 1 = 1 <> Solver.sign_of l)
                 learnt
             in
             let rec counter m =
               if m >= 1 lsl cnf.nvars then false
               else
                 (model_satisfies m cnf.clauses && falsifies m)
                 || counter (m + 1)
             in
             not (counter 0))
           (Solver.learnt_clauses s)))

(* ------------------------------------------------------------------ *)
(* One instance, many queries                                          *)
(* ------------------------------------------------------------------ *)

(* Random sequences of add-clause batches and solves under assumptions
   on ONE instance, as the CEGAR loop drives its shared unrolling. The
   brute-forced part is a planted random CNF over [nrand] variables, so
   it stays satisfiable and the instance never dies. Beside it, guarded
   pigeonhole blocks [g -> PHP(n+1, n)] over fresh variables supply the
   thousands of conflicts that make learned-clause deletion and arena
   compaction run. Their effect on a query is known exactly: assuming a
   block's guard is unsatisfiable, otherwise the block is satisfied by
   its guard being false. *)
let nrand = 12

type step = {
  batch : (int * bool) list list;  (* random clauses over [0, nrand) *)
  block : int option;  (* add a guarded PHP(n+1, n) with this n *)
  assume : (int * bool) list;  (* random-part assumptions *)
  guard : int option;  (* also assume the guard of block (this mod #blocks) *)
}

let holds m (v, b) = (m lsr v) land 1 = 1 = b

let sequence_gen =
  QCheck.Gen.(
    int_bound ((1 lsl nrand) - 1) >>= fun planted ->
    let lit_gen = pair (int_bound (nrand - 1)) bool in
    let clause_gen =
      int_range 3 5 >>= fun n ->
      list_size (return n) lit_gen >|= fun cl ->
      if List.exists (holds planted) cl then cl
      else
        (* flip one literal so the planted model satisfies the clause *)
        match cl with (v, b) :: rest -> (v, not b) :: rest | [] -> []
    in
    let step_gen =
      list_size (int_bound 3) clause_gen >>= fun batch ->
      frequency [ (6, return None); (4, map Option.some (int_range 5 6)) ]
      >>= fun block ->
      list_size (int_bound 3) lit_gen >>= fun assume ->
      frequency [ (3, return None); (2, map Option.some nat) ] >>= fun guard ->
      return { batch; block; assume; guard }
    in
    list_size (int_range 20 40) step_gen)

let sequence_print steps =
  Printf.sprintf "%d steps, %d blocks" (List.length steps)
    (List.length (List.filter (fun st -> st.block <> None) steps))

let fail fmt = QCheck.Test.fail_reportf fmt

(* Runs one sequence; raises through [fail] on the first discrepancy. *)
let run_sequence steps =
  let s = Solver.create ~log_learnts:true () in
  for _ = 1 to nrand do
    ignore (Solver.new_var s)
  done;
  let rlit (v, b) = Solver.lit v b in
  (* models of the random part accumulated so far *)
  let models = ref (List.init (1 lsl nrand) Fun.id) in
  let guards = ref [] in
  let is_guard_neg l =
    (not (Solver.sign_of l)) && List.mem (Solver.var_of l) !guards
  in
  let rand_holds m l =
    Solver.var_of l < nrand && holds m (Solver.var_of l, Solver.sign_of l)
  in
  (* literals every model of the accumulated formula satisfies: random
     ones by brute force, and every guard's negation (its block alone
     is unsatisfiable) *)
  let entailed l =
    if Solver.var_of l < nrand then
      List.for_all (fun m -> rand_holds m l) !models
    else is_guard_neg l
  in
  (* originals, sorted; [exact] ones were added over unassigned fresh
     variables, so top-level simplification cannot have touched them *)
  let originals = ref [] in
  let add ~exact lits =
    Solver.add_clause s lits;
    originals := (List.sort_uniq compare lits, exact) :: !originals
  in
  let add_block n =
    let g = Solver.new_var s in
    let x =
      Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Solver.new_var s))
    in
    let ng = Solver.lit g false in
    for p = 0 to n do
      add ~exact:true (ng :: List.init n (fun h -> Solver.lit x.(p).(h) true))
    done;
    for h = 0 to n - 1 do
      for p1 = 0 to n do
        for p2 = p1 + 1 to n do
          add ~exact:true
            [ ng; Solver.lit x.(p1).(h) false; Solver.lit x.(p2).(h) false ]
        done
      done
    done;
    guards := !guards @ [ g ]
  in
  let learnts_checked = ref 0 in
  let check_learnts () =
    (* DRAT-in-spirit over the whole sequence: each clause learned
       since the last query is entailed by the formula as it stands —
       it names a guard's negation, or its random part alone holds in
       every model of the random clauses *)
    let all = Solver.learnt_clauses s in
    List.iteri
      (fun i c ->
        if i >= !learnts_checked then
          if
            not
              (List.exists is_guard_neg c
              || List.for_all (fun m -> List.exists (rand_holds m) c) !models)
          then fail "learned clause %d is not entailed" i)
      all;
    learnts_checked := List.length all;
    all
  in
  let check_clause_db learnts =
    (* iter_clauses yields every live clause exactly once: exact
       originals verbatim, the rest accounted for by a learned clause
       or by an original shortened by top-level simplification (only
       entailed-false literals dropped) *)
    let key c = List.sort compare c in
    let yielded = Hashtbl.create 64 in
    let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
    let bump tbl k d = Hashtbl.replace tbl k (count tbl k + d) in
    Solver.iter_clauses s (fun a -> bump yielded (key (Array.to_list a)) 1);
    List.iter
      (fun (o, exact) ->
        if exact then begin
          if count yielded o = 0 then
            fail "original clause lost from the clause DB";
          bump yielded o (-1)
        end)
      !originals;
    let learnt_count = Hashtbl.create 64 in
    List.iter (fun c -> bump learnt_count (key c) 1) learnts;
    let shortened y o =
      List.for_all (fun l -> List.mem l o) y
      && List.for_all (fun l -> List.mem l y || entailed (Solver.neg l)) o
    in
    Hashtbl.iter
      (fun y n ->
        if n > count learnt_count y then begin
          let sources =
            count learnt_count y
            + List.length
                (List.filter
                   (fun (o, exact) -> (not exact) && shortened y o)
                   !originals)
          in
          if n > sources then
            fail "clause yielded %d times, %d sources" n sources
        end)
      yielded;
    List.iter
      (fun (o, exact) ->
        let tautology = List.exists (fun l -> List.mem (Solver.neg l) o) o in
        if
          (not exact) && (not tautology)
          && (not (List.exists entailed o))
          && not
               (Hashtbl.fold
                  (fun y n found -> found || (n > 0 && shortened y o))
                  yielded false)
        then fail "random original clause lost from the clause DB")
      !originals
  in
  List.iteri
    (fun i st ->
      List.iter
        (fun cl ->
          add ~exact:false (List.map rlit cl);
          models := List.filter (fun m -> List.exists (holds m) cl) !models)
        st.batch;
      Option.iter add_block st.block;
      let guard =
        match (st.guard, !guards) with
        | Some k, (_ :: _ as gs) -> Some (List.nth gs (k mod List.length gs))
        | _ -> None
      in
      let assumptions =
        List.map rlit st.assume
        @ Option.to_list (Option.map (fun g -> Solver.lit g true) guard)
      in
      let expected =
        guard = None
        && List.exists (fun m -> List.for_all (holds m) st.assume) !models
      in
      (match Solver.solve ~assumptions s with
      | Solver.Sat ->
        if not expected then fail "step %d: Sat, brute force says Unsat" i;
        if
          not
            (List.for_all (Solver.value_lit s) assumptions
            && List.for_all
                 (fun (o, _) -> List.exists (Solver.value_lit s) o)
                 !originals)
        then fail "step %d: model violates the formula" i
      | Solver.Unsat ->
        if expected then fail "step %d: Unsat, brute force says Sat" i
      | Solver.Unknown _ -> fail "step %d: Unknown without budget" i);
      check_clause_db (check_learnts ()))
    steps;
  true

let test_incremental_differential () =
  let c_reduce = Rfn_obs.Telemetry.counter "sat.reduce_db" in
  let c_compact = Rfn_obs.Telemetry.counter "sat.compactions" in
  let r0 = Rfn_obs.Telemetry.counter_value c_reduce
  and k0 = Rfn_obs.Telemetry.counter_value c_compact in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:8 ~name:"one instance agrees with brute force"
       (QCheck.make sequence_gen ~print:sequence_print)
       run_sequence);
  (* the sizing must actually exercise deletion and compaction *)
  Alcotest.(check bool)
    "learned-clause deletion ran" true
    (Rfn_obs.Telemetry.counter_value c_reduce > r0);
  Alcotest.(check bool)
    "arena compaction ran" true
    (Rfn_obs.Telemetry.counter_value c_compact > k0)

(* ------------------------------------------------------------------ *)
(* Incremental interface                                               *)
(* ------------------------------------------------------------------ *)

let result_testable =
  Alcotest.testable
    (fun ppf -> function
      | Solver.Sat -> Format.pp_print_string ppf "Sat"
      | Solver.Unsat -> Format.pp_print_string ppf "Unsat"
      | Solver.Unknown r ->
        Format.fprintf ppf "Unknown(%s)" (F.resource_to_string r))
    ( = )

let test_assumptions () =
  let s = Solver.create () in
  let x = Solver.lit (Solver.new_var s) true in
  let y = Solver.lit (Solver.new_var s) true in
  Solver.add_clause s [ x; y ];
  Alcotest.check result_testable "x|y alone is sat" Solver.Sat
    (Solver.solve s);
  Alcotest.check result_testable "unsat under ~x,~y" Solver.Unsat
    (Solver.solve ~assumptions:[ Solver.neg x; Solver.neg y ] s);
  (* assumptions are per-call: the instance is unpoisoned *)
  Alcotest.check result_testable "sat again without assumptions" Solver.Sat
    (Solver.solve s);
  Alcotest.check result_testable "sat under ~x (y must hold)" Solver.Sat
    (Solver.solve ~assumptions:[ Solver.neg x ] s);
  Alcotest.(check bool) "model sets y" true (Solver.value_lit s y);
  (* incremental: strengthen and re-solve on the same instance *)
  Solver.add_clause s [ Solver.neg y ];
  Alcotest.check result_testable "after adding ~y, ~x forces unsat"
    Solver.Unsat
    (Solver.solve ~assumptions:[ Solver.neg x ] s);
  Alcotest.check result_testable "but x|~y still sat" Solver.Sat
    (Solver.solve s)

let test_empty_clause () =
  let s = Solver.create () in
  let x = Solver.lit (Solver.new_var s) true in
  Solver.add_clause s [ x ];
  Solver.add_clause s [ Solver.neg x ];
  Alcotest.check result_testable "contradictory units" Solver.Unsat
    (Solver.solve s)

(* Pigeonhole PHP(n+1, n): n+1 pigeons into n holes — small, provably
   unsatisfiable, and needs real conflict-driven search. *)
let pigeonhole s n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> 0)) in
  for p = 0 to n do
    for h = 0 to n - 1 do
      var.(p).(h) <- Solver.new_var s
    done
  done;
  for p = 0 to n do
    Solver.add_clause s
      (List.init n (fun h -> Solver.lit var.(p).(h) true))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s
          [ Solver.lit var.(p1).(h) false; Solver.lit var.(p2).(h) false ]
      done
    done
  done

let test_conflict_budget () =
  let s = Solver.create () in
  pigeonhole s 5;
  (match
     Solver.solve ~limits:{ Solver.max_conflicts = 1; max_seconds = None } s
   with
  | Solver.Unknown F.Conflicts -> ()
  | r ->
    Alcotest.failf "expected Unknown(Conflicts), got %a"
      (fun ppf -> Alcotest.pp result_testable ppf)
      r);
  (* the budget is per call, so an unlimited re-solve finishes *)
  Alcotest.check result_testable "php(6,5) is unsat" Solver.Unsat
    (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "search had conflicts" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "search learned clauses" true (st.Solver.learned > 0)

(* ------------------------------------------------------------------ *)
(* SAT vs ATPG falsify on the zoo                                           *)
(* ------------------------------------------------------------------ *)

let test_bmc_differential () =
  List.iter
    (fun (name, circuit, prop) ->
      let bad = prop.Property.bad in
      let max_depth = 12 in
      let atpg, _ = Concretize.falsify circuit ~bad ~max_depth in
      let sat, _ =
        Sat_bmc.falsify
          (Sat_bmc.unrolling ~check:env_check circuit ~bad)
          ~max_depth
      in
      match (atpg, sat) with
      | Concretize.Found ta, Concretize.Found ts ->
        (* both engines promise shortest counterexamples *)
        Alcotest.(check int)
          (name ^ ": same counterexample depth")
          (Trace.length ta) (Trace.length ts);
        Alcotest.(check bool)
          (name ^ ": SAT trace replays concretely")
          true
          (Sim3v.replay_concrete circuit ts ~bad)
      | Concretize.Not_found_here, Concretize.Not_found_here -> ()
      | Concretize.Gave_up { frames = d; _ }, Concretize.Found ts ->
        (* ATPG ran out of budget at depth d after exhausting every
           shallower depth — a SAT counterexample below d would mean
           one of the engines is wrong *)
        Alcotest.(check bool)
          (name ^ ": SAT witness not shallower than ATPG's exhausted depths")
          true
          (Trace.length ts >= d);
        Alcotest.(check bool)
          (name ^ ": SAT trace replays concretely")
          true
          (Sim3v.replay_concrete circuit ts ~bad)
      | Concretize.Gave_up _, (Concretize.Not_found_here | Concretize.Gave_up _)
      | Concretize.Not_found_here, Concretize.Gave_up _ ->
        (* one engine's budget ran out; nothing left to compare *)
        ()
      | _ ->
        let show = function
          | Concretize.Found t ->
            Printf.sprintf "Found(len %d)" (Trace.length t)
          | Concretize.Not_found_here -> "Exhausted"
          | Concretize.Gave_up { frames; _ } ->
            Printf.sprintf "Gave_up(%d)" frames
        in
        Alcotest.failf "%s: engines disagree (atpg %s, sat %s)" name
          (show atpg) (show sat))
    (Helpers.zoo ())

let test_sat_guided_concretize () =
  (* The guided mode must find a concrete trace when handed the
     concrete witness itself as "abstract" guidance, and report
     Not_found_here for guidance that pins an unreachable cube. *)
  let circuit = Helpers.counter_design ~width:3 ~limit:7 in
  let bad = Circuit.output circuit "at_limit" in
  match Concretize.falsify circuit ~bad ~max_depth:12 with
  | Concretize.Found witness, _ -> (
    (* both queries run on one unrolling, as in the CEGAR loop *)
    let u = Sat_bmc.unrolling ~check:env_check circuit ~bad in
    let concretize traces = Sat_bmc.concretize u ~abstract_traces:traces in
    (match concretize [ witness ] with
    | Concretize.Found t, _ ->
      Alcotest.(check bool)
        "concretized trace replays" true
        (Sim3v.replay_concrete circuit t ~bad)
    | _ -> Alcotest.fail "guided SAT missed a concrete witness");
    (* pin the final state to "counter still at 0" — contradicts the
       target at every depth, so the guided query is unsat *)
    let regs = circuit.Circuit.registers in
    let zero =
      Cube.of_list (Array.to_list (Array.map (fun r -> (r, false)) regs))
    in
    let states = Array.make (Trace.length witness) (Cube.of_list []) in
    states.(Trace.length witness - 1) <- zero;
    let inputs =
      Array.make (Trace.length witness) (Cube.of_list [])
    in
    let contradiction = Trace.make ~states ~inputs in
    match concretize [ contradiction ] with
    | Concretize.Not_found_here, _ -> ()
    | Concretize.Found _, _ ->
      Alcotest.fail "guided SAT satisfied contradictory guidance"
    | Concretize.Gave_up { resource; _ }, _ ->
      Alcotest.failf "guided SAT gave up: %s" (F.resource_to_string resource))
  | _ -> Alcotest.fail "Concretize.falsify lost the counter witness"

let test_per_call_stats () =
  (* Two concretizations on one unrolling: each reports its own work —
     exactly what the solver's telemetry counters moved by during that
     call — not the instance's running totals. *)
  let circuit = Helpers.counter_design ~width:3 ~limit:7 in
  let bad = Circuit.output circuit "at_limit" in
  match Concretize.falsify circuit ~bad ~max_depth:12 with
  | Concretize.Found witness, _ ->
    let u = Sat_bmc.unrolling ~check:env_check circuit ~bad in
    let conflicts = Rfn_obs.Telemetry.counter "sat.conflicts" in
    let propagations = Rfn_obs.Telemetry.counter "sat.propagations" in
    let call name =
      let value = Rfn_obs.Telemetry.counter_value in
      let c0 = value conflicts and p0 = value propagations in
      let _, st = Sat_bmc.concretize u ~abstract_traces:[ witness ] in
      Alcotest.(check int)
        (name ^ ": its own conflicts")
        (value conflicts - c0) st.Solver.conflicts;
      Alcotest.(check int)
        (name ^ ": its own propagations")
        (value propagations - p0) st.Solver.propagations;
      st
    in
    let first = call "first call" in
    Alcotest.(check bool)
      "first call propagated" true (first.Solver.propagations > 0);
    ignore (call "second call")
  | _ -> Alcotest.fail "Concretize.falsify lost the counter witness"

(* The unrolling's own flag decides whether its CNF and pins are
   checked: RFN_CHECK is set to the opposite value for each run. *)
let test_unrolling_check_flag () =
  let circuit = Helpers.counter_design ~width:3 ~limit:7 in
  let bad = Circuit.output circuit "at_limit" in
  let passes = Rfn_obs.Telemetry.counter "check.invariant_passes" in
  let saved = Option.value ~default:"" (Sys.getenv_opt "RFN_CHECK") in
  let checks_made check =
    Unix.putenv "RFN_CHECK" (if check then "0" else "1");
    let before = Rfn_obs.Telemetry.counter_value passes in
    let u = Sat_bmc.unrolling ~check circuit ~bad in
    (match Sat_bmc.falsify u ~max_depth:12 with
    | Concretize.Found _, _ -> ()
    | _ -> Alcotest.fail "counter witness not found");
    Rfn_obs.Telemetry.counter_value passes - before
  in
  let on = checks_made true and off = checks_made false in
  Unix.putenv "RFN_CHECK" saved;
  Alcotest.(check bool) "checked with ~check:true" true (on > 0);
  Alcotest.(check int) "unchecked with ~check:false" 0 off

(* ------------------------------------------------------------------ *)
(* Engine modes through the full CEGAR loop                            *)
(* ------------------------------------------------------------------ *)

let quick_config ?(inject = Some (fun _ -> None)) ~engines () =
  {
    Rfn.default_config with
    Rfn.max_iterations = 32;
    node_limit = 500_000;
    mc_max_steps = 200;
    engines;
    inject;
  }

let check_engine_modes ?spec name circuit prop =
  let verdict engines =
    let inject = Option.map Supervisor.inject_of_spec spec in
    let outcome, _ =
      Rfn.verify ~config:(quick_config ?inject ~engines ()) circuit prop
    in
    (match outcome with
    | Rfn.Falsified t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s(%s): trace replays" name
           (Rfn.engines_to_string engines))
        true
        (Sim3v.replay_concrete circuit t ~bad:prop.Property.bad)
    | _ -> ());
    match outcome with
    | Rfn.Proved -> "proved"
    | Rfn.Falsified _ -> "falsified"
    | Rfn.Aborted f -> "aborted: " ^ F.to_string f
  in
  let reference = verdict Rfn.Atpg_only in
  List.iter
    (fun engines ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s matches atpg" name
           (Rfn.engines_to_string engines))
        reference (verdict engines))
    [ Rfn.Sat_only; Rfn.Portfolio ]

let test_engine_modes_zoo () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let fc = fifo.Rfn_designs.Fifo.circuit in
  List.iter
    (fun (name, c, prop) -> check_engine_modes name c prop)
    [
      ( "arbiter/bad",
        Helpers.arbiter_design (),
        Property.of_output (Helpers.arbiter_design ()) "bad" );
      ( "counter3/at_limit",
        Helpers.counter_design ~width:3 ~limit:7,
        Property.of_output (Helpers.counter_design ~width:3 ~limit:7)
          "at_limit" );
      ("fifo_small/psh_hf", fc, fifo.Rfn_designs.Fifo.psh_hf);
      ("fifo_small/psh_full", fc, fifo.Rfn_designs.Fifo.psh_full);
    ]

let test_engine_modes_chaos () =
  (* Injected faults at every site: the portfolio's extra rungs must
     absorb them without changing any verdict. *)
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let fc = fifo.Rfn_designs.Fifo.circuit in
  List.iter
    (fun (name, c, prop) -> check_engine_modes ~spec:"all" name c prop)
    [
      ( "arbiter/bad+chaos",
        Helpers.arbiter_design (),
        Property.of_output (Helpers.arbiter_design ()) "bad" );
      ("fifo_small/psh_full+chaos", fc, fifo.Rfn_designs.Fifo.psh_full);
    ]

let test_unrolling_encoded_once () =
  (* Sat_only and Portfolio against the ATPG engine on the zoo: same
     verdicts, counterexamples that replay with the same length — and
     the run encodes the concrete cone once: sat.frames_encoded over one
     Rfn.verify is the deepest SAT query's depth, not the sum over the
     iterations that reached Step 3. *)
  let frames_encoded = Rfn_obs.Telemetry.counter "sat.frames_encoded" in
  let run engines circuit prop =
    (* in-process rungs only: a forked worker's encoding is not
       counted in this process *)
    let config =
      {
        (quick_config ~engines ()) with
        Rfn.proc = Rfn_proc.Proc.default_policy;
      }
    in
    let f0 = Rfn_obs.Telemetry.counter_value frames_encoded in
    let outcome, stats = Rfn.verify ~config circuit prop in
    (outcome, stats, Rfn_obs.Telemetry.counter_value frames_encoded - f0)
  in
  let show = function
    | Rfn.Proved -> "proved"
    | Rfn.Falsified t -> Printf.sprintf "falsified(%d)" (Trace.length t)
    | Rfn.Aborted f -> "aborted: " ^ F.to_string f
  in
  let repeated_queries = ref 0 in
  List.iter
    (fun (name, circuit, prop) ->
      let reference, _, _ = run Rfn.Atpg_only circuit prop in
      List.iter
        (fun engines ->
          let label = name ^ "/" ^ Rfn.engines_to_string engines in
          let outcome, stats, encoded = run engines circuit prop in
          (* same verdict and, when falsified, same counterexample
             length *)
          Alcotest.(check string) (label ^ ": matches atpg") (show reference)
            (show outcome);
          (match outcome with
          | Rfn.Falsified t ->
            Alcotest.(check bool)
              (label ^ ": trace replays") true
              (Sim3v.replay_concrete circuit t ~bad:prop.Property.bad)
          | _ -> ());
          let depths =
            List.filter_map
              (fun (p : Rfn_obs.Provenance.t) ->
                match p.Rfn_obs.Provenance.trace_depth with
                | Some d when p.Rfn_obs.Provenance.concretize <> "none" ->
                  Some d
                | _ -> None)
              stats.Rfn.provenance
          in
          let deepest = List.fold_left max 0 depths in
          match engines with
          | Rfn.Sat_only ->
            (* every Step-3 query runs on SAT here *)
            Alcotest.(check int)
              (label ^ ": frames encoded = deepest query")
              deepest encoded;
            if List.fold_left ( + ) 0 depths > deepest then
              incr repeated_queries
          | _ ->
            (* SAT backs ATPG up, so it may not run at all *)
            Alcotest.(check bool)
              (label ^ ": frames encoded <= deepest query")
              true (encoded <= deepest))
        [ Rfn.Sat_only; Rfn.Portfolio ])
    (Helpers.zoo ());
  (* the zoo must hold a run where re-encoding would show *)
  Alcotest.(check bool)
    "some SAT run made several Step-3 queries" true (!repeated_queries > 0)

let test_engines_of_string () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Rfn.engines_to_string e ^ " round-trips")
        true
        (Rfn.engines_of_string (Rfn.engines_to_string e) = e))
    [ Rfn.Atpg_only; Rfn.Sat_only; Rfn.Portfolio ];
  Alcotest.check_raises "unknown engine rejected"
    (Invalid_argument
       "unknown engine selection \"smt\" (expected atpg, sat or portfolio)")
    (fun () -> ignore (Rfn.engines_of_string "smt"))

let () =
  (* keep the differentials deterministic under the chaos CI job *)
  Unix.putenv "RFN_INJECT_FAULTS" "";
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "random CNF differential" `Quick
            test_random_cnf_differential;
          Alcotest.test_case "learned clauses entailed" `Quick
            test_learned_clauses_entailed;
          Alcotest.test_case "incremental differential on one instance" `Quick
            test_incremental_differential;
          Alcotest.test_case "assumptions and incrementality" `Quick
            test_assumptions;
          Alcotest.test_case "contradictory units" `Quick test_empty_clause;
          Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
        ] );
      ( "sat-bmc",
        [
          Alcotest.test_case "zoo differential vs ATPG BMC" `Quick
            test_bmc_differential;
          Alcotest.test_case "guided concretization" `Quick
            test_sat_guided_concretize;
          Alcotest.test_case "per-call stats on a shared unrolling" `Quick
            test_per_call_stats;
          Alcotest.test_case "invariant checks follow the unrolling's flag"
            `Quick test_unrolling_check_flag;
        ] );
      ( "engines",
        [
          Alcotest.test_case "zoo verdicts across engine modes" `Quick
            test_engine_modes_zoo;
          Alcotest.test_case "engine modes under chaos" `Quick
            test_engine_modes_chaos;
          Alcotest.test_case "one unrolling per run" `Quick
            test_unrolling_encoded_once;
          Alcotest.test_case "selection parsing" `Quick test_engines_of_string;
        ] );
    ]
