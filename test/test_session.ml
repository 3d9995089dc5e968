(* Differential tests for the persistent verification session: the
   incremental mode (one BDD manager for the whole CEGAR run, varmap
   grown in place, cones and clusters carried) must be bit-identical
   to the from-scratch reference mode (a fresh empty manager per
   refinement under the identical variable assignment) — same
   verdicts, same per-iteration fixpoint step counts, same traces —
   on every design of the zoo, with and without injected faults. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Session = Rfn_core.Session
module Supervisor = Rfn_core.Supervisor
module Coverage = Rfn_core.Coverage
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Sim3v = Rfn_sim3v.Sim3v
module Telemetry = Rfn_obs.Telemetry
module F = Rfn_failure

(* Injection defaults to off (not deferred to RFN_INJECT_FAULTS) so
   the plain differential runs stay deterministic under the chaos CI
   job; the chaos variant below injects explicitly. *)
let config ?(inject = Some (fun _ -> None)) ~reuse () =
  {
    Rfn.default_config with
    Rfn.max_iterations = 32;
    node_limit = 500_000;
    mc_max_steps = 200;
    inject;
    session = { Session.default_policy with Session.reuse };
  }

let trace_literals t =
  ( Array.map Cube.to_list t.Trace.states,
    Array.map Cube.to_list t.Trace.inputs )

(* Run one property in both modes and compare everything observable.
   [spec] re-creates the fault-injection hook per run: the "all" hook
   is stateful (each site faults once), so each run needs its own. *)
let check_differential ?spec name circuit prop =
  let run ~reuse =
    let inject = Option.map Supervisor.inject_of_spec spec in
    Rfn.verify ~config:(config ?inject ~reuse ()) circuit prop
  in
  let outcome_inc, stats_inc = run ~reuse:true in
  let outcome_ref, stats_ref = run ~reuse:false in
  let steps stats =
    List.map (fun p -> p.Rfn_obs.Provenance.fixpoint_steps) stats.Rfn.provenance
  in
  Alcotest.(check (list int))
    (name ^ ": per-iteration fixpoint steps")
    (steps stats_ref) (steps stats_inc);
  Alcotest.(check int)
    (name ^ ": final abstract registers")
    stats_ref.Rfn.final_abstract_regs stats_inc.Rfn.final_abstract_regs;
  match (outcome_inc, outcome_ref) with
  | Rfn.Proved, Rfn.Proved -> ()
  | Rfn.Falsified ti, Rfn.Falsified tr ->
    Alcotest.(check bool)
      (name ^ ": identical counterexamples")
      true
      (trace_literals ti = trace_literals tr);
    Alcotest.(check bool)
      (name ^ ": incremental trace replays")
      true
      (Sim3v.replay_concrete circuit ti ~bad:prop.Property.bad)
  | Rfn.Aborted wi, Rfn.Aborted wr ->
    Alcotest.(check string)
      (name ^ ": identical aborts")
      (F.to_string wr) (F.to_string wi)
  | _ ->
    let show = function
      | Rfn.Proved -> "proved"
      | Rfn.Falsified _ -> "falsified"
      | Rfn.Aborted _ -> "aborted"
    in
    Alcotest.failf "%s: verdicts diverge (incremental %s, reference %s)" name
      (show outcome_inc) (show outcome_ref)

let test_differential_zoo () =
  List.iter
    (fun (name, c, prop) -> check_differential name c prop)
    (Helpers.zoo ())

let test_differential_chaos () =
  (* Every supervised site faults once: the abstract-MC retry becomes a
     session reset. Verdicts and step counts must still match between
     the modes, and resets must actually have happened. *)
  let resets () =
    Telemetry.counter_value (Telemetry.counter "session.resets")
  in
  let before = resets () in
  List.iter
    (fun (name, c, prop) ->
      check_differential ~spec:"all" (name ^ "+chaos") c prop)
    (Helpers.zoo ());
  Alcotest.(check bool)
    "chaos exercised session resets" true
    (resets () > before)

let test_differential_random () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25 ~name:"session differential on random circuits"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:12)
       (fun rc ->
         let prop = Property.make ~name:"out" ~bad:rc.Helpers.out in
         let run ~reuse =
           Rfn.verify ~config:(config ~reuse ()) rc.Helpers.circuit prop
         in
         let outcome_inc, stats_inc = run ~reuse:true in
         let outcome_ref, stats_ref = run ~reuse:false in
         let steps stats =
           List.map
             (fun p -> p.Rfn_obs.Provenance.fixpoint_steps)
             stats.Rfn.provenance
         in
         (match (outcome_inc, outcome_ref) with
         | Rfn.Proved, Rfn.Proved -> ()
         | Rfn.Falsified a, Rfn.Falsified b ->
           if trace_literals a <> trace_literals b then
             QCheck.Test.fail_report "traces diverge"
         | Rfn.Aborted _, Rfn.Aborted _ -> ()
         | _ -> QCheck.Test.fail_report "verdicts diverge");
         steps stats_inc = steps stats_ref))

(* ------------------------------------------------------------------ *)
(* Unit tests of the delta/grow layers                                 *)
(* ------------------------------------------------------------------ *)

let test_refine_delta_invariants () =
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let bad = Circuit.output c "at_limit" in
  let a0 = Abstraction.initial c ~roots:[ bad ] in
  (* The property cone reads the counter bits through pseudo-inputs. *)
  let p = List.hd (Abstraction.pseudo_inputs a0) in
  let a1, d = Abstraction.refine_delta a0 ~add:[ p ] in
  Alcotest.(check (list int)) "added" [ p ] d.Abstraction.added;
  Alcotest.(check (list int)) "promoted" [ p ] d.Abstraction.promoted;
  Alcotest.(check (list int)) "fresh" [] d.Abstraction.fresh_regs;
  Alcotest.(check int) "carried = old view size"
    (Bitset.cardinal a0.Abstraction.view.Sview.inside)
    d.Abstraction.carried_signals;
  Alcotest.(check int) "carried + new = new view size"
    (Bitset.cardinal a1.Abstraction.view.Sview.inside)
    (d.Abstraction.carried_signals + d.Abstraction.new_signals);
  List.iter
    (fun s ->
      Alcotest.(check bool) "new free input is free in the new view" true
        (Sview.is_free a1.Abstraction.view s);
      Alcotest.(check bool) "new free input was not free in the old view"
        false
        (Sview.is_free a0.Abstraction.view s))
    d.Abstraction.new_free_inputs

let test_grow_preserves_cones () =
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let bad = Circuit.output c "at_limit" in
  let a0 = Abstraction.initial c ~roots:[ bad ] in
  let p = List.hd (Abstraction.pseudo_inputs a0) in
  let vm = Varmap.make a0.Abstraction.view in
  let old_inp_var = Varmap.inp_var vm p in
  let memo = Hashtbl.create 97 in
  let compiled0 = Symbolic.compile_view vm a0.Abstraction.view ~memo in
  Alcotest.(check int) "initial compile covers the view"
    (Bitset.cardinal a0.Abstraction.view.Sview.inside)
    compiled0;
  let saved = Hashtbl.fold (fun s f acc -> (s, (f : Bdd.t :> int)) :: acc) memo [] in
  let a1, d = Abstraction.refine_delta a0 ~add:[ p ] in
  let vm = Varmap.grow vm ~view:a1.Abstraction.view d in
  (* The promoted pseudo-input's variable is re-rolled: same index, now
     a current-state variable with a fresh appended next-state one. *)
  Alcotest.(check int) "promoted keeps its variable" old_inp_var
    (Varmap.cur_var vm p);
  Alcotest.(check bool) "promoted's next-state variable is appended" true
    (Varmap.nxt_var vm p > old_inp_var);
  let compiled1 = Symbolic.compile_view vm a1.Abstraction.view ~memo in
  Alcotest.(check int) "incremental compile builds only the delta"
    d.Abstraction.new_signals compiled1;
  List.iter
    (fun (s, f) ->
      Alcotest.(check int) "carried cone BDDs unchanged" f
        ((Hashtbl.find memo s :> int)))
    saved

let test_replica_matches_grow () =
  let c = Helpers.deep_bug_design ~width:3 in
  let bad = Circuit.output c "bad" in
  let a0 = Abstraction.initial c ~roots:[ bad ] in
  let p = List.hd (Abstraction.pseudo_inputs a0) in
  let vm = Varmap.make a0.Abstraction.view in
  let rep = Varmap.replica vm in
  let a1, d = Abstraction.refine_delta a0 ~add:[ p ] in
  let grown = Varmap.grow vm ~view:a1.Abstraction.view d in
  let replicated = Varmap.grow rep ~view:a1.Abstraction.view d in
  Alcotest.(check int) "same variable count"
    (Bdd.nvars (Varmap.man grown))
    (Bdd.nvars (Varmap.man replicated));
  Array.iter
    (fun r ->
      Alcotest.(check int) "cur vars agree" (Varmap.cur_var grown r)
        (Varmap.cur_var replicated r);
      Alcotest.(check int) "nxt vars agree" (Varmap.nxt_var grown r)
        (Varmap.nxt_var replicated r))
    a1.Abstraction.view.Sview.regs;
  Array.iter
    (fun s ->
      Alcotest.(check int) "inp vars agree" (Varmap.inp_var grown s)
        (Varmap.inp_var replicated s))
    a1.Abstraction.view.Sview.free_inputs

let test_session_counters () =
  (* A multi-iteration proof must reuse cones and clusters. *)
  let v name = Telemetry.counter_value (Telemetry.counter name) in
  let reused0 = v "session.cones_reused"
  and clusters0 = v "session.clusters_reused"
  and grow0 = v "session.grow_in_place" in
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  (match
     Rfn.verify
       ~config:(config ~reuse:true ())
       fifo.Rfn_designs.Fifo.circuit fifo.Rfn_designs.Fifo.psh_hf
   with
  | Rfn.Proved, stats ->
    Alcotest.(check bool) "fifo refines at least once" true
      (List.length stats.Rfn.provenance > 1)
  | _ -> Alcotest.fail "fifo psh_hf should be proved");
  Alcotest.(check bool) "cones were reused" true
    (v "session.cones_reused" > reused0);
  Alcotest.(check bool) "clusters were reused" true
    (v "session.clusters_reused" > clusters0);
  Alcotest.(check bool) "growth happened in place" true
    (v "session.grow_in_place" > grow0)

let test_blowup_policy_recovers () =
  (* An absurdly tight blow-up threshold forces the sift-then-rebuild
     path on every refinement; the verdict must survive it. *)
  let rebuilds0 =
    Telemetry.counter_value (Telemetry.counter "session.grow_rebuilds")
  in
  let cfg =
    {
      (config ~reuse:true ()) with
      Rfn.session =
        {
          Session.default_policy with
          Session.grow_blowup = 0.01;
          min_nodes = 1;
        };
    }
  in
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  (match
     Rfn.verify ~config:cfg fifo.Rfn_designs.Fifo.circuit
       fifo.Rfn_designs.Fifo.psh_hf
   with
  | Rfn.Proved, _ -> ()
  | _ -> Alcotest.fail "fifo psh_hf should be proved under forced rebuilds");
  Alcotest.(check bool) "threshold forced rebuilds" true
    (Telemetry.counter_value (Telemetry.counter "session.grow_rebuilds")
    > rebuilds0)

(* Right after a prepare, the session's manager protects exactly its
   cones, its clusters and the quantified copies (tagged with that
   manager), and the image equals the unscheduled one even after a
   collection between build and post. *)
let check_prepared label s =
  let p = Session.prepare s in
  let vm = p.Session.vm in
  let man = Varmap.man vm in
  let cache = Session.cache s in
  let copies =
    match cache.Rfn_mc.Image.quantified with
    | Some (m, qs) when m == man -> Array.to_list qs
    | Some _ -> Alcotest.fail (label ^ ": copies tagged with another manager")
    | None -> Alcotest.fail (label ^ ": no quantified copies")
  in
  let owned =
    List.map p.Session.fn (Session.cone_signals s)
    @ Array.to_list cache.Rfn_mc.Image.clusters
    @ copies
  in
  Alcotest.(check (list int))
    (label ^ ": protected set = cones + clusters + copies")
    (Helpers.handles owned)
    (Helpers.protected_handles man);
  let sources = Helpers.image_sources vm in
  let expected =
    List.map (Helpers.unscheduled_post vm ~fn:p.Session.fn) sources
  in
  Bdd.gc man ~roots:(sources @ expected);
  List.iter2
    (fun q e ->
      Alcotest.(check bool) (label ^ ": post = unscheduled") true
        (Bdd.equal (Rfn_mc.Image.post p.Session.img q) e))
    sources expected

(* The quantified copies through every session path that moves or
   drops handles: a refinement that promotes a pseudo-input, a
   retarget, a reset, and a blow-up that sifts and rebuilds. *)
let test_quantified_copies_follow_the_manager () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let c = fifo.Rfn_designs.Fifo.circuit in
  let hf = Property.roots fifo.Rfn_designs.Fifo.psh_hf
  and full = Property.roots fifo.Rfn_designs.Fifo.psh_full in
  let refine_once label s =
    match Abstraction.pseudo_inputs (Session.abstraction s) with
    | [] -> Alcotest.fail (label ^ ": no pseudo-input to promote")
    | p :: _ ->
      let d = Session.refine s ~add:[ p ] in
      Alcotest.(check (list int)) (label ^ ": promoted") [ p ]
        d.Abstraction.promoted;
      check_prepared label s
  in
  let s = Session.create c ~roots:hf in
  check_prepared "fresh" s;
  refine_once "promoted" s;
  let { Session.fn; vm; _ } = Session.prepare s in
  Session.retarget s ~roots:full;
  (* before the next prepare collects: only the carried cones stay *)
  Alcotest.(check (list int)) "retargeted: only the carried cones protected"
    (Helpers.handles (List.map fn (Session.cone_signals s)))
    (Helpers.protected_handles (Varmap.man vm));
  check_prepared "retargeted" s;
  refine_once "retargeted, promoted" s;
  Session.reset s;
  check_prepared "reset" s;
  let rebuilds () =
    Telemetry.counter_value (Telemetry.counter "session.grow_rebuilds")
  in
  let rebuilds0 = rebuilds () in
  let s =
    Session.create
      ~policy:
        {
          Session.default_policy with
          Session.grow_blowup = 0.01;
          min_nodes = 1;
        }
      c ~roots:hf
  in
  check_prepared "blow-up policy, fresh" s;
  refine_once "sifted and rebuilt" s;
  Alcotest.(check bool) "the blow-up rebuilt the manager" true
    (rebuilds () > rebuilds0)

(* ------------------------------------------------------------------ *)
(* Failure-surfacing regressions                                       *)
(* ------------------------------------------------------------------ *)

let test_bfs_failure_surfaced () =
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let coverage = Array.to_list c.Circuit.registers in
  (* Step budget 0: the fixpoint aborts before closing — previously
     swallowed, now a structured failure in the report. *)
  (match Coverage.bfs_analysis ~max_steps:0 c ~coverage with
  | { Coverage.failure = Some f; unreachable; _ } ->
    Alcotest.(check bool) "aborted on steps" true (f.F.resource = F.Steps);
    Alcotest.(check int) "no unreachability conclusions" 0 unreachable
  | { Coverage.failure = None; _ } ->
    Alcotest.fail "step-bounded bfs_analysis must surface a failure");
  (* Node budget too small even for the initial cones. *)
  match Coverage.bfs_analysis ~node_limit:4 c ~coverage with
  | { Coverage.failure = Some f; _ } ->
    Alcotest.(check bool) "aborted on nodes" true (f.F.resource = F.Nodes)
  | { Coverage.failure = None; _ } ->
    Alcotest.fail "node-starved bfs_analysis must surface a failure"

let test_bfs_success_has_no_failure () =
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let coverage = Array.to_list c.Circuit.registers in
  match Coverage.bfs_analysis c ~coverage with
  | { Coverage.failure = None; _ } -> ()
  | { Coverage.failure = Some f; _ } ->
    Alcotest.fail ("unexpected failure: " ^ F.to_string f)

let test_check_coi_node_exhaustion () =
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  let prop = Property.of_output c "at_limit" in
  match Rfn.check_coi_model_checking ~node_limit:4 c prop with
  | `Aborted r, _ -> Alcotest.(check bool) "maps to Nodes" true (r = F.Nodes)
  | (`Proved | `Reached _), _ ->
    Alcotest.fail "a 4-node budget cannot model-check the counter"

(* A root missing from the sift translation table must raise an
   [Invalid_argument] naming the structure (a bare [Hashtbl.find] here
   used to escape as an anonymous [Not_found]). *)
let test_translate_root_message () =
  let man = Bdd.create ~nvars:2 () in
  let v0 = Bdd.var man 0 and v1 = Bdd.var man 1 in
  let tr = Hashtbl.create 7 in
  Hashtbl.replace tr v0 v1;
  Alcotest.(check bool) "a mapped root translates" true
    (Session.translate_root tr ~what:"cone cache" v0 == v1);
  try
    ignore (Session.translate_root tr ~what:"cone cache" v1);
    Alcotest.fail "a missing root must raise"
  with Invalid_argument msg ->
    Alcotest.(check string) "missing root names the structure"
      "Session.adopt_sifted: cone cache missing from the sift translation"
      msg

let tests =
  [
    Alcotest.test_case "incremental vs from-scratch on the zoo" `Quick
      test_differential_zoo;
    Alcotest.test_case "differential holds under all-site chaos" `Quick
      test_differential_chaos;
    Alcotest.test_case "differential holds on random circuits" `Quick
      test_differential_random;
    Alcotest.test_case "refine_delta reports exact deltas" `Quick
      test_refine_delta_invariants;
    Alcotest.test_case "grow preserves carried cones" `Quick
      test_grow_preserves_cones;
    Alcotest.test_case "replica+grow matches in-place grow" `Quick
      test_replica_matches_grow;
    Alcotest.test_case "session telemetry proves reuse" `Quick
      test_session_counters;
    Alcotest.test_case "blow-up policy recovers the verdict" `Quick
      test_blowup_policy_recovers;
    Alcotest.test_case "quantified copies follow the manager" `Quick
      test_quantified_copies_follow_the_manager;
    Alcotest.test_case "bfs_analysis surfaces engine failures" `Quick
      test_bfs_failure_surfaced;
    Alcotest.test_case "clean bfs_analysis reports no failure" `Quick
      test_bfs_success_has_no_failure;
    Alcotest.test_case "check_coi maps node exhaustion" `Quick
      test_check_coi_node_exhaustion;
    Alcotest.test_case "translate_root names the structure" `Quick
      test_translate_root_message;
  ]

let () = Alcotest.run "session" [ ("session", tests) ]
