(* Golden differential for the view kernels: ATPG, min-cut, SCOAP,
   packed simulation and CNF encoding on the abstract models a CEGAR
   run visits.

   golden/kernels.jsonl holds one line per (zoo case, view): the
   initial abstraction of the case's property and every abstraction its
   ATPG-engine CEGAR run refines to, rebuilt from the provenance's
   promoted registers, and last the whole design, the view of
   concretization. Each line records, on that view:
   - [Atpg.solve] with the bad signal pinned at the last frame, for
     frames 1-3, with and without [~random_phase] and [~free_init]:
     the answer (the printed trace for Sat) and the stats;
   - [Mincut.compute]'s cut (by name) and free-cut gate count;
   - a digest of the SCOAP (cc0, cc1) pair of every signal of the view,
     in ascending signal order;
   - a digest of one fixed-pattern [Packed.eval] over every signal of
     the view, and its [sim.packed_words] bump;
   - the [Cnf] variable and clause counts of a 3-frame unrolling and a
     digest of its literal map.
   A line is exactly what [view_line] prints; [test_kernels.exe
   --print], run from the test directory, prints every line. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Atpg = Rfn_atpg.Atpg
module Mincut = Rfn_mincut.Mincut
module Sim3v = Rfn_sim3v.Sim3v
module Packed = Sim3v.Packed
module Cnf = Rfn_sat.Cnf
module Solver = Rfn_sat.Solver
module Json = Rfn_obs.Json
module Telemetry = Rfn_obs.Telemetry

(* Every field the environment could move is pinned. *)
let config =
  {
    Rfn.default_config with
    abstract_atpg = { Atpg.max_backtracks = 50_000; max_seconds = None };
    concrete_atpg = { Atpg.max_backtracks = 200_000; max_seconds = None };
    engines = Rfn.Atpg_only;
    inject = Some (fun _ -> None);
    check_invariants = false;
    proc = { Rfn_proc.Proc.default_policy with Rfn_proc.Proc.enabled = false };
  }

(* The abstractions of one CEGAR run: the initial model, then one per
   refinement, adding the registers the provenance names. *)
let abstractions c p =
  let _, stats = Rfn.verify ~config c p in
  let a0 = Abstraction.initial c ~roots:(Property.roots p) in
  List.rev
    (List.fold_left
       (fun acc r ->
         match (r.Rfn_obs.Provenance.promoted, acc) with
         | [], _ | _, [] -> acc
         | names, a :: _ ->
           Abstraction.refine a ~add:(List.map (Circuit.find c) names) :: acc)
       [ a0 ] stats.Rfn.provenance)

let digest to_string xs =
  Digest.to_hex (Digest.string (String.concat "," (List.map to_string xs)))

(* The view's signals in ascending order, as slots of its kernels'
   per-signal arrays. *)
let slots view = List.init (Sview.net view).Vnet.size Fun.id

let scoap view =
  let cc0, cc1 = Lazy.force (Sview.net view).Vnet.scoap in
  List.map (fun l -> (cc0.(l), cc1.(l))) (slots view)

let tern h =
  match h mod 3 with 0 -> Sim3v.V0 | 1 -> Sim3v.V1 | _ -> Sim3v.VX

let packed view =
  let words = Telemetry.counter "sim.packed_words" in
  let before = Telemetry.counter_value words in
  let pattern tag s =
    Packed.of_fun (fun lane -> tern (Hashtbl.hash (tag, s, lane)))
  in
  let vec = Packed.eval view ~free:(pattern 'f') ~state:(pattern 's') in
  let planes =
    List.map
      (fun l -> (vec.Packed.vones.(l), vec.Packed.vunks.(l)))
      (slots view)
  in
  (planes, Telemetry.counter_value words - before)

let atpg_json c view ~bad =
  let names = Circuit.name c in
  Json.List
    (List.concat_map
       (fun frames ->
         List.concat_map
           (fun free_init ->
             List.map
               (fun random_phase ->
                 let answer, stats =
                   Atpg.solve ~free_init ~random_phase view ~frames
                     ~pins:[ (frames - 1, bad, true) ]
                     ()
                 in
                 let answer =
                   match answer with
                   | Atpg.Sat t -> Format.asprintf "sat %a" (Trace.pp ~names) t
                   | Atpg.Unsat -> "unsat"
                   | Atpg.Abort r -> "abort " ^ Rfn_failure.resource_to_string r
                 in
                 Json.Str
                   (Printf.sprintf "f%d init=%b rp=%b d=%d b=%d %s" frames
                      free_init random_phase stats.Atpg.decisions
                      stats.Atpg.backtracks answer))
               [ true; false ])
           [ false; true ])
       [ 1; 2; 3 ])

let view_line name c p i view =
  let bad = p.Property.bad in
  let mc = Mincut.compute view in
  let planes, words = packed view in
  let cnf = Cnf.create view in
  Cnf.extend cnf ~frames:3;
  let clauses = ref 0 in
  Solver.iter_clauses (Cnf.solver cnf) (fun _ -> incr clauses);
  let lits =
    List.concat_map
      (fun frame ->
        List.map
          (fun s -> Cnf.lit_of cnf ~frame s)
          (Bitset.to_list view.Sview.inside))
      [ 0; 1; 2 ]
  in
  let str s = Json.Str s and int n = Json.Int n in
  let pair (x, y) = Printf.sprintf "%d/%d" x y in
  Json.to_string
    (Json.Obj
       [
         ("case", str (Printf.sprintf "%s #%d" name i));
         ("regs", int (Sview.num_regs view));
         ("signals", int (Bitset.cardinal view.Sview.inside));
         ("atpg", atpg_json c view ~bad);
         ("cut", Json.List (List.map (fun s -> str (Circuit.name c s)) mc.cut));
         ("free_cut_gates", int mc.Mincut.free_cut_gates);
         ("scoap", str (digest pair (scoap view)));
         ("packed", str (digest pair planes));
         ("packed_words", int words);
         ("cnf_vars", int (Solver.nvars (Cnf.solver cnf)));
         ("cnf_clauses", int !clauses);
         ("cnf_lits", str (digest string_of_int lits));
       ])

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let lines () =
  List.concat_map
    (fun (name, c, p) ->
      List.mapi (view_line name c p)
        (List.map (fun a -> a.Abstraction.view) (abstractions c p)
        @ [ Sview.whole c ~roots:[ p.Property.bad ] ]))
    (Helpers.zoo ())

let test_golden () =
  let golden = read_lines "golden/kernels.jsonl" in
  let lines = lines () in
  Alcotest.(check int) "one golden line per view" (List.length golden)
    (List.length lines);
  List.iter2 (Alcotest.(check string) "kernel line") golden lines

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter print_endline (lines ())
  else
    Alcotest.run "kernels"
      [
        ( "kernels",
          [
            Alcotest.test_case "golden kernels on the zoo's abstractions"
              `Quick test_golden;
          ] );
      ]
