(* Golden differential for the CEGAR loop ([Rfn.verify_in_session]).

   golden/cegar.jsonl holds one line per case of the zoo (plus one
   combinational design) x {atpg, sat, portfolio} x {clean; faults:
   every supervised site faulted once; capped: max_iterations = 1}:
   the verdict, the printed counterexample, the abort's failure
   string, the supervisor events (site, rung label, resource: the
   shape of every ladder that stumbled) and every provenance record
   except its wall-clock [seconds] and the Figure-1 step counts
   ([no_cut_steps], [min_cut_steps]), which the file predates. Each
   line was recorded in a process of its own; here every case runs in
   one process, one after another, so the test also catches a
   provenance field that leaks from one run into the next. A line is
   exactly what [case_line] prints. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Supervisor = Rfn_core.Supervisor
module Session = Rfn_core.Session
module Atpg = Rfn_atpg.Atpg
module Json = Rfn_obs.Json
module Provenance = Rfn_obs.Provenance
module Telemetry = Rfn_obs.Telemetry

(* Every field written out, so neither the environment (RFN_ENGINE,
   RFN_CHECK, RFN_INJECT_FAULTS) nor a changed default can move a
   case. *)
let config ~engines ~mode =
  {
    Rfn.max_iterations = (if mode = "capped" then 1 else 64);
    node_limit = 2_000_000;
    mc_max_steps = 2_000;
    max_seconds = None;
    abstract_atpg = { Atpg.max_backtracks = 50_000; max_seconds = None };
    concrete_atpg = { Atpg.max_backtracks = 200_000; max_seconds = None };
    guidance_traces = 1;
    engines;
    analyze = false;
    supervisor =
      {
        Supervisor.node_limit_growth = 4;
        backtrack_growth = 2;
        backtrack_cap = 8;
        hybrid_share = 0.25;
        concretize_share = 0.5;
        refine_share = 0.25;
        grace_seconds = 1.0;
      };
    inject =
      Some
        (if mode = "faults" then Option.get (Supervisor.inject_of_spec "all")
         else fun _ -> None);
    session =
      {
        Session.reuse = true;
        grow_blowup = 8.0;
        min_nodes = 100_000;
        sift_passes = 1;
      };
    check_invariants = false;
    proc = { Rfn_proc.Proc.default_policy with Rfn_proc.Proc.enabled = false };
    checkpoint = None;
    resume = false;
    job_id = "";
  }

(* Past the zoo, a purely combinational property: its abstract model is
   closed from the start, so with Step 3 and crucial-register
   refinement faulted the refine ladder falls through highest-fanout
   to the BMC re-check. *)
let comb_design () =
  let c = Helpers.and_design () in
  ("comb/bad", c, Property.of_output c "bad")

let cases () =
  List.concat_map
    (fun (name, c, p) ->
      List.concat_map
        (fun engines ->
          List.map
            (fun mode -> (name, c, p, engines, mode))
            [ "clean"; "faults"; "capped" ])
        [ Rfn.Atpg_only; Rfn.Sat_only; Rfn.Portfolio ])
    (Helpers.zoo () @ [ comb_design () ])

let record_json ~drop r =
  match Provenance.to_json r with
  | Json.Obj fs ->
    Json.Obj (List.filter (fun (k, _) -> not (List.mem k drop)) fs)
  | j -> j

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

(* ["supervisor_failure concretize guided-atpg injected"], ... *)
let supervisor_events file =
  List.filter_map
    (fun l ->
      let j = Json.of_string l in
      let get k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
      let ev = get "ev" in
      if String.starts_with ~prefix:"supervisor_" ev then
        Some
          (Json.Str
             (String.concat " "
                (List.filter (( <> ) "")
                   [ ev; get "site"; get "rung"; get "resource" ])))
      else None)
    (read_lines file)

let case_line (name, c, p, engines, mode) =
  let events = Filename.temp_file "rfn_cegar" ".jsonl" in
  Telemetry.attach_jsonl events;
  let outcome, stats = Rfn.verify ~config:(config ~engines ~mode) c p in
  Telemetry.detach ();
  Telemetry.disable ();
  let rungs = supervisor_events events in
  Sys.remove events;
  let str s = Json.Str s in
  let verdict, cex, failure =
    match outcome with
    | Rfn.Proved -> ("proved", Json.Null, Json.Null)
    | Rfn.Falsified t ->
      ( "falsified",
        str (Format.asprintf "%a" (Trace.pp ~names:(Circuit.name c)) t),
        Json.Null )
    | Rfn.Aborted f -> ("aborted", Json.Null, str (Rfn_failure.to_string f))
  in
  let drop = [ "seconds"; "no_cut_steps"; "min_cut_steps" ] in
  Json.to_string
    (Json.Obj
       [
         ( "case",
           str
             (Printf.sprintf "%s %s %s" name
                (Rfn.engines_to_string engines)
                mode) );
         ("outcome", str verdict);
         ("cex", cex);
         ("failure", failure);
         ("rungs", Json.List rungs);
         ( "provenance",
           Json.List (List.map (record_json ~drop) stats.Rfn.provenance) );
       ])

let test_golden () =
  let golden = read_lines "golden/cegar.jsonl" in
  let cases = cases () in
  Alcotest.(check int) "one golden line per case" (List.length cases)
    (List.length golden);
  List.iter2
    (fun case expected ->
      let case_name =
        match Json.member "case" (Json.of_string expected) with
        | Some (Json.Str s) -> s
        | _ -> "?"
      in
      Alcotest.(check string) case_name expected (case_line case))
    cases golden

(* The BDD node gauge is process-global: a run must report its own
   peak, not one left behind by a larger run before it. *)
let test_no_leak_across_runs () =
  let zoo = Helpers.zoo () in
  let small = List.nth zoo 0 and large = List.nth zoo 3 in
  let run (_, c, p) =
    let config = config ~engines:Rfn.Atpg_only ~mode:"clean" in
    let _, stats = Rfn.verify ~config c p in
    List.map
      (fun r -> Json.to_string (record_json ~drop:[ "seconds" ] r))
      stats.Rfn.provenance
  in
  let first = run small in
  let large_peak = run large in
  Alcotest.(check bool) "the large case is larger" true (large_peak <> first);
  Alcotest.(check (list string)) "same records after a larger run" first
    (run small)

(* Records written before the Figure-1 step counts existed still load,
   and so do records that carry the since-removed [worker_failures]
   count, as checkpoints and metrics files of older versions do. *)
let test_old_record_loads () =
  let line = List.hd (read_lines "golden/cegar.jsonl") in
  match Json.member "provenance" (Json.of_string line) with
  | Some (Json.List (Json.Obj fs :: _)) ->
    List.iter
      (fun fs ->
        match
          Provenance.of_json (Json.Obj (("seconds", Json.Float 0.5) :: fs))
        with
        | Ok p ->
          Alcotest.(check (pair int int)) "absent step counts read as 0" (0, 0)
            (p.Provenance.no_cut_steps, p.Provenance.min_cut_steps)
        | Error msg -> Alcotest.fail msg)
      [ fs; ("worker_failures", Json.Int 0) :: fs ]
  | _ -> Alcotest.fail "golden line without provenance"

let () =
  Alcotest.run "cegar"
    [
      ( "cegar",
        [
          Alcotest.test_case "golden differential on the zoo" `Quick
            test_golden;
          Alcotest.test_case "no provenance leak across runs" `Quick
            test_no_leak_across_runs;
          Alcotest.test_case "pre-Figure-1 records load" `Quick
            test_old_record_loads;
        ] );
    ]
