(* Golden differential for the coverage analyses on Table 2's seven
   coverage sets (IU1-5 on the picoJava integer unit, USB1-2 on the
   USB controller).

   golden/coverage.jsonl holds two lines per set: [Coverage.rfn_analysis]
   under a cap of [max_iterations] refinement iterations and
   [Coverage.bfs_analysis] on a [bfs_k]-register model. Each line records the
   report's counts, iterations and abstract-model size, and a digest of
   its [status] array (one character per coverage-state code). Every
   configuration field is pinned and no wall-clock budget is set, so
   the lines depend on the program only. A line is exactly what
   [line] prints; [test_coverage_golden.exe --print], run from the test
   directory, prints every line. *)

module Coverage = Rfn_core.Coverage
module Rfn = Rfn_core.Rfn
module Session = Rfn_core.Session
module Supervisor = Rfn_core.Supervisor
module Atpg = Rfn_atpg.Atpg
module Json = Rfn_obs.Json

(* Small enough to keep the test to seconds: four refinement
   iterations, and a 20-register BFS model, which on these sets finds
   what the paper's 60 registers find in over ten times the time. *)
let max_iterations = 4
let bfs_k = 20

let config =
  {
    Rfn.max_iterations;
    node_limit = 2_000_000;
    mc_max_steps = 2_000;
    max_seconds = None;
    abstract_atpg = { Atpg.max_backtracks = 50_000; max_seconds = None };
    concrete_atpg = { Atpg.max_backtracks = 200_000; max_seconds = None };
    guidance_traces = 1;
    engines = Rfn.Atpg_only;
    analyze = false;
    supervisor = Supervisor.default_policy;
    inject = Some (fun _ -> None);
    session = Session.default_policy;
    check_invariants = false;
    proc = { Rfn_proc.Proc.default_policy with Rfn_proc.Proc.enabled = false };
    checkpoint = None;
    resume = false;
    job_id = "";
  }

let status_digest status =
  Digest.to_hex
    (Digest.string
       (String.init (Array.length status) (fun i ->
            match status.(i) with
            | Coverage.Unknown -> '?'
            | Coverage.Unreachable -> 'u'
            | Coverage.Reachable -> 'r')))

let line set analysis (r : Coverage.report) =
  Json.to_string
    (Json.Obj
       [
         ("set", Json.Str set);
         ("analysis", Json.Str analysis);
         ("total", Json.Int r.Coverage.total);
         ("unreachable", Json.Int r.Coverage.unreachable);
         ("reachable", Json.Int r.Coverage.reachable);
         ("unknown", Json.Int r.Coverage.unknown);
         ("iterations", Json.Int r.Coverage.iterations);
         ("abstract_regs", Json.Int r.Coverage.abstract_regs);
         ( "failure",
           match r.Coverage.failure with
           | None -> Json.Null
           | Some f -> Json.Str (Rfn_failure.to_string f) );
         ("status", Json.Str (status_digest r.Coverage.status));
       ])

let lines () =
  let iu = Rfn_designs.Picojava_iu.make () in
  let usb = Rfn_designs.Usb.make () in
  List.concat_map
    (fun (circuit, sets) ->
      List.concat_map
        (fun (set, coverage) ->
          let rfn = Coverage.rfn_analysis ~config circuit ~coverage in
          let bfs = Coverage.bfs_analysis ~k:bfs_k circuit ~coverage in
          [ line set "rfn" rfn; line set "bfs" bfs ])
        sets)
    [
      (iu.Rfn_designs.Picojava_iu.circuit, iu.coverage_sets);
      (usb.Rfn_designs.Usb.circuit, usb.coverage_sets);
    ]

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden () =
  let golden = read_lines "golden/coverage.jsonl" in
  let lines = lines () in
  Alcotest.(check int) "two golden lines per set" (List.length golden)
    (List.length lines);
  List.iter2 (Alcotest.(check string) "coverage line") golden lines

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter print_endline (lines ())
  else
    Alcotest.run "coverage_golden"
      [
        ( "golden",
          [
            Alcotest.test_case "Table 2 sets, rfn and bfs analyses" `Quick
              test_golden;
          ] );
      ]
