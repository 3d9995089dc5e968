(* rfn — command-line front end: verify unreachability properties or
   run coverage analysis on netlist files. Netlists load through
   [Netlist_io]: ".aig" is binary AIGER, ".aag" ascii AIGER, anything
   else ISCAS ".bench". *)

open Cmdliner
open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Coverage = Rfn_core.Coverage
module Telemetry = Rfn_obs.Telemetry
module Lint = Rfn_lint.Lint
module Analysis = Rfn_analysis.Analysis

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

(* Each subcommand body is a chain of [result] steps: [Ok code] is the
   exit code, [Error msg] a user error, printed as "error: msg" with
   exit 1. *)
let ( let* ) = Result.bind

let exit_code = function
  | Ok code -> code
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    1

let load path =
  try Ok (Netlist_io.load path) with Failure msg | Sys_error msg -> Error msg

let output_property circuit name =
  try Ok (Property.of_output circuit name)
  with Invalid_argument _ -> Error (Printf.sprintf "no output named %S" name)

(* Write a user-named output file: an I/O failure (a missing
   directory, no permission) is a user error; [Ok ok] otherwise. *)
let write_out ~ok f =
  match f () with () -> Ok ok | exception Sys_error msg -> Error msg

let netlist_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ])

let config_of ~max_seconds ~node_limit ~max_iterations ~engines ~analyze
    ~inject ~checkpoint ~resume =
  {
    Rfn.default_config with
    Rfn.max_seconds;
    node_limit;
    max_iterations;
    engines;
    analyze;
    inject;
    checkpoint;
    resume;
  }

(* Engine selection for the falsification phases; the default defers to
   the RFN_ENGINE environment variable (and then to ATPG). *)
let engines_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("atpg", Rfn.Atpg_only);
             ("sat", Rfn.Sat_only);
             ("portfolio", Rfn.Portfolio);
           ])
        (Rfn.engines_of_env ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Concretization/re-check engine(s): $(b,atpg) (the paper's guided \
           sequential ATPG), $(b,sat) (incremental SAT bounded model \
           checking) or $(b,portfolio) (ATPG first, SAT as a supervisor \
           fallback rung).")

(* Shared telemetry flags: --metrics-out streams JSONL events,
   --trace-out writes a Chrome trace-event file, --profile prints a
   wall-time/counter report when the run ends. *)

let metrics_out_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Stream telemetry events (CEGAR-phase spans, engine metrics) to \
           $(docv) as JSON Lines.")

let trace_out_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file to $(docv): one complete event \
           per CEGAR-phase span plus instant and counter events. Load it in \
           Perfetto (ui.perfetto.dev) or chrome://tracing.")

let profile_arg =
  Cmdliner.Arg.(
    value
    & flag
    & info [ "profile" ]
        ~doc:
          "Record telemetry and print an end-of-run report: per-phase wall \
           time, engine counters, BDD cache hit rate.")

(* Open the telemetry sinks, run [f], and tear down whatever happens,
   so --metrics-out / --trace-out files are flushed and well-formed
   even when the engine aborts by exception. *)
let with_telemetry ?trace_out ~metrics_out ~profile f =
  match
    Option.iter Telemetry.attach_jsonl metrics_out;
    Option.iter Telemetry.attach_trace trace_out
  with
  | exception Sys_error msg -> Error ("cannot open telemetry sink: " ^ msg)
  | () ->
    if profile then Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        if profile then Format.printf "%a" Telemetry.pp_report ();
        Telemetry.detach ())
      f

(* --analyze pre-flight shared by verify, bmc and serve: infer and
   inductively prove netlist invariants, then feed them to every
   engine. *)
let analyze_arg =
  Cmdliner.Arg.(
    value
    & flag
    & info [ "analyze" ]
        ~doc:
          "Run the static invariant-inference pre-flight (abstract \
           interpretation + SAT sweeping, every invariant inductively \
           proved) and feed the proven invariants to the engines: a care \
           set for the abstract fixpoint, persistent clauses for the SAT \
           unrollings, a don't-care filter for guided ATPG.")

(* --lint pre-flight shared by verify and bmc: refuse to start an
   engine on a design the linter rejects. *)
let lint_arg =
  Cmdliner.Arg.(
    value
    & flag
    & info [ "lint" ]
        ~doc:
          "Run the static lint passes on the design and property first; \
           refuse to verify when any $(b,error)-severity finding is \
           reported.")

let preflight ~enabled circuit props =
  if not enabled then true
  else begin
    let report = Lint.run ~props circuit in
    if Lint.errors report > 0 then begin
      Format.eprintf "%a" Lint.pp_report report;
      Format.eprintf "lint: refusing to run (error findings above)@.";
      false
    end
    else true
  end

(* ---- rfn verify ---------------------------------------------------- *)

let verify_cmd =
  let prop =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT" ~doc:"Output signal acting as the bad-state indicator.")
  in
  let seconds =
    Arg.(value & opt (some float) None & info [ "time-limit" ] ~docv:"S")
  in
  let nodes =
    Arg.(value & opt int 2_000_000 & info [ "node-limit" ] ~docv:"N")
  in
  let iters = Arg.(value & opt int 64 & info [ "max-iterations" ] ~docv:"N") in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the error trace (if any) to $(docv).")
  in
  let baseline = Arg.(value & flag & info [ "baseline" ]
                        ~doc:"Also run plain COI model checking.") in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Persist the CEGAR loop state to $(docv) at every iteration \
             boundary (atomic writes, keyed by a netlist digest). The file \
             is removed on a conclusive verdict and kept on abort.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the $(b,--checkpoint) file if it exists and \
             matches this design and property; otherwise warn and start \
             fresh.")
  in
  (* Hidden chaos-testing knob: force one fault per listed supervisor
     site and watch the retry/fallback ladders recover. *)
  let inject_faults =
    Arg.(
      value
      & opt ~vopt:(Some "all") (some string) None
      & info [ "inject-faults" ] ~docv:"SITES" ~docs:Cmdliner.Manpage.s_none)
  in
  let run netlist prop seconds nodes iters engines analyze trace_out baseline
      checkpoint resume inject_faults lint metrics_out chrome_trace
      profile verbose =
    setup_logs verbose;
    exit_code
    @@
    let* circuit = load netlist in
    let* property = output_property circuit prop in
    if not (preflight ~enabled:lint circuit [ property ]) then Ok 1
    else
      let* inject =
        match inject_faults with
        | None -> Ok None
        | Some spec -> (
          (* "off" parses to no hook; still pass an inert one so the
             environment variable cannot re-enable injection *)
          try
            Ok
              (Some
                 (match Rfn_core.Supervisor.inject_of_spec spec with
                 | Some hook -> hook
                 | None -> fun _ -> None))
          with Invalid_argument msg -> Error msg)
      in
      with_telemetry ?trace_out:chrome_trace ~metrics_out ~profile @@ fun () ->
      let config =
        config_of ~max_seconds:seconds ~node_limit:nodes ~max_iterations:iters
          ~engines ~analyze ~inject ~checkpoint ~resume
      in
      let outcome, stats = Rfn.verify ~config circuit property in
      Format.printf
        "COI: %d registers, %d gates; %d iteration(s); final abstract model: \
         %d registers; %.2fs@."
        stats.Rfn.coi_regs stats.Rfn.coi_gates
        (List.length stats.Rfn.provenance - stats.Rfn.resumed_iterations)
        stats.Rfn.final_abstract_regs stats.Rfn.seconds;
      if stats.Rfn.resumed_iterations > 0 then
        Format.printf "resumed past %d checkpointed iteration(s)@."
          stats.Rfn.resumed_iterations;
      if baseline then begin
        let verdict, secs =
          Rfn.check_coi_model_checking ?max_seconds:seconds circuit property
        in
        Format.printf "COI model checking baseline: %s (%.2fs)@."
          (match verdict with
          | `Proved -> "True"
          | `Reached k -> Printf.sprintf "False at depth %d" k
          | `Aborted r -> "fails — " ^ Rfn_failure.resource_to_string r)
          secs
      end;
      match outcome with
      | Rfn.Proved ->
        Format.printf "RESULT: True (bad states unreachable)@.";
        Ok 0
      | Rfn.Falsified trace -> (
        Format.printf "RESULT: False — %d-cycle error trace@."
          (Trace.length trace - 1);
        let pp_trace ppf =
          Format.fprintf ppf "%a@." (Trace.pp ~names:(Circuit.name circuit))
            trace
        in
        match trace_out with
        | Some file ->
          write_out ~ok:2 (fun () ->
              let oc = open_out file in
              pp_trace (Format.formatter_of_out_channel oc);
              close_out oc)
        | None ->
          pp_trace Format.std_formatter;
          Ok 2)
      | Rfn.Aborted why ->
        Format.printf "RESULT: inconclusive (%s)@." (Rfn_failure.to_string why);
        Ok 3
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify that an output signal can never be driven to 1.")
    Term.(
      const run $ netlist_arg $ prop $ seconds $ nodes $ iters $ engines_arg
      $ analyze_arg $ trace_out $ baseline $ checkpoint $ resume
      $ inject_faults $ lint_arg $ metrics_out_arg $ trace_out_arg
      $ profile_arg $ verbose_arg)

(* ---- rfn coverage --------------------------------------------------- *)

let coverage_cmd =
  let signals =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"REGISTER" ~doc:"Coverage signals (register names).")
  in
  let budget = Arg.(value & opt float 60.0 & info [ "budget" ] ~docv:"S") in
  let bfs = Arg.(value & flag & info [ "bfs" ] ~doc:"Use the BFS baseline.") in
  let bfs_k = Arg.(value & opt int 60 & info [ "bfs-k" ] ~docv:"N") in
  let run netlist signals budget bfs bfs_k metrics_out profile verbose =
    setup_logs verbose;
    exit_code
    @@
    let* circuit = load netlist in
    let* coverage =
      try Ok (List.map (Circuit.find circuit) signals)
      with Not_found -> Error "unknown coverage signal"
    in
    with_telemetry ~metrics_out ~profile @@ fun () ->
    let* report =
      try
        Ok
          (if bfs then
             Coverage.bfs_analysis ~k:bfs_k ~max_seconds:budget circuit
               ~coverage
           else
             Coverage.rfn_analysis
               ~config:
                 {
                   Rfn.default_config with
                   Rfn.max_seconds = Some budget;
                   max_iterations = 1_000;
                 }
               circuit ~coverage)
      with Invalid_argument msg ->
        (* a coverage set that is not registers, or too large *)
        Error msg
    in
    Format.printf
      "%d coverage states: %d unreachable, %d proven reachable, %d unknown \
       (%.2fs; abstract model %d registers)@."
      report.Coverage.total report.Coverage.unreachable
      report.Coverage.reachable report.Coverage.unknown report.Coverage.seconds
      report.Coverage.abstract_regs;
    Ok 0
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Identify unreachable coverage states over a register set.")
    Term.(
      const run $ netlist_arg $ signals $ budget $ bfs $ bfs_k
      $ metrics_out_arg $ profile_arg $ verbose_arg)

(* ---- rfn bmc --------------------------------------------------------- *)

let bmc_cmd =
  let prop =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT")
  in
  let depth = Arg.(value & opt int 50 & info [ "depth" ] ~docv:"N") in
  let backtracks =
    Arg.(value & opt int 200_000 & info [ "max-backtracks" ] ~docv:"N")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("atpg", `Atpg); ("sat", `Sat) ]) `Atpg
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Search engine: $(b,atpg) (sequential ATPG per depth) or \
             $(b,sat) (one incremental CNF instance across depths; \
             --max-backtracks bounds conflicts).")
  in
  let run netlist prop depth backtracks engine analyze lint =
    exit_code
    @@
    let* circuit = load netlist in
    let* property = output_property circuit prop in
    if not (preflight ~enabled:lint circuit [ property ]) then Ok 1
    else
      let bad = property.Property.bad in
      let limits =
        { Rfn_atpg.Atpg.max_backtracks = backtracks; max_seconds = None }
      in
      (* --analyze: the SAT engine consumes the proven invariants as
         persistent clauses; plain per-depth ATPG has no clause
         database, so there the pre-flight only reports. *)
      let analysis =
        if not analyze then None
        else begin
          let a = Analysis.run circuit in
          Format.eprintf
            "analysis: %d invariant(s) proved (%d candidate(s), %.2fs)@."
            a.Analysis.stats.Analysis.proved
            a.Analysis.stats.Analysis.candidates a.Analysis.seconds;
          Some a
        end
      in
      let outcome, describe =
        match engine with
        | `Atpg ->
          let outcome, stats =
            Rfn_core.Concretize.falsify ~limits circuit ~bad ~max_depth:depth
          in
          ( outcome,
            fun () ->
              Printf.sprintf "%d decisions, %d backtracks"
                stats.Rfn_atpg.Atpg.decisions stats.Rfn_atpg.Atpg.backtracks )
        | `Sat ->
          let outcome, stats =
            Rfn_core.Sat_bmc.(
              falsify ~limits
                (unrolling ?analysis
                   ~check:(Rfn_lint.Check.env_enabled ())
                   circuit ~bad)
                ~max_depth:depth)
          in
          ( outcome,
            fun () ->
              Printf.sprintf "%d decisions, %d conflicts, %d propagations"
                stats.Rfn_sat.Solver.decisions stats.Rfn_sat.Solver.conflicts
                stats.Rfn_sat.Solver.propagations )
      in
      match outcome with
      | Rfn_core.Concretize.Found trace ->
        Format.printf "violated at depth %d (%s)@.%a@."
          (Trace.length trace - 1)
          (describe ())
          (Trace.pp ~names:(Circuit.name circuit))
          trace;
        Ok 2
      | Rfn_core.Concretize.Not_found_here ->
        Format.printf "no violation within %d cycles@." depth;
        Ok 0
      | Rfn_core.Concretize.Gave_up { frames; _ } ->
        Format.printf "gave up at depth %d (resource limit)@." frames;
        Ok 3
  in
  Cmd.v
    (Cmd.info "bmc"
       ~doc:
         "Bounded falsification without abstraction or guidance, by plain \
          sequential ATPG or incremental SAT — the baselines RFN's guided \
          search improves on.")
    Term.(
      const run $ netlist_arg $ prop $ depth $ backtracks $ engine
      $ analyze_arg $ lint_arg)

(* ---- rfn lint --------------------------------------------------------- *)

let lint_cmd =
  let props =
    Arg.(
      value
      & pos_right 0 string []
      & info [] ~docv:"OUTPUT"
          ~doc:
            "Output signals to lint as properties (bad-state indicators). \
             Defaults to every declared output.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the findings as a JSON object.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"PASSES"
          ~doc:"Comma-separated pass names to run (default: all).")
  in
  let run netlist prop_names json only metrics_out profile =
    exit_code
    @@
    let* circuit = load netlist in
    let names =
      match prop_names with
      | [] -> List.map fst circuit.Circuit.outputs
      | names -> names
    in
    let* props =
      try Ok (List.map (Property.of_output circuit) names)
      with Invalid_argument _ ->
        Error
          (Printf.sprintf "unknown output among %s" (String.concat ", " names))
    in
    with_telemetry ~metrics_out ~profile @@ fun () ->
    let only = Option.map (String.split_on_char ',') only in
    let* report =
      try Ok (Lint.run ?only ~props circuit)
      with Invalid_argument msg -> Error msg
    in
    if json then
      print_endline (Rfn_obs.Json.to_string (Lint.report_to_json circuit report))
    else Format.printf "%a" Lint.pp_report report;
    Ok (if Lint.errors report > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (design and property lints) and \
          report structured findings; exits 1 when any error-severity \
          finding is reported.")
    Term.(
      const run $ netlist_arg $ props $ json $ only $ metrics_out_arg
      $ profile_arg)

(* ---- rfn analyze ------------------------------------------------------ *)

let analyze_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the proven invariants and statistics as a JSON object \
             (signal ids, machine-readable).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Use the reduced mining/proving budget the lint passes use \
             (fewer simulation patterns, a smaller conflict limit).")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the candidate-mining simulation. Only the candidate \
             set depends on it — everything reported is still inductively \
             proved.")
  in
  let merge =
    Arg.(
      value
      & opt (some string) None
      & info [ "merge" ] ~docv:"FILE"
          ~doc:
            "Apply the proven equivalences to the netlist — every redundant \
             signal rewired to its surviving representative \
             ($(b,Opt.merge_equivalences)) — and write the merged design to \
             $(docv) (extension picks the format, as in $(b,simplify -o)).")
  in
  let run netlist json quick seed merge metrics_out profile =
    exit_code
    @@
    let* circuit = load netlist in
    with_telemetry ~metrics_out ~profile @@ fun () ->
    let config =
      {
        (if quick then Analysis.quick_config else Analysis.default_config) with
        Analysis.seed;
      }
    in
    let a = Analysis.run ~config circuit in
    if json then print_endline (Rfn_obs.Json.to_string (Analysis.to_json a))
    else begin
      List.iter
        (fun inv -> Format.printf "  %s@." (Analysis.describe circuit inv))
        a.Analysis.invariants;
      Format.printf "%d candidate(s): %d proved, %d refuted, %d unknown (%.2fs)@."
        a.Analysis.stats.Analysis.candidates a.Analysis.stats.Analysis.proved
        a.Analysis.stats.Analysis.refuted a.Analysis.stats.Analysis.unknown
        a.Analysis.seconds
    end;
    match merge with
    | None -> Ok 0
    | Some file ->
      let merged, _, applied =
        Opt.merge_equivalences circuit (Analysis.equiv_pairs a)
      in
      Telemetry.add (Telemetry.counter "analysis.merged_gates") applied;
      Format.eprintf "merged %d equivalent signal(s): %d -> %d signals@."
        applied
        (Circuit.num_signals circuit)
        (Circuit.num_signals merged);
      write_out ~ok:0 (fun () ->
          Netlist_io.save ~bads:(List.map fst merged.Circuit.outputs) file merged)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Infer netlist invariants by abstract interpretation over packed \
          ternary simulation (constant registers, implication pairs, \
          one-hot/mutex register groups) and SAT sweeping (equivalent \
          signals), prove each candidate by induction, and report only the \
          proven ones. The same invariants feed the verification engines \
          under $(b,verify --analyze).")
    Term.(
      const run $ netlist_arg $ json $ quick $ seed $ merge $ metrics_out_arg
      $ profile_arg)

(* ---- rfn simplify ----------------------------------------------------- *)

let simplify_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run netlist out =
    exit_code
    @@
    let* circuit = load netlist in
    let circuit', _, report = Opt.simplify circuit in
    Format.eprintf "gates: %d -> %d; registers: %d -> %d; %d constants folded@."
      report.Opt.gates_before report.Opt.gates_after report.Opt.registers_before
      report.Opt.registers_after report.Opt.constants_folded;
    match out with
    | Some file ->
      (* the extension picks the writer, so `simplify -o x.aig`
         converts between front-end formats as a side effect *)
      write_out ~ok:0 (fun () ->
          Netlist_io.save ~bads:(List.map fst circuit'.Circuit.outputs) file
            circuit')
    | None ->
      print_string (Bench_io.to_string circuit');
      Ok 0
  in
  Cmd.v
    (Cmd.info "simplify"
       ~doc:
         "Constant propagation, structural rewriting and dead-logic \
          sweeping; writes the simplified netlist.")
    Term.(const run $ netlist_arg $ out)

(* ---- rfn serve ------------------------------------------------------ *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (connections served \
             sequentially; the warm-session pool persists across them) \
             instead of speaking JSONL over stdin/stdout.")
  in
  let max_sessions =
    Arg.(
      value & opt int 4
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Warm-session LRU capacity: at most $(docv) designs keep their \
             symbolic state resident; the least-recently used is evicted \
             beyond that.")
  in
  let max_nodes =
    Arg.(
      value & opt int 8_000_000
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Pool-wide live BDD node cap: after each job, least-recently \
             used sessions are evicted until the total drops under $(docv) \
             (the session just used is never evicted).")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Checkpoint every job's loop state to \
             $(docv)/<digest>-<property>-<job>.json, keyed by job id, and \
             resume from it when present — a restarted server continues \
             killed jobs at their last completed refinement.")
  in
  let run socket max_sessions max_nodes checkpoint_dir engines analyze
      metrics_out chrome_trace profile verbose =
    setup_logs verbose;
    exit_code
    @@ with_telemetry ?trace_out:chrome_trace ~metrics_out ~profile
    @@ fun () ->
    let config =
      config_of ~max_seconds:Rfn.default_config.Rfn.max_seconds
        ~node_limit:Rfn.default_config.Rfn.node_limit
        ~max_iterations:Rfn.default_config.Rfn.max_iterations ~engines ~analyze
        ~inject:None ~checkpoint:None ~resume:false
    in
    let limits =
      { Rfn_serve.Server.max_sessions = max 1 max_sessions; max_nodes }
    in
    let jobs =
      match socket with
      | None ->
        Rfn_serve.Server.run ~limits ~config ?checkpoint_dir ~input:Unix.stdin
          ~output:stdout ()
      | Some path ->
        Rfn_serve.Server.serve_socket ~limits ~config ?checkpoint_dir ~path ()
    in
    Format.eprintf "served %d job(s)@." jobs;
    Ok 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running verification service: accept (design, property, \
          budget) jobs as JSON Lines over stdio or a Unix socket, group \
          properties sharing a cone of influence onto warm sessions, and \
          answer one result line per job (verdict, trace or structured \
          failure, per-job counters and provenance).")
    Term.(
      const run $ socket $ max_sessions $ max_nodes $ checkpoint_dir
      $ engines_arg $ analyze_arg $ metrics_out_arg $ trace_out_arg
      $ profile_arg $ verbose_arg)

(* ---- rfn explain ---------------------------------------------------- *)

let explain_cmd =
  let metrics =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"METRICS"
          ~doc:
            "JSON Lines telemetry file written by a $(b,verify \
             --metrics-out) run.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the provenance records as a JSON array instead of prose.")
  in
  let run metrics json =
    let module Json = Rfn_obs.Json in
    let module Provenance = Rfn_obs.Provenance in
    (* A file from a crashed or killed run commonly ends in a torn
       line (a partial JSON object, or half a UTF-8 sequence). Every
       malformed line — torn tail or mid-file corruption — is skipped
       with a warning and counted; whatever parsed is still replayed,
       with a recovery summary so a partial story is never mistaken
       for a complete one. *)
    exit_code
    @@
    match
      let ic = open_in metrics in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let records = ref [] in
          let skipped = ref 0 in
          let lineno = ref 0 in
          (try
             while true do
               incr lineno;
               let line = input_line ic in
               if String.trim line <> "" then
                 match Json.of_string line with
                 | exception Failure msg ->
                   incr skipped;
                   Format.eprintf "warning: %s:%d: skipping: %s@." metrics
                     !lineno msg
                 | j -> (
                   match Json.member "ev" j with
                   | Some (Json.Str "rfn.iteration") -> (
                     match Provenance.of_json j with
                     | Ok p ->
                       (* server streams stamp each event with its job
                          id; a single-run file has no "job" field and
                          groups under "" *)
                       let job =
                         match
                           Option.bind (Json.member "job" j) Json.to_str
                         with
                         | Some id -> id
                         | None -> ""
                       in
                       records := (job, p) :: !records
                     | Error field ->
                       incr skipped;
                       Format.eprintf
                         "warning: %s:%d: skipping bad rfn.iteration record \
                          (%s)@."
                         metrics !lineno field)
                   | _ -> ())
             done
           with End_of_file -> ());
          (List.rev !records, !skipped))
    with
    | exception Sys_error msg -> Error msg
    | [], skipped ->
      Error
        (Printf.sprintf
           "no rfn.iteration records in %s%s (was the run made with \
            --metrics-out?)"
           metrics
           (if skipped > 0 then
              Printf.sprintf " after skipping %d malformed line(s)" skipped
            else ""))
    | records, skipped ->
      (* De-interleave a multi-job server stream: group by job id in
         first-appearance order, each group narrated on its own. A
         single-run file (no job ids) keeps the original output. *)
      let groups =
        let order = ref [] in
        let tbl = Hashtbl.create 7 in
        List.iter
          (fun (job, p) ->
            match Hashtbl.find_opt tbl job with
            | Some ps -> ps := p :: !ps
            | None ->
              Hashtbl.add tbl job (ref [ p ]);
              order := job :: !order)
          records;
        List.rev_map
          (fun job -> (job, List.rev !(Hashtbl.find tbl job)))
          !order
      in
      (match groups with
      | [ (_, ps) ] ->
        if json then
          print_endline
            (Json.to_string (Json.List (List.map Provenance.to_json ps)))
        else Format.printf "%a" Provenance.pp_story ps
      | groups ->
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  (List.map
                     (fun (job, ps) ->
                       (job, Json.List (List.map Provenance.to_json ps)))
                     groups)))
        else
          List.iter
            (fun (job, ps) ->
              Format.printf "== job %s ==@.%a"
                (if job = "" then "<unscoped>" else job)
                Provenance.pp_story ps)
            groups);
      if skipped > 0 then
        Format.eprintf
          "warning: recovered %d record(s); skipped %d malformed line(s) — \
           the story above may be incomplete@."
          (List.length records) skipped;
      Ok 0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay the refinement story of a previous run from its \
          --metrics-out file: per-iteration engine choices, abstraction \
          growth, concretization outcomes and resource use. A multi-job \
          $(b,serve) stream is split by job id (one story per job; with \
          $(b,--json), an object keyed by job id) instead of interleaving \
          iterations from different jobs.")
    Term.(const run $ metrics $ json)

(* ---- rfn stats ------------------------------------------------------ *)

let stats_cmd =
  let roots =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"SIGNAL"
           ~doc:"Optional root signals for a COI report.")
  in
  let run netlist roots =
    exit_code
    @@
    let* circuit = load netlist in
    Format.printf "%a@." Circuit.pp_stats circuit;
    (match roots with
    | [] -> ()
    | names -> (
      match List.map (Circuit.find circuit) names with
      | exception Not_found -> Format.eprintf "warning: unknown root@."
      | roots ->
        let coi = Coi.compute circuit ~roots in
        Format.printf "COI of %s: %d registers, %d gates@."
          (String.concat ", " names) (Coi.num_regs coi) (Coi.num_gates coi)));
    Ok 0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print design statistics and optional COI sizes.")
    Term.(const run $ netlist_arg $ roots)

let () =
  let doc = "formal property verification by abstraction refinement" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "rfn" ~version:"1.0.0" ~doc)
          [
            verify_cmd;
            coverage_cmd;
            bmc_cmd;
            lint_cmd;
            analyze_cmd;
            simplify_cmd;
            serve_cmd;
            explain_cmd;
            stats_cmd;
          ]))
