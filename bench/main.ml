(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the ablations, and runs Bechamel microbenchmarks of
   the engine primitives.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table1          # one target
     dune exec bench/main.exe table1 --baseline
     dune exec bench/main.exe table2 --budget 1800   # the paper's budget
     dune exec bench/main.exe -- --small      # scaled-down designs
     BENCH_QUICK=1 dune exec bench/main.exe   # CI smoke: JSON summary only
     dune exec bench/main.exe -- check --baseline BENCH_baseline.json
                                              # perf gate vs a committed baseline

   Every run (and the `json` target alone) also writes BENCH_rfn.json:
   a machine-readable per-design summary (seconds, iterations, peak BDD
   nodes, ATPG backtracks) so the perf trajectory accumulates across
   changes. BENCH_QUICK=1 (or --quick) verifies only the brute-forceable
   FIFO instance, exercising the emission path in seconds.

   Targets: table1 table2 figure1 guidance subsetting refine micro json
   check all *)

open Rfn_circuit
module E = Rfn_experiments.Experiments
module Rfn = Rfn_core.Rfn
module Atpg = Rfn_atpg.Atpg
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Sim3v = Rfn_sim3v.Sim3v
module Mincut = Rfn_mincut.Mincut
module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json
module Lint = Rfn_lint.Lint
module Analysis = Rfn_analysis.Analysis

let has flag = Array.exists (( = ) flag) Sys.argv

let float_arg name default =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then float_of_string Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let string_arg name default =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let section title =
  Format.printf "@.=== %s ===@.@." title

(* ---- microbenchmarks (Bechamel) ------------------------------------ *)

let micro () =
  let open Bechamel in
  section "Microbenchmarks (engine primitives)";
  (* shared workloads *)
  let fifo = Rfn_designs.Fifo.make () in
  let fifo_c = fifo.Rfn_designs.Fifo.circuit in
  let proc = Rfn_designs.Processor.(make ~params:small ()) in
  let proc_c = proc.Rfn_designs.Processor.circuit in
  let big_proc = lazy (Rfn_designs.Processor.make ()) in

  let bdd_image_step () =
    (* one post-image on the FIFO property's refined abstraction *)
    let abs =
      Abstraction.with_regs fifo_c
        ~roots:[ fifo.psh_hf.Property.bad ]
        ~regs:
          (List.filter_map
             (fun n ->
               match Circuit.find fifo_c n with
               | s -> Some s
               | exception Not_found -> None)
             [ "count_0"; "count_1"; "count_2"; "count_3"; "count_4"; "hf_flag" ])
    in
    let vm = Varmap.make abs.Abstraction.view in
    let img = Image.make vm in
    let init = Symbolic.initial_states vm in
    ignore (Image.post img (Image.post img init))
  in
  let atpg_trace_check () =
    (* sequential ATPG over 8 frames of the small processor *)
    let view = Sview.whole proc_c ~roots:[ proc.error_flag.Property.bad ] in
    ignore
      (Atpg.solve view ~frames:8
         ~pins:[ (7, proc.error_flag.Property.bad, true) ]
         ())
  in
  let sim_step () =
    let view = Sview.whole fifo_c ~roots:[] in
    let state = ref (fun _ -> Sim3v.V0) in
    for _ = 1 to 10 do
      let _, next =
        Sim3v.step view ~free:(fun _ -> Sim3v.VX) ~state:!state
      in
      state := next
    done
  in
  let mincut_bench () =
    let abs =
      Abstraction.initial proc_c ~roots:[ proc.error_flag.Property.bad ]
    in
    ignore (Mincut.compute abs.Abstraction.view)
  in
  let force_bench () =
    let abs =
      Abstraction.initial fifo_c ~roots:[ fifo.psh_hf.Property.bad ]
    in
    ignore (Varmap.make abs.Abstraction.view)
  in
  let fifo_verify () =
    ignore (Rfn.verify fifo_c fifo.psh_full)
  in
  let coi_big () =
    let p = Lazy.force big_proc in
    ignore
      (Coi.compute p.Rfn_designs.Processor.circuit
         ~roots:[ p.mutex.Property.bad ])
  in
  let tests =
    Test.make_grouped ~name:"rfn" ~fmt:"%s/%s"
      [
        Test.make ~name:"bdd-image-step" (Staged.stage bdd_image_step);
        Test.make ~name:"atpg-8-frames" (Staged.stage atpg_trace_check);
        Test.make ~name:"sim3v-10-cycles" (Staged.stage sim_step);
        Test.make ~name:"mincut-abstract-model" (Staged.stage mincut_bench);
        Test.make ~name:"force-varmap" (Staged.stage force_bench);
        Test.make ~name:"rfn-verify-fifo-full" (Staged.stage fifo_verify);
        Test.make ~name:"coi-5000-regs" (Staged.stage coi_big);
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second 1.0)
      ~kde:None ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name res acc -> (name, res) :: acc) results []
    |> List.sort compare
  in
  Format.printf "%-28s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some (t :: _) ->
        let pretty =
          if t > 1e9 then Printf.sprintf "%8.2f s " (t /. 1e9)
          else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
          else Printf.sprintf "%8.2f ns" t
        in
        Format.printf "%-28s %14s@." name pretty
      | _ -> Format.printf "%-28s %14s@." name "n/a")
    rows

(* ---- machine-readable summary (BENCH_rfn.json) ---------------------- *)

(* Replay the same workloads as one JSONL batch through the real server
   ({!Rfn_serve.Server.run} over temp files) so BENCH_rfn.json records
   what warm-session reuse buys over the per-property cold runs: the
   serve.* counters genuinely bump, and every verdict must agree with
   the cold phase. [cold] carries (name, result, cones_recompiled,
   seconds) per cold run. *)
let serve_batch ~workloads ~cold () =
  let module Protocol = Rfn_serve.Protocol in
  let module Server = Rfn_serve.Server in
  Telemetry.reset ();
  Telemetry.enable ();
  let infile = Filename.temp_file "rfn_serve" ".in.jsonl" in
  let outfile = Filename.temp_file "rfn_serve" ".out.jsonl" in
  let oc = open_out infile in
  List.iter
    (fun (name, circuit, prop) ->
      let submit =
        {
          Protocol.id = name;
          design = Protocol.Netlist (Bench_io.to_string circuit);
          property = prop.Property.name;
          budget = Protocol.no_budget;
        }
      in
      output_string oc (Json.to_string (Protocol.submit_to_json submit));
      output_char oc '\n')
    workloads;
  output_string oc {|{"op":"shutdown"}|};
  output_char oc '\n';
  close_out oc;
  let input = Unix.openfile infile [ Unix.O_RDONLY ] 0 in
  let output = open_out outfile in
  let config = { Rfn.default_config with Rfn.check_invariants = true } in
  let t0 = Unix.gettimeofday () in
  let completed =
    Fun.protect
      ~finally:(fun () ->
        Unix.close input;
        close_out_noerr output)
      (fun () -> Server.run ~config ~input ~output ())
  in
  let seconds_batch = Unix.gettimeofday () -. t0 in
  let verdicts =
    let ic = open_in outfile in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
            match Json.of_string line with
            | exception Failure _ -> go acc
            | j -> (
              match Json.member "ev" j with
              | Some (Json.Str "result") -> (
                let get k = Option.bind (Json.member k j) Json.to_str in
                match (get "id", get "verdict") with
                | Some id, Some v -> go ((id, v) :: acc)
                | _ -> go acc)
              | _ -> go acc))
        in
        go [])
  in
  Sys.remove infile;
  Sys.remove outfile;
  let agrees cold_result verdict =
    match cold_result with
    | "T" -> verdict = "proved"
    | "F" -> verdict = "falsified"
    | _ -> verdict = "aborted"
  in
  let verdicts_match =
    List.length verdicts = List.length cold
    && List.for_all
         (fun (name, result, _, _) ->
           match List.assoc_opt name verdicts with
           | Some v -> agrees result v
           | None -> false)
         cold
  in
  let count name = Telemetry.counter_value (Telemetry.counter name) in
  let cones_recompiled_cold =
    List.fold_left (fun acc (_, _, n, _) -> acc + n) 0 cold
  in
  let seconds_cold =
    List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 cold
  in
  Format.printf
    "  serve batch: %d job(s), %d warm reuse(s), cones recompiled %d (cold \
     %d), %.2fs (cold %.2fs)@."
    completed
    (count "serve.sessions_reused")
    (count "session.cones_recompiled")
    cones_recompiled_cold seconds_batch seconds_cold;
  Json.Obj
    [
      ("jobs_completed", Json.Int completed);
      ("sessions_created", Json.Int (count "serve.sessions_created"));
      ("sessions_reused", Json.Int (count "serve.sessions_reused"));
      ("cones_recompiled_cold", Json.Int cones_recompiled_cold);
      ("cones_recompiled_batch", Json.Int (count "session.cones_recompiled"));
      ("cones_reused_batch", Json.Int (count "session.cones_reused"));
      ("seconds_cold", Json.Float seconds_cold);
      ("seconds_batch", Json.Float seconds_batch);
      ("verdicts_match", Json.Bool verdicts_match);
    ]

(* Scalar-vs-packed ternary simulation on the largest workload of the
   run: the same pseudo-random pattern set simulated once through the
   scalar evaluator (one pattern at a time) and once through
   [Sim3v.Packed] ([lanes] patterns per word), with a lane-0
   agreement audit. The perf gate enforces the speedup whenever the
   baseline records this phase. *)
let sim_phase ~quick ~workloads () =
  let name, circuit, _ =
    List.fold_left
      (fun ((_, bc, _) as best) ((_, c, _) as w) ->
        if Circuit.num_signals c > Circuit.num_signals bc then w else best)
      (List.hd workloads) (List.tl workloads)
  in
  let view =
    Sview.whole circuit ~roots:(List.map snd circuit.Circuit.outputs)
  in
  let lanes = Sim3v.Packed.lanes in
  let runs = if quick then 4 else 8 in
  let cycles = if quick then 16 else 32 in
  let patterns = runs * lanes in
  let tern h =
    match h mod 3 with 0 -> Sim3v.V0 | 1 -> Sim3v.V1 | _ -> Sim3v.VX
  in
  let init_at p r = tern (Hashtbl.hash (p, 'r', r)) in
  let input_at p cycle s = tern (Hashtbl.hash (p, cycle, s)) in
  let c_words = Telemetry.counter "sim.packed_words" in
  let w0 = Telemetry.counter_value c_words in
  let t0 = Unix.gettimeofday () in
  let pvecs =
    Array.init runs (fun run ->
        Sim3v.Packed.run view
          ~init:(fun r ->
            Sim3v.Packed.of_fun (fun lane -> init_at ((run * lanes) + lane) r))
          ~inputs:(fun ~cycle s ->
            Sim3v.Packed.of_fun (fun lane ->
                input_at ((run * lanes) + lane) cycle s))
          ~cycles)
  in
  let seconds_packed = Unix.gettimeofday () -. t0 in
  let packed_words = Telemetry.counter_value c_words - w0 in
  let sample = ref [||] in
  let t1 = Unix.gettimeofday () in
  for p = 0 to patterns - 1 do
    let frames =
      Sim3v.run view ~init:(init_at p)
        ~inputs:(fun ~cycle s -> input_at p cycle s)
        ~cycles
    in
    if p = 0 then sample := frames
  done;
  let seconds_scalar = Unix.gettimeofday () -. t1 in
  let agree = ref true in
  Array.iteri
    (fun cyc frame ->
      Array.iteri
        (fun s v ->
          if Sim3v.Packed.read_lane pvecs.(0).(cyc) s ~lane:0 <> v then
            agree := false)
        frame)
    !sample;
  let speedup =
    if seconds_packed > 0.0 then seconds_scalar /. seconds_packed
    else float_of_int patterns
  in
  Format.printf
    "  sim phase (%s): %d pattern(s) x %d cycle(s) — scalar %.3fs, packed \
     %.3fs (%.1fx, agree %b)@."
    name patterns cycles seconds_scalar seconds_packed speedup !agree;
  Json.Obj
    [
      ("design", Json.Str name);
      ("patterns", Json.Int patterns);
      ("cycles", Json.Int cycles);
      ("seconds_scalar", Json.Float seconds_scalar);
      ("seconds_packed", Json.Float seconds_packed);
      ("speedup", Json.Float speedup);
      ("packed_words", Json.Int packed_words);
      ("agree", Json.Bool !agree);
    ]

(* ---- static-analysis phase (invariant inference) -------------------- *)

(* The [--analyze] differential: the same property verified with the
   invariant pre-flight off and on. Verdicts must agree (the pre-flight
   only consumes proven facts); the constant-chain design is the
   committed witness that the care set actually buys something — the
   fixpoint closes without any refinement, so the analyzed run takes
   strictly fewer CEGAR iterations. The perf gate enforces [improved]
   whenever the baseline records this phase. *)
let analysis_phase () =
  let chain =
    let module B = Circuit.Builder in
    let b = B.create () in
    let go = B.input b "go" in
    let k = 6 in
    let regs =
      Array.init k (fun i -> B.reg b ~init:`Zero (Printf.sprintf "r%d" i))
    in
    for i = 0 to k - 2 do
      B.connect b regs.(i) regs.(i + 1)
    done;
    B.connect b regs.(k - 1) (B.const b false);
    B.output b "bad" (B.and2 b regs.(0) go);
    B.finalize b
  in
  let prop = Property.of_output chain "bad" in
  let g_nodes = Telemetry.gauge "bdd.live_nodes" in
  let run analyze =
    Telemetry.reset ();
    Telemetry.enable ();
    let config = { Rfn.default_config with Rfn.analyze } in
    let outcome, stats = Rfn.verify ~config chain prop in
    let result =
      match outcome with
      | Rfn.Proved -> "T"
      | Rfn.Falsified _ -> "F"
      | Rfn.Aborted why -> "abort: " ^ Rfn_failure.to_string why
    in
    (result, List.length stats.Rfn.provenance, Telemetry.gauge_peak g_nodes)
  in
  let r_off, it_off, nodes_off = run false in
  let r_on, it_on, nodes_on = run true in
  let improved =
    r_off = r_on && (it_on < it_off || nodes_on < nodes_off)
  in
  Format.printf
    "  analysis differential (const_chain6): off %s in %d iteration(s) \
     (peak %d nodes), on %s in %d iteration(s) (peak %d nodes) — improved \
     %b@."
    r_off it_off nodes_off r_on it_on nodes_on improved;
  Json.Obj
    [
      ("design", Json.Str "const_chain6");
      ("result_off", Json.Str r_off);
      ("result_on", Json.Str r_on);
      ("iterations_off", Json.Int it_off);
      ("iterations_on", Json.Int it_on);
      ("peak_bdd_nodes_off", Json.Int nodes_off);
      ("peak_bdd_nodes_on", Json.Int nodes_on);
      ("improved", Json.Bool improved);
    ]

let bench_json ~quick () =
  section "JSON summary (BENCH_rfn.json)";
  let workloads =
    if quick then begin
      let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
      let c = fifo.Rfn_designs.Fifo.circuit in
      [
        ("fifo_small/psh_hf", c, fifo.psh_hf);
        ("fifo_small/psh_full", c, fifo.psh_full);
      ]
    end
    else begin
      let fifo = Rfn_designs.Fifo.make () in
      let fc = fifo.Rfn_designs.Fifo.circuit in
      let proc = Rfn_designs.Processor.(make ~params:small ()) in
      let pc = proc.Rfn_designs.Processor.circuit in
      [
        ("fifo/psh_hf", fc, fifo.psh_hf);
        ("fifo/psh_af", fc, fifo.psh_af);
        ("fifo/psh_full", fc, fifo.psh_full);
        ("processor_small/mutex", pc, proc.mutex);
        ("processor_small/error_flag", pc, proc.error_flag);
      ]
    end
  in
  let g_nodes = Telemetry.gauge "bdd.live_nodes" in
  let c_backtracks = Telemetry.counter "atpg.backtracks" in
  let c_packed_words = Telemetry.counter "sim.packed_words" in
  let atpg_counters =
    List.map
      (fun name -> (name, Telemetry.counter ("atpg." ^ name)))
      [ "scoap_cache_hits"; "scoap_cache_misses"; "random_sat";
        "random_rounds" ]
  in
  let h_image = Telemetry.histogram "mc.image_seconds" in
  let sat_counters =
    List.map
      (fun name -> (name, Telemetry.counter ("sat." ^ name)))
      [ "conflicts"; "propagations"; "learned"; "restarts"; "frames_reused" ]
  in
  (* A shallow SAT-vs-ATPG BMC cross-check per design: keeps the sat.*
     counters live in every row and records whether the two engine
     families agree at the shared depth. *)
  let sat_cross_check circuit (prop : Property.t) =
    let limits = { Atpg.max_backtracks = 50_000; max_seconds = Some 5.0 } in
    let bad = prop.Property.bad in
    let depth = 5 in
    let a, _ = Rfn_core.Bmc.falsify ~limits circuit ~bad ~max_depth:depth in
    let s, _ =
      Rfn_core.Sat_bmc.(
        falsify ~limits (unrolling circuit ~bad) ~max_depth:depth)
    in
    match (a, s) with
    | Rfn_core.Bmc.Found ta, Rfn_core.Bmc.Found ts ->
      Trace.length ta = Trace.length ts
    | Rfn_core.Bmc.Exhausted, Rfn_core.Bmc.Exhausted -> true
    | Rfn_core.Bmc.Gave_up _, _ | _, Rfn_core.Bmc.Gave_up _ -> true
    | _ -> false
  in
  let c_retries = Telemetry.counter "supervisor.retries" in
  let c_fallbacks = Telemetry.counter "supervisor.fallbacks" in
  let c_escalations = Telemetry.counter "supervisor.escalations" in
  let session_counter name = Telemetry.counter ("session." ^ name) in
  let session_counters =
    List.map
      (fun name -> (name, session_counter name))
      [
        "cones_reused"; "cones_recompiled"; "clusters_reused";
        "clusters_rebuilt"; "grow_in_place"; "grow_sifted"; "grow_rebuilds";
        "resets";
      ]
  in
  let g_carried = Telemetry.gauge "session.nodes_carried" in
  let was_enabled = Telemetry.enabled () in
  (* one inference run per distinct design (fifo carries three
     properties); invariants are facts about the design, not the
     property, mirroring the warm-session cache *)
  let analysis_memo = ref [] in
  let analysis_of circuit =
    match List.assq_opt circuit !analysis_memo with
    | Some a -> a
    | None ->
      let a = Analysis.run circuit in
      analysis_memo := (circuit, a) :: !analysis_memo;
      a
  in
  let cold = ref [] in
  let rows =
    List.map
      (fun (name, circuit, prop) ->
        Telemetry.reset ();
        Telemetry.enable ();
        let lint_report = Lint.run ~props:[ prop ] circuit in
        (* verify with phase-boundary invariant checks on, so every row
           also records how many artifact audits the run survived *)
        let config =
          { Rfn.default_config with Rfn.check_invariants = true }
        in
        let outcome, stats = Rfn.verify ~config circuit prop in
        let sat_agrees = sat_cross_check circuit prop in
        let analysis = analysis_of circuit in
        let result =
          match outcome with
          | Rfn.Proved -> "T"
          | Rfn.Falsified _ -> "F"
          | Rfn.Aborted why -> "abort: " ^ Rfn_failure.to_string why
        in
        Format.printf "  %-28s %-6s %6.2fs  %d iteration(s)@." name result
          stats.Rfn.seconds
          (List.length stats.Rfn.provenance);
        cold :=
          ( name,
            result,
            Telemetry.counter_value (session_counter "cones_recompiled"),
            stats.Rfn.seconds )
          :: !cold;
        Json.Obj
          [
            ("name", Json.Str name);
            ("result", Json.Str result);
            ("seconds", Json.Float stats.Rfn.seconds);
            ("iterations", Json.Int (List.length stats.Rfn.provenance));
            ("coi_regs", Json.Int stats.Rfn.coi_regs);
            ("abstract_regs", Json.Int stats.Rfn.final_abstract_regs);
            ("peak_bdd_nodes", Json.Int (Telemetry.gauge_peak g_nodes));
            ( "atpg_backtracks",
              Json.Int (Telemetry.counter_value c_backtracks) );
            ( "sim",
              Json.Obj
                [
                  ( "packed_words",
                    Json.Int (Telemetry.counter_value c_packed_words) );
                ] );
            ( "atpg",
              Json.Obj
                (List.map
                   (fun (n, c) -> (n, Json.Int (Telemetry.counter_value c)))
                   atpg_counters) );
            ("provenance", Json.Int (List.length stats.Rfn.provenance));
            ( "hist",
              Json.Obj
                [
                  ( "image_steps",
                    Json.Int (Telemetry.histogram_count h_image) );
                  ( "image_step_p50",
                    Json.Float (Telemetry.histogram_quantile h_image 0.5) );
                  ( "image_step_p90",
                    Json.Float (Telemetry.histogram_quantile h_image 0.9) );
                  ( "image_step_max",
                    Json.Float (Telemetry.histogram_max h_image) );
                ] );
            ( "sat",
              Json.Obj
                (("bmc_cross_check", Json.Bool sat_agrees)
                :: List.map
                     (fun (n, c) -> (n, Json.Int (Telemetry.counter_value c)))
                     sat_counters) );
            ( "analysis",
              Json.Obj
                [
                  ( "candidates",
                    Json.Int analysis.Analysis.stats.Analysis.candidates );
                  ("proved", Json.Int analysis.Analysis.stats.Analysis.proved);
                  ( "refuted",
                    Json.Int analysis.Analysis.stats.Analysis.refuted );
                  ( "unknown",
                    Json.Int analysis.Analysis.stats.Analysis.unknown );
                  ("seconds", Json.Float analysis.Analysis.seconds);
                ] );
            ( "lint",
              Json.Obj
                [
                  ( "findings",
                    Json.Int (List.length lint_report.Lint.findings) );
                  ("errors", Json.Int (Lint.errors lint_report));
                  ("warnings", Json.Int (Lint.warnings lint_report));
                ] );
            ( "check",
              Json.Obj
                [
                  ( "invariant_passes",
                    Json.Int
                      (Telemetry.counter_value
                         (Telemetry.counter "check.invariant_passes")) );
                  ( "invariant_failures",
                    Json.Int
                      (Telemetry.counter_value
                         (Telemetry.counter "check.invariant_failures")) );
                ] );
            ("retries", Json.Int (Telemetry.counter_value c_retries));
            ("fallbacks", Json.Int (Telemetry.counter_value c_fallbacks));
            ("escalations", Json.Int (Telemetry.counter_value c_escalations));
            ( "proc",
              Json.Obj
                (List.map
                   (fun n ->
                     ( n,
                       Json.Int
                         (Telemetry.counter_value
                            (Telemetry.counter ("proc." ^ n))) ))
                   [ "workers_spawned"; "worker_failures" ]) );
            ( "race",
              Json.Obj
                (List.map
                   (fun n ->
                     ( n,
                       Json.Int
                         (Telemetry.counter_value
                            (Telemetry.counter ("race." ^ n))) ))
                   [ "runs"; "wins" ]) );
            ( "session",
              Json.Obj
                (List.map
                   (fun (name, c) ->
                     (name, Json.Int (Telemetry.counter_value c)))
                   session_counters
                @ [
                    ( "peak_nodes_carried",
                      Json.Int (Telemetry.gauge_peak g_carried) );
                  ]) );
          ])
      workloads
  in
  let serve = serve_batch ~workloads ~cold:(List.rev !cold) () in
  let sim = sim_phase ~quick ~workloads () in
  let analysis_diff = analysis_phase () in
  if not was_enabled then Telemetry.disable ();
  let summary =
    Json.Obj
      [
        ("bench", Json.Str "rfn");
        ("quick", Json.Bool quick);
        ("designs", Json.List rows);
        ("serve", serve);
        ("sim", sim);
        ("analysis", analysis_diff);
      ]
  in
  let oc = open_out "BENCH_rfn.json" in
  Json.to_channel oc summary;
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote BENCH_rfn.json@."

(* ---- perf gate (bench check) ---------------------------------------- *)

(* Compare the current BENCH_rfn.json against a committed baseline with
   per-metric tolerance bands, and exit non-zero on any regression. The
   bands are deliberately generous — they catch order-of-magnitude
   slips (a broken cache, a lost reuse path, an accidental O(n^2)), not
   CI-runner jitter:

     result            must match exactly
     iterations        <= baseline * 1.5 + 2
     peak_bdd_nodes    <= max(baseline * 3,  20_000)
     atpg_backtracks   <= max(baseline * 5,  10_000)
     seconds           <= max(baseline * 25, 2.0)

   When the baseline records a packed-simulation phase (a top-level
   "sim" object), the current run must keep the bit-parallel win:
   speedup >= 8x over the scalar evaluator, with the lane-0 agreement
   audit green — that one is a hard floor, not a band, because losing
   it means the packed evaluator stopped paying for itself.

   plus an internal-consistency check that every iteration produced a
   provenance record. Regenerates a quick BENCH_rfn.json when none is
   present, so `bench check --baseline BENCH_baseline.json` works as a
   single command. *)
let perf_check ~baseline_file () =
  section (Printf.sprintf "Perf gate (vs %s)" baseline_file);
  let load file =
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))
  in
  if not (Sys.file_exists "BENCH_rfn.json") then bench_json ~quick:true ();
  match (load baseline_file, load "BENCH_rfn.json") with
  | exception Sys_error msg ->
    Format.eprintf "bench check: %s@." msg;
    exit 1
  | exception Failure msg ->
    Format.eprintf "bench check: malformed JSON: %s@." msg;
    exit 1
  | base, cur ->
    let designs j =
      match Json.member "designs" j with
      | Some (Json.List l) ->
        List.filter_map
          (fun r ->
            match Json.member "name" r with
            | Some (Json.Str n) -> Some (n, r)
            | _ -> None)
          l
      | _ ->
        Format.eprintf "bench check: no designs array@.";
        exit 1
    in
    let str k r = Option.bind (Json.member k r) Json.to_str in
    let num k r = Option.bind (Json.member k r) Json.to_float in
    let violations = ref [] in
    let fail fmt =
      Printf.ksprintf (fun m -> violations := m :: !violations) fmt
    in
    let band ~name ~metric ~ratio ~floor b c =
      match (num metric b, num metric c) with
      | Some bv, Some cv ->
        let allowed = Float.max (ratio *. bv) floor in
        if cv > allowed then
          fail "%s: %s %.6g exceeds allowed %.6g (baseline %.6g)" name metric
            cv allowed bv
      | None, _ -> fail "%s: baseline lacks %s" name metric
      | _, None -> fail "%s: current run lacks %s" name metric
    in
    let current = designs cur in
    let baseline = designs base in
    List.iter
      (fun (name, b) ->
        match List.assoc_opt name current with
        | None -> fail "%s: missing from current BENCH_rfn.json" name
        | Some c ->
          (match (str "result" b, str "result" c) with
          | Some rb, Some rc when rb <> rc ->
            fail "%s: result %S differs from baseline %S" name rc rb
          | Some _, Some _ -> ()
          | _ -> fail "%s: missing result field" name);
          (match (num "iterations" b, num "iterations" c) with
          | Some bi, Some ci ->
            if ci > (bi *. 1.5) +. 2.0 then
              fail "%s: iterations %g exceeds baseline %g (band 1.5x + 2)"
                name ci bi
          | _ -> fail "%s: missing iterations field" name);
          band ~name ~metric:"peak_bdd_nodes" ~ratio:3.0 ~floor:20_000.0 b c;
          band ~name ~metric:"atpg_backtracks" ~ratio:5.0 ~floor:10_000.0 b c;
          band ~name ~metric:"seconds" ~ratio:25.0 ~floor:2.0 b c;
          match (num "provenance" c, num "iterations" c) with
          | Some p, Some i when p < i ->
            fail "%s: %g provenance record(s) for %g iteration(s)" name p i
          | None, _ -> fail "%s: current run lacks provenance count" name
          | _ -> ())
      baseline;
    (match (Json.member "analysis" base, Json.member "analysis" cur) with
    | Some _, None ->
      fail "analysis: phase missing from current BENCH_rfn.json"
    | Some _, Some a ->
      (match (str "result_off" a, str "result_on" a) with
      | Some off, Some on when off <> on ->
        fail "analysis: --analyze changed the verdict (%S vs %S)" off on
      | Some _, Some _ -> ()
      | _ -> fail "analysis: current run lacks result fields");
      (match Json.member "improved" a with
      | Some (Json.Bool true) -> ()
      | _ ->
        fail
          "analysis: the invariant care set no longer reduces iterations or \
           peak nodes on the differential design")
    | None, _ -> ());
    (match (Json.member "sim" base, Json.member "sim" cur) with
    | Some _, None -> fail "sim: phase missing from current BENCH_rfn.json"
    | Some _, Some s ->
      (match Option.bind (Json.member "speedup" s) Json.to_float with
      | Some sp when sp < 8.0 ->
        fail "sim: packed speedup %.2fx below the required 8x" sp
      | Some _ -> ()
      | None -> fail "sim: current run lacks speedup");
      (match Json.member "agree" s with
      | Some (Json.Bool true) -> ()
      | _ -> fail "sim: packed and scalar evaluators disagree")
    | None, _ -> ());
    (match List.rev !violations with
    | [] ->
      Format.printf "perf gate: OK — %d design(s) within tolerance@."
        (List.length baseline)
    | vs ->
      List.iter (fun v -> Format.printf "perf gate: FAIL — %s@." v) vs;
      exit 1)

(* ---- drivers -------------------------------------------------------- *)

let () =
  let small = has "--small" in
  let baseline = has "--baseline" in
  let quick = has "--quick" || Sys.getenv_opt "BENCH_QUICK" <> None in
  let budget = float_arg "--budget" 20.0 in
  let bfs_k = int_of_float (float_arg "--bfs-k" 60.0) in
  let explicit =
    List.filter
      (fun a ->
        List.mem a
          [ "table1"; "table2"; "figure1"; "guidance"; "subsetting"; "refine";
            "micro"; "json"; "all" ])
      (Array.to_list Sys.argv)
  in
  let want t = explicit = [] || List.mem t explicit || List.mem "all" explicit in
  (* a full harness run includes the paper's COI-MC baseline footnote *)
  let baseline = baseline || explicit = [] || List.mem "all" explicit in
  if has "check" then
    perf_check ~baseline_file:(string_arg "--baseline" "BENCH_baseline.json") ()
  else if quick then bench_json ~quick:true ()
  else begin
  if want "table1" then begin
    section "Table 1 (property verification)";
    E.Table1.(print Format.std_formatter (run ~small ~baseline ()))
  end;
  if want "table2" then begin
    section
      (Printf.sprintf "Table 2 (coverage analysis; RFN budget %.0fs, BFS k=%d)"
         budget bfs_k);
    E.Table2.(print Format.std_formatter (run ~small ~budget ~bfs_k ()))
  end;
  if want "figure1" then begin
    section "Figure 1 (min-cut / hybrid-engine structure)";
    E.Figure1.(print Format.std_formatter (run ~small ()))
  end;
  if want "guidance" then begin
    section "Ablation: error-trace guidance for sequential ATPG (Sec. 2.3)";
    E.Guidance.(print Format.std_formatter (run ~small ()))
  end;
  if want "subsetting" then begin
    section "Ablation: BDD subsetting as pre-image fallback (Sec. 2.2)";
    E.Subsetting.(print Format.std_formatter (run ~small ()))
  end;
  if want "refine" then begin
    section "Ablation: greedy crucial-register minimization (Sec. 2.4)";
    E.Refinement.(print Format.std_formatter (run ~small ()))
  end;
  if want "micro" then micro ();
  if want "json" then bench_json ~quick:false ()
  end
