(* The benchmark's OCaml half (driven by run.py; see README.md).

   harness gen WORKLOAD SEED DIR    write the workload's netlists and
                                    DIR/manifest.json (the job list with
                                    the expected answers)
   harness run DIR TRACE            set up and run a table1 / coverage /
                                    sat_engine manifest in this process
   harness load DIR REPEAT          time Netlist_io.load of every netlist
   harness replay DIR FILE          replay serve counterexamples

   Every command prints one JSON object on stdout. Inputs reach the
   program only as netlist files read back through Netlist_io.load,
   and all work is capped by counts (iterations, node limit,
   backtracks), never by wall-clock time. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Coverage = Rfn_core.Coverage
module Supervisor = Rfn_core.Supervisor
module Session = Rfn_core.Session
module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json
module Provenance = Rfn_obs.Provenance
module Sim3v = Rfn_sim3v.Sim3v
module Atpg = Rfn_atpg.Atpg
module Cnf = Rfn_sat.Cnf
module Processor = Rfn_designs.Processor
module Fifo = Rfn_designs.Fifo

let now = Unix.gettimeofday

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("harness: " ^ msg);
      exit 2)
    fmt

(* ---- the measured configuration ------------------------------------ *)

(* Every field written out, so neither the environment (RFN_ENGINE,
   RFN_RACE, RFN_CHECK, RFN_INJECT_FAULTS are read by default_config)
   nor a later change of a default moves the program being measured
   without this file saying so. No wall-clock budget anywhere. *)
let config ~engines ~max_iterations =
  {
    Rfn.max_iterations;
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
    inject = Some (fun _ -> None);
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

let config_to_json (c : Rfn.config) =
  let limits (l : Atpg.limits) =
    Json.Obj
      [
        ("max_backtracks", Json.Int l.Atpg.max_backtracks);
        ( "max_seconds",
          match l.Atpg.max_seconds with Some s -> Json.Float s | None -> Null );
      ]
  in
  Json.Obj
    [
      ("max_iterations", Json.Int c.Rfn.max_iterations);
      ("node_limit", Json.Int c.node_limit);
      ("mc_max_steps", Json.Int c.mc_max_steps);
      ( "max_seconds",
        match c.max_seconds with Some s -> Json.Float s | None -> Null );
      ("abstract_atpg", limits c.abstract_atpg);
      ("concrete_atpg", limits c.concrete_atpg);
      ("guidance_traces", Json.Int c.guidance_traces);
      ("engines", Json.Str (Rfn.engines_to_string c.engines));
      ("analyze", Json.Bool c.analyze);
      ("inject", Json.Str "none");
      ("session_reuse", Json.Bool c.session.Session.reuse);
      ("check_invariants", Json.Bool c.check_invariants);
      ("race", Json.Bool c.proc.Rfn_proc.Proc.enabled);
      ("checkpoint", Null);
    ]

(* ---- workloads ------------------------------------------------------ *)

type expect =
  | Holds
  | Fails of int  (** counterexample length in states *)
  | Unreachable of int  (** coverage: states proved unreachable *)

type job = {
  id : string;
  file : string;  (** netlist file, relative to the work directory *)
  target : string;  (** property output, or coverage set name *)
  coverage : string list;  (** coverage register names (coverage only) *)
  engines : Rfn.engines;
  analyze : bool;
  max_iterations : int;
  repeat : int;
      (** cold runs of the job; its time is their median, so one
          scheduling hiccup cannot move a sub-second row *)
  expect : expect;
}

let job ?(coverage = []) ?(engines = Rfn.Atpg_only) ?(analyze = false)
    ?(max_iterations = 64) ?(repeat = 1) ~id ~file ~target expect =
  { id; file; target; coverage; engines; analyze; max_iterations; repeat; expect }

(* error_flag's shortest violation is bug_threshold + 5 cycles, i.e. a
   trace of bug_threshold + 6 states, whatever the datapath size. *)
let error_flag_states (p : Processor.params) = p.Processor.bug_threshold + 6

(* Mid-size processor for the SAT workload: the default control core
   (so the 31-state counterexample remains) over a smaller datapath. *)
let sat_processor =
  {
    Processor.default with
    Processor.regfile_words = 8;
    lfsr_width = 16;
    history_depth = 16;
    pad_regs = 100;
    hash_depth = 8;
  }

(* Serve variants: only datapath / sizing parameters vary, so every
   verdict is fixed by construction — the FIFO flags are registered
   copies of the very count comparisons the watchdogs test (True for
   any depth and slack), and the processor's control core keeps the
   small instance's arbiter and planted bug. *)
let fifo_variants =
  [
    ("fifo_a", { Fifo.depth_log2 = 2; data_width = 2; almost_full_slack = 1 });
    ("fifo_b", { Fifo.depth_log2 = 2; data_width = 4; almost_full_slack = 1 });
    ("fifo_c", { Fifo.depth_log2 = 3; data_width = 2; almost_full_slack = 2 });
    ("fifo_d", { Fifo.depth_log2 = 3; data_width = 3; almost_full_slack = 1 });
  ]

let proc_variants =
  [
    ("proc_a", Processor.small);
    ("proc_b", { Processor.small with Processor.regfile_words = 8 });
    ( "proc_c",
      { Processor.small with Processor.lfsr_width = 9; history_depth = 8 } );
  ]

(* Jobs per variant, skewed toward a few hot designs by a Zipf law with
   exponent 1: the variant of rank k (in the order below) gets a share
   proportional to 1/k of the 240 jobs. Nothing in the repository
   records real traffic, so the law is a modelling assumption. Seven
   variants are more than the server's warm-session pool (4), so both
   warm reuse and LRU eviction happen. *)
let serve_total = 240

let serve_ranking = [ "fifo_a"; "proc_a"; "fifo_b"; "proc_b"; "fifo_c"; "fifo_d"; "proc_c" ]

let serve_weights =
  let harmonic =
    List.fold_left ( +. ) 0.0
      (List.mapi (fun k _ -> 1.0 /. float_of_int (k + 1)) serve_ranking)
  in
  List.mapi
    (fun k v ->
      let share = 1.0 /. float_of_int (k + 1) /. harmonic in
      (v, int_of_float (Float.round (float_of_int serve_total *. share))))
    serve_ranking

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The serve stream has a fixed composition: per variant a fixed count,
   properties round-robin, and budgets cycling default / sat / analyze
   once per round of properties, so every (property, budget) pair
   occurs. The equal budget shares are an assumption too. The seed only
   decides the arrival order. *)
let serve_jobs seed =
  let budgets =
    [| (Rfn.Atpg_only, false); (Rfn.Sat_only, false); (Rfn.Atpg_only, true) |]
  in
  let jobs =
    List.concat_map
      (fun (variant, count) ->
        let props =
          match List.assoc_opt variant proc_variants with
          | Some p -> [| ("mutex", Holds); ("error_flag", Fails (error_flag_states p)) |]
          | None -> [| ("psh_hf", Holds); ("psh_af", Holds); ("psh_full", Holds) |]
        in
        let n = Array.length props in
        List.init count (fun i ->
            let target, expect = props.(i mod n) in
            let engines, analyze = budgets.(i / n mod Array.length budgets) in
            job ~engines ~analyze ~id:"" ~file:(variant ^ ".bench") ~target
              expect))
      serve_weights
    |> Array.of_list
  in
  shuffle (Random.State.make [| seed |]) jobs;
  Array.to_list (Array.mapi (fun i j -> { j with id = Printf.sprintf "j%03d" i }) jobs)

let save dir file circuit = Netlist_io.save (Filename.concat dir file) circuit

(* Returns the job list; writes the netlists as a side effect. The
   three paper-scale workloads are the paper's fixed designs, so only
   serve's job stream depends on the seed. *)
let generate workload seed dir =
  match workload with
  | "table1" ->
    save dir "processor.bench" (Processor.make ()).Processor.circuit;
    save dir "fifo.bench" (Fifo.make ()).Fifo.circuit;
    [
      job ~id:"mutex" ~file:"processor.bench" ~target:"mutex" Holds;
      job ~id:"error_flag" ~file:"processor.bench" ~target:"error_flag"
        (Fails (error_flag_states Processor.default));
      job ~repeat:5 ~id:"psh_hf" ~file:"fifo.bench" ~target:"psh_hf" Holds;
      job ~repeat:5 ~id:"psh_af" ~file:"fifo.bench" ~target:"psh_af" Holds;
      job ~repeat:5 ~id:"psh_full" ~file:"fifo.bench" ~target:"psh_full" Holds;
    ]
  | "sat_engine" ->
    save dir "processor_mid.bench"
      (Processor.make ~params:sat_processor ()).Processor.circuit;
    List.map
      (fun (target, expect) ->
        job ~engines:Rfn.Sat_only ~id:target ~file:"processor_mid.bench"
          ~target expect)
      [ ("mutex", Holds); ("error_flag", Fails (error_flag_states sat_processor)) ]
  | "coverage" ->
    let iu = Rfn_designs.Picojava_iu.make () in
    let usb = Rfn_designs.Usb.make () in
    save dir "iu.bench" iu.Rfn_designs.Picojava_iu.circuit;
    save dir "usb.bench" usb.Rfn_designs.Usb.circuit;
    (* Table 2's unreachable counts (EXPERIMENTS.md) under a cap of 20
       refinement iterations instead of the 20 s budget. *)
    let expected =
      [ ("IU1", 704); ("IU2", 964); ("IU3", 832); ("IU4", 949); ("IU5", 952);
        ("USB1", 57); ("USB2", 2_094_740) ]
    in
    let sets file circuit sets =
      List.map
        (fun (name, regs) ->
          let count =
            match List.assoc_opt name expected with
            | Some n -> n
            | None -> fail "no expected count for coverage set %s" name
          in
          job ~id:name ~file ~target:name ~max_iterations:20
            ~coverage:(List.map (Circuit.name circuit) regs)
            (Unreachable count))
        sets
    in
    sets "iu.bench" iu.Rfn_designs.Picojava_iu.circuit
      iu.Rfn_designs.Picojava_iu.coverage_sets
    @ sets "usb.bench" usb.Rfn_designs.Usb.circuit
        usb.Rfn_designs.Usb.coverage_sets
  | "serve" ->
    List.iter
      (fun (name, params) ->
        save dir (name ^ ".bench") (Fifo.make ~params ()).Fifo.circuit)
      fifo_variants;
    List.iter
      (fun (name, params) ->
        save dir (name ^ ".bench") (Processor.make ~params ()).Processor.circuit)
      proc_variants;
    serve_jobs seed
  | w -> fail "unknown workload %S" w

(* ---- manifest ------------------------------------------------------- *)

let expect_to_json = function
  | Holds -> Json.Obj [ ("verdict", Json.Str "T") ]
  | Fails n -> Json.Obj [ ("verdict", Json.Str "F"); ("states", Json.Int n) ]
  | Unreachable n -> Json.Obj [ ("unreachable", Json.Int n) ]

let job_to_json j =
  Json.Obj
    [
      ("id", Json.Str j.id);
      ("file", Json.Str j.file);
      ("target", Json.Str j.target);
      ("coverage", Json.List (List.map (fun s -> Json.Str s) j.coverage));
      ("engines", Json.Str (Rfn.engines_to_string j.engines));
      ("analyze", Json.Bool j.analyze);
      ("max_iterations", Json.Int j.max_iterations);
      ("repeat", Json.Int j.repeat);
      ("expect", expect_to_json j.expect);
    ]

let member k j =
  match Json.member k j with Some v -> v | None -> fail "manifest: no %S" k

let str k j =
  match Json.to_str (member k j) with Some s -> s | None -> fail "manifest: %S" k

let int k j =
  match Json.to_int (member k j) with Some n -> n | None -> fail "manifest: %S" k

let list k j =
  match member k j with Json.List l -> l | _ -> fail "manifest: %S" k

let job_of_json j =
  let e = member "expect" j in
  let expect =
    match Json.member "unreachable" e with
    | Some (Json.Int n) -> Unreachable n
    | _ -> if str "verdict" e = "T" then Holds else Fails (int "states" e)
  in
  {
    id = str "id" j;
    file = str "file" j;
    target = str "target" j;
    coverage =
      List.map
        (fun s -> match Json.to_str s with Some s -> s | None -> fail "coverage")
        (list "coverage" j);
    engines = Rfn.engines_of_string (str "engines" j);
    analyze = (match Json.to_bool (member "analyze" j) with Some b -> b | None -> false);
    max_iterations = int "max_iterations" j;
    repeat = int "repeat" j;
    expect;
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let manifest_path dir = Filename.concat dir "manifest.json"

let read_manifest dir =
  let m = Json.of_string (read_file (manifest_path dir)) in
  (str "workload" m, List.map job_of_json (list "jobs" m))

let files_of jobs = List.sort_uniq compare (List.map (fun j -> j.file) jobs)

(* ---- measurement helpers ------------------------------------------- *)

let peak_rss_mb () =
  let prefix = "VmHWM:" in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix l ->
          Scanf.sscanf
            (String.sub l (String.length prefix) (String.length l - String.length prefix))
            " %d" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* One set-up trial: load every netlist once. Returns its seconds and
   the circuits. *)
let load_all dir files =
  Gc.compact ();
  let t0 = now () in
  let cs = List.map (fun f -> (f, Netlist_io.load (Filename.concat dir f))) files in
  (now () -. t0, cs)

(* Set-up trials per run: the first before the measured phase, the rest
   spread over it like repeated jobs, so their median samples the
   machine across the whole run rather than in one burst. table1's
   4.6 MB processor netlist loads in about a second; the other
   workloads' netlists in tens of ms. *)
let setup_trials = function "table1" -> 3 | _ -> 15

(* Spans whose per-job deltas the report splits job time by. *)
let step_spans =
  [ "rfn.abstract_mc"; "rfn.hybrid"; "rfn.concretize"; "rfn.refine"; "rfn.analyze" ]

let engine_spans =
  [ "mc.image"; "hybrid.preimage"; "concretize.atpg"; "refine.trace_check";
    "sat_bmc.solve"; "sat_bmc.concretize"; "analysis.run" ]

let span_seconds name =
  match Telemetry.span_stats name with Some (_, s) -> s | None -> 0.0

let span_snapshot () =
  List.map (fun n -> (n, span_seconds n)) (step_spans @ engine_spans)

let span_delta before = List.map (fun (n, s) -> (n, span_seconds n -. s)) before

(* Step 3 under the SAT engine re-encodes the concrete cone at every
   concretization. Re-encode the same depths here, outside the loop,
   as a cross-check of sat.encode_s. *)
let encode_direct circuit ~bad provenance =
  List.fold_left
    (fun acc (p : Provenance.t) ->
      match p.Provenance.trace_depth with
      | Some frames when p.Provenance.concretize <> "none" ->
        let t0 = now () in
        let unr = Cnf.create (Sview.whole circuit ~roots:[ bad ]) in
        Cnf.extend unr ~frames;
        acc +. (now () -. t0)
      | _ -> acc)
    0.0 provenance

(* ---- running a manifest in-process --------------------------------- *)

let verdict_of = function
  | Rfn.Proved -> "T"
  | Rfn.Falsified _ -> "F"
  | Rfn.Aborted f -> "aborted: " ^ Rfn_failure.to_string f

let check_verdict circuit (prop : Property.t) expect outcome =
  match (expect, outcome) with
  | Holds, Rfn.Proved -> None
  | Fails states, Rfn.Falsified t ->
    if not (Sim3v.replay_concrete circuit t ~bad:prop.Property.bad) then
      Some "counterexample does not replay on the concrete netlist"
    else if Trace.length t <> states then
      Some (Printf.sprintf "counterexample has %d states, expected %d"
              (Trace.length t) states)
    else None
  | _ -> Some ("unexpected verdict " ^ verdict_of outcome)

type measured = {
  seconds : float;  (** the program's time *)
  encode : float;  (** the SAT encoding cross-check, when traced *)
  error : string option;  (** why the answer is wrong, if it is *)
  fields : (string * Json.t) list;
}

let run_job ~traced circuit j =
  let t0 = now () in
  let measured ~seconds ?(encode = 0.0) error fields =
    { seconds; encode; error; fields }
  in
  if j.coverage <> [] then begin
    let coverage = List.map (Circuit.find circuit) j.coverage in
    let config = config ~engines:j.engines ~max_iterations:j.max_iterations in
    let r = Coverage.rfn_analysis ~config circuit ~coverage in
    let seconds = now () -. t0 in
    let error =
      match (j.expect, r.Coverage.failure) with
      | _, Some f -> Some ("analysis stopped early: " ^ Rfn_failure.to_string f)
      | Unreachable n, None when n = r.Coverage.unreachable -> None
      | _ -> Some (Printf.sprintf "%d unreachable states" r.Coverage.unreachable)
    in
    measured ~seconds error
      [ ("unreachable", Json.Int r.Coverage.unreachable);
        ("iterations", Json.Int r.Coverage.iterations) ]
  end
  else begin
    let prop = Property.of_output circuit j.target in
    let config =
      { (config ~engines:j.engines ~max_iterations:j.max_iterations) with
        Rfn.analyze = j.analyze }
    in
    let outcome, stats = Rfn.verify ~config circuit prop in
    let seconds = now () -. t0 in
    let error = check_verdict circuit prop j.expect outcome in
    let encode =
      if traced && j.engines = Rfn.Sat_only then
        encode_direct circuit ~bad:prop.Property.bad stats.Rfn.provenance
      else 0.0
    in
    measured ~seconds ~encode error
      [ ("verdict", Json.Str (verdict_of outcome));
        ("iterations", Json.Int (List.length stats.Rfn.provenance)) ]
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type slot = Run of job | Load

(* Every job runs [repeat] times, each run a cold [run_job], and the
   set-up is tried [loads] times. The n slots of each kind are spread
   over the measured phase, slot k at fraction (2k + 1) / (2n) of the
   way through, so a median samples the machine across the whole run
   rather than in one burst. *)
let schedule ~loads jobs =
  let spread n slot =
    List.init n (fun k -> (float_of_int ((2 * k) + 1) /. float_of_int (2 * n), slot))
  in
  List.concat (spread loads Load :: List.map (fun j -> spread j.repeat (Run j)) jobs)
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* A job's time is its median run; its spans and [total_s] cover all
   runs, and every run must be right. *)
let summarize j runs =
  let sum f = List.fold_left (fun acc (m, _) -> acc +. f m) 0.0 runs in
  let spans =
    List.map
      (fun name ->
        ( name,
          Json.Float
            (List.fold_left
               (fun acc (_, sp) -> acc +. List.assoc name sp)
               0.0 runs) ))
      (step_spans @ engine_spans)
  in
  let measured = List.map fst runs in
  let error = List.find_map (fun m -> m.error) measured in
  let last = List.nth measured (List.length measured - 1) in
  Json.Obj
    ([ ("id", Json.Str j.id); ("target", Json.Str j.target);
       ("seconds", Json.Float (median (List.map (fun m -> m.seconds) measured)));
       ("total_s", Json.Float (sum (fun m -> m.seconds)));
       ("runs", Json.Int (List.length measured));
       ("ok", Json.Bool (error = None));
       ("error", match error with Some e -> Json.Str e | None -> Null);
       ("spans", Json.Obj spans);
       ("encode_direct_s", Json.Float (sum (fun m -> m.encode))) ]
    @ last.fields)

let run_manifest dir traced =
  let workload, jobs = read_manifest dir in
  let files = files_of jobs in
  let first, circuits = load_all dir files in
  Telemetry.reset ();
  if traced then Telemetry.enable ();
  let runs = Hashtbl.create 7 in
  let trials = ref [ first ] in
  List.iter
    (function
      | Load -> trials := fst (load_all dir files) :: !trials
      | Run j ->
        let circuit =
          match List.assoc_opt j.file circuits with
          | Some c -> c
          | None -> fail "no netlist %s" j.file
        in
        Gc.compact ();
        let before = span_snapshot () in
        let m = run_job ~traced circuit j in
        let done_ = Option.value ~default:[] (Hashtbl.find_opt runs j.id) in
        Hashtbl.replace runs j.id ((m, span_delta before) :: done_))
    (schedule ~loads:(setup_trials workload - 1) jobs);
  let runs_of j = List.rev (Option.value ~default:[] (Hashtbl.find_opt runs j.id)) in
  (* The measured phase is the program's own work, the sum of the job
     runs. The set-up trials, heap compactions, span snapshots and the
     benchmark's answer checks between the runs are left out. *)
  let wall =
    List.fold_left
      (fun acc j -> List.fold_left (fun acc (m, _) -> acc +. m.seconds) acc (runs_of j))
      0.0 jobs
  in
  let results = List.map (fun j -> summarize j (runs_of j)) jobs in
  (* one workload's jobs share their engine and iteration cap *)
  let shown =
    let j = List.hd jobs in
    config ~engines:j.engines ~max_iterations:j.max_iterations
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("traced", Json.Bool traced);
      ("config", config_to_json shown);
      ("setup_trials", Json.List (List.map (fun s -> Json.Float s) (List.rev !trials)));
      ("wall_s", Json.Float wall);
      ("peak_rss_mb", Json.Float (peak_rss_mb ()));
      ("jobs", Json.List results);
      ("telemetry", Telemetry.snapshot ());
    ]

(* ---- serve support -------------------------------------------------- *)

let load_only dir repeat =
  let _, jobs = read_manifest dir in
  let trials = List.init repeat (fun _ -> fst (load_all dir (files_of jobs))) in
  Json.Obj
    [ ("setup_trials", Json.List (List.map (fun s -> Json.Float s) trials)) ]

(* FILE holds [{"id", "file", "target", "trace"}, ...]: the serve
   client's counterexamples, replayed here on freshly loaded netlists
   (the server parsed the same files, so signal ids agree). *)
let replay dir file =
  let circuits = Hashtbl.create 7 in
  let circuit f =
    match Hashtbl.find_opt circuits f with
    | Some c -> c
    | None ->
      let c = Netlist_io.load (Filename.concat dir f) in
      Hashtbl.replace circuits f c;
      c
  in
  let entries =
    match Json.of_string (read_file file) with
    | Json.List l -> l
    | _ -> fail "replay: expected a JSON list"
  in
  Json.Obj
    (List.map
       (fun e ->
         let c = circuit (str "file" e) in
         let bad = (Property.of_output c (str "target" e)).Property.bad in
         let states =
           match Rfn_proc.Codec.trace_of_json (member "trace" e) with
           | Some t when Sim3v.replay_concrete c t ~bad -> Trace.length t
           | _ -> 0
         in
         (str "id" e, Json.Int states))
       entries)

(* ---- entry ---------------------------------------------------------- *)

let print j = print_endline (Json.to_string j)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; workload; seed; dir ] ->
    let jobs = generate workload (int_of_string seed) dir in
    Out_channel.with_open_bin (manifest_path dir) (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("workload", Json.Str workload);
                  ("seed", Json.Int (int_of_string seed));
                  ("jobs", Json.List (List.map job_to_json jobs)) ])));
    print (Json.Obj [ ("jobs", Json.Int (List.length jobs)) ])
  | [ "run"; dir; trace ] -> print (run_manifest dir (trace = "1"))
  | [ "load"; dir; repeat ] -> print (load_only dir (int_of_string repeat))
  | [ "replay"; dir; file ] -> print (replay dir file)
  | _ ->
    prerr_endline
      "usage: harness (gen WORKLOAD SEED DIR | run DIR TRACE | load DIR \
       REPEAT | replay DIR FILE)";
    exit 2
