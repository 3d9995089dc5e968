open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Reach = Rfn_mc.Reach
module Atpg = Rfn_atpg.Atpg
module Analysis = Rfn_analysis.Analysis
module Checkpoint = Rfn_proc.Checkpoint
module Provenance = Rfn_obs.Provenance
module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json
module F = Rfn_failure

let src = Logs.Src.create "rfn" ~doc:"RFN abstraction refinement"

module Log = (val Logs.src_log src : Logs.LOG)

type engines = Atpg_only | Sat_only | Portfolio

let engines_to_string = function
  | Atpg_only -> "atpg"
  | Sat_only -> "sat"
  | Portfolio -> "portfolio"

let engines_of_string = function
  | "atpg" -> Atpg_only
  | "sat" -> Sat_only
  | "portfolio" -> Portfolio
  | s ->
    invalid_arg
      (Printf.sprintf
         "unknown engine selection %S (expected atpg, sat or portfolio)" s)

let engines_of_env () =
  match Sys.getenv_opt "RFN_ENGINE" with
  | None -> Atpg_only
  | Some s -> (
    try engines_of_string (String.trim s)
    with Invalid_argument msg ->
      Printf.eprintf "RFN_ENGINE ignored: %s\n%!" msg;
      Atpg_only)

type config = {
  max_iterations : int;
  node_limit : int;
  mc_max_steps : int;
  max_seconds : float option;
  abstract_atpg : Atpg.limits;
  concrete_atpg : Atpg.limits;
  guidance_traces : int;
  engines : engines;
  analyze : bool;
      (* run the static invariant-inference pre-flight
         (Rfn_analysis.Analysis) once per session and feed the proven
         invariants to every engine: a care set for the abstract
         fixpoint, persistent clauses for the SAT unrollings, a
         don't-care filter for guided ATPG *)
  supervisor : Supervisor.policy;
  inject : (Supervisor.site -> Supervisor.fault option) option;
  session : Session.policy;
  check_invariants : bool;
      (* validate cross-artifact invariants (varmap totality, trace
         shape, cone-cache consistency) at every phase boundary;
         defaults to the RFN_CHECK environment flag *)
  proc : Rfn_proc.Proc.policy;
  checkpoint : string option;
  resume : bool;
  job_id : string;
      (* server job identifier, woven into the checkpoint key so two
         queued jobs on the same (design, property) cannot adopt each
         other's loop state; "" for stand-alone runs *)
}

let default_config =
  {
    max_iterations = 64;
    node_limit = 2_000_000;
    mc_max_steps = 2_000;
    max_seconds = None;
    abstract_atpg = { Atpg.max_backtracks = 50_000; max_seconds = Some 20.0 };
    concrete_atpg = { Atpg.max_backtracks = 200_000; max_seconds = Some 60.0 };
    guidance_traces = 1;
    engines = engines_of_env ();
    analyze = false;
    supervisor = Supervisor.default_policy;
    inject = None;
    session = Session.default_policy;
    check_invariants = Rfn_lint.Check.env_enabled ();
    proc = Rfn_proc.Proc.default_policy;
    checkpoint = None;
    resume = false;
    job_id = "";
  }

type stats = {
  provenance : Provenance.t list;
  coi_regs : int;
  coi_gates : int;
  final_abstract_regs : int;
  last_abstract_trace : Trace.t option;
  seconds : float;
  resumed_iterations : int;
}

type outcome = Proved | Falsified of Trace.t | Aborted of F.t

let prepare ?(config = default_config) circuit ~roots =
  Session.create ~node_limit:config.node_limit ~policy:config.session circuit
    ~roots

(* ---- the engine table ------------------------------------------------ *)

(* One engine family of Step 3 and of the empty-refinement re-check: its
   answer to each, the resource a re-check give-up reports, and the rung
   labels events carry. *)
type engine = {
  family : F.engine;
  guided : string;  (* Step-3 rung label *)
  recheck : string;  (* re-check rung label *)
  give_up : F.resource;
  concretize : Atpg.limits -> Trace.t list -> Concretize.outcome;
  falsify : Atpg.limits -> Trace.t -> Concretize.outcome;
      (* the re-check of an abstract trace refinement could not explain *)
}

(* [selection] as the primary engine and the rest; ATPG alone without a
   bad signal, as a SAT target is one literal. The SAT unrolling is
   built on first use, so learned clauses carry across iterations; it
   dies with the run, as the session pool bounds BDD nodes alone. *)
let engines_for ?analysis ~check circuit ~bad selection =
  let guided limits abstract_trace =
    fst (Concretize.guided ~limits ?analysis ?bad circuit ~abstract_trace)
  in
  let recheck, falsify =
    match bad with
    | None -> ("guided-recheck", guided)
    | Some bad ->
      ( "bmc-recheck",
        fun limits t ->
          fst
            (Concretize.falsify ~limits circuit ~bad
               ~max_depth:(Trace.length t)) )
  in
  let atpg =
    {
      family = F.Seq_atpg;
      guided = "guided-atpg";
      recheck;
      give_up = F.Backtracks;
      concretize = (fun limits -> Concretize.first_found (guided limits));
      falsify;
    }
  in
  let sat bad =
    let unrolling = lazy (Sat_bmc.unrolling ?analysis ~check circuit ~bad) in
    {
      family = F.Sat;
      guided = "guided-sat";
      recheck = "sat-bmc-recheck";
      give_up = F.Conflicts;
      concretize =
        (fun limits abstract_traces ->
          fst
            (Sat_bmc.concretize ~limits (Lazy.force unrolling)
               ~abstract_traces));
      falsify =
        (fun limits t ->
          fst
            (Sat_bmc.falsify ~limits (Lazy.force unrolling)
               ~max_depth:(Trace.length t)));
    }
  in
  match (bad, selection) with
  | Some bad, Sat_only -> (sat bad, [])
  | Some bad, Portfolio -> (atpg, [ sat bad ])
  | _ -> (atpg, [])

(* ---- goals ----------------------------------------------------------- *)

type goal = {
  bad : int option;
  target : Varmap.t -> fn:(int -> Bdd.t) -> Bdd.t * Bdd.t;
  settle : (Varmap.t -> Bdd.t -> unit) option;
  reached : Trace.t -> [ `Stop | `Again | `Refine ];
  settled : unit -> bool;
}

(* Unreachability of one bad signal: the fixpoint stops at the first
   ring holding a bad state, and a concrete trace is a counterexample. *)
let property_goal bad =
  {
    bad = Some bad;
    target = (fun vm ~fn -> (Reach.bad_predicate vm ~fn ~bad, fn bad));
    settle = None;
    reached = (fun _ -> `Stop);
    settled = (fun () -> false);
  }

(* ---- run and iteration state ----------------------------------------- *)

(* Everything the steps of one [verify_in_session] call share. *)
type run = {
  config : config;
  session : Session.t;
  circuit : Circuit.t;
  goal : goal;
  analysis : Analysis.t option;
  sup : Supervisor.t;
  engines : engine * engine list;  (* the rungs, primary first *)
  checkpoint : Checkpoint.run option;
  started : float;
  resumed_iterations : int;
  mutable provenance : Provenance.t list;  (* newest first *)
  mutable last_trace : Trace.t option;
}

(* The engine counters a provenance record attributes to its iteration,
   as deltas from a snapshot taken when the iteration starts; in record
   order: retries, fallbacks, injected, sat_learned, backtracks. *)
let attributed =
  Array.map Telemetry.counter
    [| "supervisor.retries"; "supervisor.fallbacks";
       "supervisor.injected_faults"; "sat.learned"; "atpg.backtracks" |]

let snapshot () = Array.map Telemetry.counter_value attributed
let g_bdd_nodes = Telemetry.gauge "bdd.live_nodes"

(* Live nodes of the session's own manager. The [bdd.live_nodes] gauge
   is whichever manager allocated last — coverage's small side manager
   among them — so it only serves for the peak. *)
let session_nodes run =
  match Session.varmap run.session with
  | None -> 0
  | Some vm -> Bdd.num_nodes (Varmap.man vm)

(* One iteration in flight; the steps fill in its provenance record. *)
type current = {
  iter : int;
  abstraction : Abstraction.t;
  attrs : (string * Json.t) list;
  mark : int array;  (* [snapshot ()] at the iteration's start *)
  iter_started : float;
  mutable record : Provenance.t;
}

let begin_iteration run iter =
  let abstraction = Session.abstraction run.session in
  let view = abstraction.Abstraction.view in
  Log.info (fun m ->
      m "iteration %d: abstract model %a" iter Sview.pp_stats view);
  let regs = Abstraction.num_regs abstraction in
  {
    iter;
    abstraction;
    attrs = [ ("iter", Json.Int iter); ("abstract_regs", Json.Int regs) ];
    iter_started = Telemetry.now ();
    mark = snapshot ();
    record =
      {
        Provenance.iter; regs_before = regs; regs_after = regs;
        model_inputs = Sview.num_free_inputs view; fixpoint_steps = 0;
        trace_depth = None; cut_size = None; no_cut_steps = 0;
        min_cut_steps = 0; cubes = 0; guidance = 0; engine = "";
        concretize = "none"; promoted = []; candidates = 0; retries = 0;
        fallbacks = 0; injected = 0; bdd_nodes = 0; bdd_peak = 0;
        sat_learned = 0; backtracks = 0; seconds = 0.0; outcome = "";
      };
  }

(* Close the iteration's record with [outcome]: fill in the counter
   deltas, BDD node counts and time, keep it, and emit it as an
   ["rfn.iteration"] event. [nodes] defaults to the session's live
   count now. *)
let close ?nodes run cur outcome =
  let d =
    Array.map2 (fun c v -> Telemetry.counter_value c - v) attributed cur.mark
  in
  let p =
    {
      cur.record with
      retries = d.(0); fallbacks = d.(1); injected = d.(2);
      sat_learned = d.(3); backtracks = d.(4);
      bdd_nodes =
        (match nodes with Some n -> n | None -> session_nodes run);
      bdd_peak = Telemetry.gauge_peak g_bdd_nodes;
      seconds = Telemetry.now () -. cur.iter_started;
      outcome;
    }
  in
  run.provenance <- p :: run.provenance;
  Telemetry.event "rfn.iteration" (Provenance.to_fields p)

(* What a step hands on: the next step's input, the next iteration, or
   the run's verdict; the last two once the iteration's record is
   closed. *)
type 'a step = Next of 'a | Again | Stop of outcome

let stop run cur desc outcome =
  close run cur desc;
  Stop outcome

let aborted run cur failure =
  stop run cur ("aborted:" ^ F.resource_to_string failure.F.resource)
    (Aborted failure)

(* Cross-artifact invariant checks at phase boundaries (RFN_CHECK=1 /
   [config.check_invariants]): a violation unwinds the loop into a
   structured [Invariant] abort instead of corrupting later phases. *)
exception Check_violation of F.t

let check run cur ~engine ~phase ~what thunk =
  if run.config.check_invariants then
    try Rfn_lint.Check.ensure ~what (thunk ())
    with Rfn_lint.Check.Violation (w, fs) ->
      raise
        (Check_violation
           (F.make ~iteration:cur.iter ~engine ~phase
              (F.Invariant (Rfn_lint.Check.violation_message w fs))))

(* A concrete trace reached the goal: the goal says whether that ends
   the run with a counterexample, ends the iteration, or leaves the
   abstract trace to [otherwise]. *)
let found run cur ~engine t ~otherwise =
  check run cur ~engine ~phase:F.Concretization ~what:"concrete trace"
    (fun () ->
      Rfn_lint.Check.trace
        (Sview.whole run.circuit ~roots:[])
        ~depth:(Trace.length t) t);
  match run.goal.reached t with
  | `Stop ->
    Log.info (fun m -> m "concrete counterexample found");
    stop run cur "falsified" (Falsified t)
  | `Again ->
    close run cur "marked";
    Again
  | `Refine -> otherwise ()

let concrete_limits run =
  Supervisor.concrete_limits run.sup run.config.concrete_atpg

(* Step 3 and the re-check as one ladder: each engine's answer to
   [query] as a rung, the primary's of [kind] and the rest fallbacks.
   [as_rung] turns an answer into the rung's result; it gets the
   resource a give-up of that engine reports. *)
let ladder run ~kind ~label ~query ~as_rung =
  let primary, rest = run.engines in
  List.mapi
    (fun i e ->
      ( (if i = 0 then kind else Supervisor.Fallback),
        label e,
        fun () -> as_rung e.give_up (query e (concrete_limits run)) ))
    (primary :: rest)

(* ---- Step 2a: prove, or find the target's depth ---------------------- *)

(* Ladder: the session's carried state as-is, then (on a BDD node
   blow-up) a session reset — a rebuild with a fresh FORCE variable
   order — then one more with a grown node budget. [Session.prepare]
   runs inside the rung, so its blow-ups map to [Error Nodes] like the
   fixpoint's own. *)
let abstract_mc run cur =
  let attempt prep () =
    match
      let { Session.vm; fn; img } = prep () in
      let init = Symbolic.initial_states vm in
      let bad_states, target = run.goal.target vm ~fn in
      (* Proven invariants as a care set: concretely reachable states
         all satisfy them, so restricting the abstract exploration to
         the invariant region is sound for Proved verdicts (and a
         Reached trace is still concretization-validated before it can
         become Falsified). *)
      let care =
        Option.map (fun a -> Analysis.constraint_bdd a vm) run.analysis
      in
      let res =
        Reach.run ~max_steps:run.config.mc_max_steps
          ?max_seconds:(Supervisor.time_left run.sup)
          ~stop_at_bad:(run.goal.settle = None) ?care img ~vm ~init
          ~bad_states
      in
      (vm, fn, res, target)
    with
    | exception Bdd.Limit_exceeded -> Error F.Nodes
    | (_, _, res, _) as v -> (
      match res.Reach.outcome with
      | Reach.Aborted r when F.retryable_resource r -> Error r
      | _ -> Ok v)
  in
  let rebuild node_limit () =
    Session.reset run.session ~fresh_order:true ~node_limit;
    Session.prepare run.session
  in
  let node_limit = run.config.node_limit in
  let mc =
    Telemetry.with_span "rfn.abstract_mc" ~attrs:cur.attrs (fun () ->
        Supervisor.run run.sup ~site:Supervisor.Abstract_mc ~engine:F.Bdd_mc
          ~phase:F.Abstract_mc ~iteration:cur.iter
          [
            ( Supervisor.Primary,
              "fixpoint",
              attempt (fun () -> Session.prepare run.session) );
            ( Supervisor.Retry,
              "fixpoint+fresh-order",
              attempt (rebuild node_limit) );
            ( Supervisor.Retry,
              "fixpoint+node-budget",
              attempt
                (rebuild
                   (node_limit
                   * (Supervisor.policy run.sup).Supervisor.node_limit_growth))
            );
          ])
  in
  Rfn_obs.Sampler.tick "rfn.abstract_mc";
  match mc with
  | Error failure -> aborted run cur failure
  | Ok (vm, fn, res, target) -> (
    check run cur ~engine:F.Bdd_mc ~phase:F.Abstract_mc
      ~what:"abstract-mc artifacts" (fun () ->
        Rfn_lint.Check.varmap vm
        @ Rfn_lint.Check.cone_cache vm
            ~signals:(Session.cone_signals run.session));
    cur.record <- { cur.record with fixpoint_steps = res.Reach.steps };
    let failure resource =
      F.make ~iteration:cur.iter ~engine:F.Bdd_mc ~phase:F.Abstract_mc resource
    in
    match (res.Reach.outcome, run.goal.settle) with
    | Reach.Proved, settle ->
      Log.info (fun m -> m "goal proved on the abstract model");
      Option.iter (fun f -> f vm res.Reach.reached) settle;
      stop run cur "proved" Proved
    | Reach.Closed k, Some f ->
      f vm res.Reach.reached;
      Next (vm, fn, res, k, target)
    | Reach.Closed _, None ->
      (* not produced when stop_at_bad is true; an engine invariant
         slip degrades into a reported abort rather than a crash *)
      stop run cur "aborted:invariant"
        (Aborted
           (failure
              (F.Invariant
                 "reachability closed with a bad intersection despite \
                  stop_at_bad")))
    | Reach.Aborted r, _ ->
      (* terminal resource (time or step bound) — the ladder does not
         retry those *)
      aborted run cur (failure r)
    | Reach.Reached k, _ -> Next (vm, fn, res, k, target))

(* ---- Step 2b: extract abstract error traces -------------------------- *)

(* Ladder: the paper's min-cut pre-image path, then pure pre-image on
   the abstract model (no cut, no ATPG cube extension). Hands on the
   first trace (what refinement explains) and every trace (the
   concrete search's guidance). *)
let extract run cur (vm, fn, res, k, target) =
  let attempt ~use_mincut () =
    match
      Hybrid.extract_multi
        ~atpg_limits:
          (Supervisor.clamp_limits run.sup Supervisor.Hybrid_extract
             run.config.abstract_atpg)
        ~use_mincut ~fn
        ~count:(max 1 run.config.guidance_traces)
        vm ~rings:res.Reach.rings ~target ~k
    with
    | exception Hybrid.Extraction_failed r -> Error r
    | exception Bdd.Limit_exceeded -> Error F.Nodes
    | [] ->
      (* extract_multi promises at least one trace *)
      Error (F.Invariant "hybrid engine returned no abstract traces")
    | hybrid :: rest -> Ok (hybrid, rest)
  in
  let extraction =
    Telemetry.with_span "rfn.hybrid" ~attrs:cur.attrs (fun () ->
        Supervisor.run run.sup ~site:Supervisor.Hybrid_extract
          ~engine:F.Hybrid ~phase:F.Trace_extraction ~iteration:cur.iter
          [
            (Supervisor.Primary, "min-cut", attempt ~use_mincut:true);
            (Supervisor.Fallback, "pure-preimage", attempt ~use_mincut:false);
          ])
  in
  Rfn_obs.Sampler.tick "rfn.hybrid";
  match extraction with
  | Error failure -> aborted run cur failure
  | Ok (hybrid, rest) ->
    let hybrids = hybrid :: rest in
    let view = cur.abstraction.Abstraction.view in
    check run cur ~engine:F.Hybrid ~phase:F.Trace_extraction
      ~what:"abstract error traces" (fun () ->
        (* input cubes may also pin min-cut signals, which carry an
           input variable in the varmap *)
        let input_ok s = Sview.is_free view s || Varmap.has_inp_var vm s in
        List.concat_map
          (fun h ->
            Rfn_lint.Check.trace ~input_ok view ~depth:(k + 1) h.Hybrid.trace)
          hybrids);
    let trace = hybrid.Hybrid.trace in
    let guidance = List.map (fun h -> h.Hybrid.trace) hybrids in
    run.last_trace <- Some trace;
    Log.info (fun m ->
        m "%d abstract error trace(s) of length %d (cut %d of %d inputs)"
          (List.length hybrids) (Trace.length trace) hybrid.Hybrid.cut_size
          hybrid.Hybrid.model_inputs);
    cur.record <-
      {
        cur.record with
        cut_size = Some hybrid.Hybrid.cut_size;
        no_cut_steps = hybrid.Hybrid.no_cut_steps;
        min_cut_steps = hybrid.Hybrid.min_cut_steps;
        trace_depth = Some (Trace.length trace);
        cubes =
          2 * List.fold_left (fun acc t -> acc + Trace.length t) 0 guidance;
        guidance = List.length hybrids;
        engine = engines_to_string run.config.engines;
      };
    Next (trace, guidance)

(* ---- Step 3: search the original design ------------------------------ *)

(* A failure here is never fatal: an injected or resource failure
   degrades to a give-up, which escalates the backtrack budget for the
   next iteration and refines. The ladder is the engine list, primary
   first, so in portfolio mode an ATPG give-up escalates to SAT-guided
   BMC at the same depth. *)
let concretize run cur guidance =
  let engine = (fst run.engines).family in
  let concrete =
    Telemetry.with_span "rfn.concretize" ~attrs:cur.attrs (fun () ->
        Supervisor.run run.sup ~site:Supervisor.Concretize ~engine
          ~phase:F.Concretization ~iteration:cur.iter
          (ladder run ~kind:Supervisor.Primary ~label:(fun e -> e.guided)
             ~query:(fun e limits -> e.concretize limits guidance)
             ~as_rung:(fun _ -> function
               | Concretize.Found t -> Ok (Some t)
               | Concretize.Not_found_here -> Ok None
               | Concretize.Gave_up { resource; _ } -> Error resource)))
  in
  Rfn_obs.Sampler.tick "rfn.concretize";
  let desc =
    match concrete with
    | Ok (Some _) -> "found"
    | Ok None -> "not-found"
    | Error f -> "gave-up:" ^ F.resource_to_string f.F.resource
  in
  cur.record <- { cur.record with concretize = desc };
  match concrete with
  | Ok (Some t) -> found run cur ~engine t ~otherwise:(fun () -> Next ())
  | Ok None -> Next ()
  | Error f ->
    Log.info (fun m ->
        m "concretization gave up (%a); escalating backtrack budget"
          F.pp_resource f.F.resource);
    Supervisor.escalate run.sup;
    Next ()

(* ---- Step 4: refine -------------------------------------------------- *)

(* Ladder: crucial registers, then (on an empty refinement) the
   highest-fanout pseudo-input, then a re-check of the abstract trace
   by each engine of the list. *)
let refine run cur abstract_trace =
  let abstraction = cur.abstraction in
  let crucial () =
    let r =
      Refine.crucial_registers
        ~atpg_limits:
          (Supervisor.clamp_limits run.sup Supervisor.Refine
             run.config.abstract_atpg)
        ?bad:run.goal.bad abstraction ~abstract_trace ()
    in
    if r.Refine.kept = [] then Error F.No_refinement
    else Ok (`Add (r.Refine.kept, List.length r.Refine.candidates))
  in
  let highest_fanout () =
    match Abstraction.pseudo_inputs abstraction with
    | [] ->
      (* no pseudo-inputs means the model is closed: the abstract trace
         should have concretized — let the BMC rung arbitrate *)
      Error (F.Invariant "closed abstract model, spurious trace")
    | p :: ps ->
      let fanout s = Array.length run.circuit.Circuit.fanouts.(s) in
      let best =
        List.fold_left (fun a s -> if fanout s > fanout a then s else a) p ps
      in
      Ok (`Add ([ best ], 1 + List.length ps))
  in
  let rechecks =
    ladder run ~kind:Supervisor.Fallback ~label:(fun e -> e.recheck)
      ~query:(fun e limits -> e.falsify limits abstract_trace)
      ~as_rung:(fun give_up -> function
        | Concretize.Found t -> Ok (`Cex t)
        | Concretize.Not_found_here -> Error F.No_refinement
        | Concretize.Gave_up _ -> Error give_up)
  in
  let refinement =
    Telemetry.with_span "rfn.refine" ~attrs:cur.attrs (fun () ->
        Supervisor.run run.sup ~site:Supervisor.Refine ~engine:F.Seq_atpg
          ~phase:F.Refinement ~iteration:cur.iter
          ((Supervisor.Primary, "crucial-registers", crucial)
          :: (Supervisor.Fallback, "highest-fanout", highest_fanout)
          :: rechecks))
  in
  Rfn_obs.Sampler.tick "rfn.refine";
  match refinement with
  | Ok (`Add (regs, candidates)) ->
    Log.info (fun m ->
        m "refining with %d register(s) (%d candidates)" (List.length regs)
          candidates);
    (* counted first: in reference mode refinement moves the session
       to a fresh, empty manager *)
    let nodes = session_nodes run in
    let delta = Session.refine run.session ~add:regs in
    Log.debug (fun m ->
        m "delta: %d promoted, %d fresh, %d new signals"
          (List.length delta.Abstraction.promoted)
          (List.length delta.Abstraction.fresh_regs)
          delta.Abstraction.new_signals);
    cur.record <-
      {
        cur.record with
        candidates;
        promoted = List.map (Circuit.name run.circuit) regs;
        regs_after = Abstraction.num_regs (Session.abstraction run.session);
      };
    close ~nodes run cur "refined";
    check run cur ~engine:F.Cegar ~phase:F.Refinement
      ~what:"post-refine varmap" (fun () ->
        match Session.varmap run.session with
        | None -> []
        | Some vm -> Rfn_lint.Check.varmap vm);
    Next ()
  | Ok (`Cex t) ->
    Log.info (fun m -> m "re-check found a concrete trace");
    found run cur ~engine:F.Seq_atpg t ~otherwise:(fun () ->
        aborted run cur
          (F.make ~iteration:cur.iter ~engine:F.Cegar ~phase:F.Refinement
             F.No_refinement))
  | Error failure -> aborted run cur failure

(* ---- the loop -------------------------------------------------------- *)

let finish run outcome =
  (* a conclusive verdict retires the checkpoint; an abort keeps it so
     the run can be resumed *)
  (match (outcome, run.checkpoint) with
  | (Proved | Falsified _), Some ck -> Checkpoint.retire ck
  | _ -> ());
  ( outcome,
    {
      provenance = List.rev run.provenance;
      coi_regs = 0;
      coi_gates = 0;
      final_abstract_regs =
        Abstraction.num_regs (Session.abstraction run.session);
      last_abstract_trace = run.last_trace;
      seconds = Telemetry.now () -. run.started;
      resumed_iterations = run.resumed_iterations;
    } )

let save_checkpoint run iter =
  Option.iter
    (fun ck ->
      match
        Checkpoint.persist ck ~iteration:iter
          ~seconds_used:(Telemetry.now () -. run.started)
          ~escalation:(Supervisor.escalation run.sup)
          ~regs:
            (Bitset.to_list (Session.abstraction run.session).Abstraction.regs)
          ~provenance:(List.rev run.provenance)
      with
      | Ok () -> ()
      | Error msg -> Log.warn (fun m -> m "checkpoint save failed: %s" msg))
    run.checkpoint

(* The loop state is persisted atomically at each iteration boundary,
   keyed by a digest of the netlist: a killed run resumes from its last
   completed refinement, and a checkpoint written for a different
   design, property or job is ignored with a warning rather than
   trusted. Returns the iteration to start at and the checkpointed
   provenance, oldest first. *)
let resume (config : config) session sup ck =
  match (config.checkpoint, ck) with
  | Some file, Some ck when config.resume -> (
    match Checkpoint.resume ck with
    | Ok None -> (1, [])
    | Error msg ->
      Log.warn (fun m ->
          m "ignoring checkpoint %s (%s); starting fresh" file msg);
      (1, [])
    | Ok (Some (saved, regs)) ->
      let current = (Session.abstraction session).Abstraction.regs in
      let add = List.filter (fun s -> not (Bitset.mem current s)) regs in
      if add <> [] then ignore (Session.refine session ~add);
      Supervisor.set_escalation sup saved.Checkpoint.escalation;
      let start = max 1 saved.Checkpoint.iteration in
      let regs = Abstraction.num_regs (Session.abstraction session) in
      Telemetry.event "rfn.resume"
        [
          ("file", Json.Str file);
          ("iteration", Json.Int start);
          ("regs", Json.Int regs);
        ];
      Log.info (fun m ->
          m "resumed from %s: continuing at iteration %d with %d registers"
            file start regs);
      (start, saved.Checkpoint.provenance))
  | _ -> (1, [])

let rec iterate run iter =
  save_checkpoint run iter;
  let loop_failure r = F.make ~iteration:iter ~engine:F.Cegar ~phase:F.Loop r in
  if run.goal.settled () then finish run Proved
  else if iter > run.config.max_iterations then
    finish run (Aborted (loop_failure F.Iterations))
  else if Supervisor.out_of_time run.sup then
    finish run (Aborted (loop_failure F.Time))
  else
    let cur = begin_iteration run iter in
    let ( let* ) step next =
      match step with
      | Stop outcome -> finish run outcome
      | Again -> iterate run (iter + 1)
      | Next x -> next x
    in
    let* mc = abstract_mc run cur in
    let* trace, guidance = extract run cur mc in
    let* () = concretize run cur guidance in
    let* () = refine run cur trace in
    iterate run (iter + 1)

(* The loop for [goal] on [session] as it stands, [checkpoint] keyed by
   the caller. *)
let run_goal ~config ~started ~checkpoint session goal =
  let circuit = Session.circuit session in
  (* Every BDD manager in the process records into [bdd.live_nodes]:
     restart it from this session's own manager, so the provenance
     records' peak is this run's alone. *)
  Telemetry.rebase g_bdd_nodes
    (match Session.varmap session with
    | None -> 0
    | Some vm -> Bdd.num_nodes (Varmap.man vm));
  (* Static pre-flight: infer and inductively prove reachable-state
     invariants on the concrete netlist, once per session (a warm
     session reuses the previous run's result — the invariants are
     facts about the design, not the goal). Every consumer below only
     sees *proved* invariants, so analysis can only prune work, never
     change a verdict. *)
  let analysis =
    if not config.analyze then None
    else
      match Session.analysis session with
      | Some a -> Some a
      | None ->
        let a =
          Telemetry.with_span "rfn.analyze" (fun () -> Analysis.run circuit)
        in
        Session.set_analysis session a;
        Log.info (fun m ->
            m "analysis: %d invariant(s) proved (%d candidates) in %.2fs"
              a.Analysis.stats.Analysis.proved
              a.Analysis.stats.Analysis.candidates a.Analysis.seconds);
        Some a
  in
  (* ATPG alone without a bad signal ([engines_for]), and records say so *)
  let config =
    if goal.bad = None then { config with engines = Atpg_only } else config
  in
  let sup =
    Supervisor.start ?inject:config.inject config.supervisor
      ~max_seconds:config.max_seconds
  in
  let start, provenance = resume config session sup checkpoint in
  let run =
    {
      config;
      session;
      circuit;
      goal;
      analysis;
      sup;
      engines =
        engines_for ?analysis ~check:config.check_invariants circuit
          ~bad:goal.bad config.engines;
      checkpoint;
      started;
      resumed_iterations = start - 1;
      provenance = List.rev provenance;
      last_trace = None;
    }
  in
  try iterate run start
  with Check_violation failure -> finish run (Aborted failure)

let pursue ?(config = default_config) session goal =
  run_goal ~config ~started:(Telemetry.now ()) ~checkpoint:None session goal

let verify_in_session ?(config = default_config) session prop =
  let started = Telemetry.now () in
  let circuit = Session.circuit session in
  let roots = Property.roots prop in
  (* (Re)point the session at this property. On a warm session of the
     same design, carried cone BDDs the two properties share survive
     verbatim; a fresh session just initializes its abstraction. *)
  Session.retarget session ~roots;
  let checkpoint =
    Option.map
      (fun file ->
        Checkpoint.for_run ~job_id:config.job_id file circuit
          ~property:prop.Property.name)
      config.checkpoint
  in
  let outcome, stats =
    run_goal ~config ~started ~checkpoint session
      (property_goal prop.Property.bad)
  in
  let coi = Coi.compute circuit ~roots in
  ( outcome,
    { stats with coi_regs = Coi.num_regs coi; coi_gates = Coi.num_gates coi } )

let verify ?(config = default_config) circuit prop =
  let session = prepare ~config circuit ~roots:(Property.roots prop) in
  verify_in_session ~config session prop

let check_coi_model_checking ?(node_limit = 2_000_000) ?(max_steps = 10_000)
    ?max_seconds circuit prop =
  let started = Telemetry.now () in
  let bad = prop.Property.bad in
  let coi = Coi.compute circuit ~roots:(Property.roots prop) in
  let view = Coi.restrict_view circuit coi ~roots:(Property.roots prop) in
  let result =
    match
      let vm = Varmap.make ~node_limit view in
      let fn = Symbolic.functions vm in
      let img = Image.make vm in
      let init = Symbolic.initial_states vm in
      let bad_states = Reach.bad_predicate vm ~fn ~bad in
      Reach.run ~max_steps ?max_seconds img ~vm ~init ~bad_states
    with
    | exception Bdd.Limit_exceeded -> `Aborted F.Nodes
    | res -> (
      match res.Reach.outcome with
      | Reach.Proved -> `Proved
      | Reach.Reached k | Reach.Closed k -> `Reached k
      | Reach.Aborted r -> `Aborted r)
  in
  (result, Telemetry.now () -. started)
