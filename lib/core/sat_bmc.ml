open Rfn_circuit
module Atpg = Rfn_atpg.Atpg
module Solver = Rfn_sat.Solver
module Cnf = Rfn_sat.Cnf
module Sim3v = Rfn_sim3v.Sim3v
module Telemetry = Rfn_obs.Telemetry

module Check = Rfn_lint.Check

let c_falsify = Telemetry.counter "sat_bmc.falsify_calls"
let c_concretize = Telemetry.counter "sat_bmc.concretize_calls"
let c_found = Telemetry.counter "sat_bmc.found"

let limits_of_atpg (l : Atpg.limits) =
  { Solver.max_conflicts = l.Atpg.max_backtracks;
    max_seconds = l.Atpg.max_seconds }

(* Pins of an abstract trace, cycle by cycle (the cubes only constrain
   registers and inputs, both of which have frame literals on the whole
   design). *)
let trace_pins trace =
  let pins = ref [] in
  for j = 0 to Trace.length trace - 1 do
    let add cube =
      List.iter
        (fun (s, v) -> pins := (j, s, v) :: !pins)
        (Cube.to_list cube)
    in
    add (Trace.state trace j);
    add (Trace.input trace j)
  done;
  !pins

(* CNF sanity + assumption-pin totality under RFN_CHECK: returns the
   violation message instead of raising, so the BMC loops can degrade
   into their give-up outcomes. *)
let unrolling_violation ~what unr ~pins =
  if not (Check.env_enabled ()) then None
  else
    match Check.ensure ~what (Check.cnf unr @ Check.pins unr pins) with
    | () -> None
    | exception Check.Violation (w, fs) ->
      Some (Check.violation_message w fs)

(* One unrolling of the concrete cone of [bad], shared by every call
   handed it: frames are encoded once and only ever appended, and the
   solver keeps its learned clauses between calls. *)
type unrolling = {
  circuit : Circuit.t;
  bad : int;
  analysis : Rfn_analysis.Analysis.t option;
  unr : Cnf.t;
}

let unrolling ?analysis circuit ~bad =
  let unr = Cnf.create (Sview.whole circuit ~roots:[ bad ]) in
  { circuit; bad; analysis; unr }

(* Encode up to [frames] frames. Persistent invariant clauses: the
   unrolling starts from the initial states (frame-0 registers clamped),
   so every frame holds a reachable state and the proven invariants may
   be asserted at each newly encoded frame. *)
let deepen u ~frames =
  let encoded = Cnf.frames u.unr in
  Cnf.extend u.unr ~frames;
  match u.analysis with
  | None -> ()
  | Some a ->
    for f = encoded to Cnf.frames u.unr - 1 do
      ignore (Rfn_analysis.Analysis.assume_frame a u.unr ~frame:f)
    done

(* The solver's work since [s0], so a caller sees its own call's
   numbers however many calls shared the instance before. *)
let stats_since u (s0 : Solver.stats) =
  let s = Solver.stats (Cnf.solver u.unr) in
  {
    Solver.conflicts = s.Solver.conflicts - s0.Solver.conflicts;
    propagations = s.Solver.propagations - s0.Solver.propagations;
    decisions = s.Solver.decisions - s0.Solver.decisions;
    learned = s.Solver.learned - s0.Solver.learned;
    restarts = s.Solver.restarts - s0.Solver.restarts;
    max_vars = s.Solver.max_vars;
  }

let falsify ?(limits = Atpg.default_limits) u ~max_depth =
  Telemetry.incr c_falsify;
  let { circuit; bad; unr; _ } = u in
  let solver = Cnf.solver unr in
  let s0 = Solver.stats solver in
  let solver_limits = limits_of_atpg limits in
  let rec go depth =
    if depth > max_depth then Bmc.Exhausted
    else begin
      deepen u ~frames:depth;
      match unrolling_violation ~what:"sat_bmc.falsify unrolling" unr ~pins:[]
      with
      | Some _ ->
        (* the violation is on the check.* counters and the sink *)
        Bmc.Gave_up depth
      | None -> (
        let target = Cnf.lit_of unr ~frame:(depth - 1) bad in
        match
          Telemetry.with_span "sat_bmc.solve"
            ~attrs:[ ("depth", Rfn_obs.Json.Int depth) ]
            (fun () ->
              Solver.solve ~limits:solver_limits ~assumptions:[ target ] solver)
        with
        | Solver.Sat ->
          let t = Cnf.trace unr ~frames:depth in
          if Sim3v.replay_concrete circuit t ~bad then begin
            Telemetry.incr c_found;
            Bmc.Found t
          end
          else Bmc.Gave_up depth (* engine bug guard *)
        | Solver.Unsat -> go (depth + 1)
        | Solver.Unknown _ -> Bmc.Gave_up depth)
    end
  in
  let outcome = go 1 in
  (outcome, stats_since u s0)

let concretize ?(limits = Atpg.default_limits) u ~abstract_traces =
  if abstract_traces = [] then
    invalid_arg "Sat_bmc.concretize: no abstract traces";
  Telemetry.incr c_concretize;
  let { circuit; bad; unr; _ } = u in
  let solver = Cnf.solver unr in
  let s0 = Solver.stats solver in
  let solver_limits = limits_of_atpg limits in
  let rec go gave_up = function
    | [] -> (
      match gave_up with
      | None -> Concretize.Not_found_here
      | Some r -> Concretize.Gave_up r)
    | tr :: rest -> (
      let frames = Trace.length tr in
      deepen u ~frames;
      let pins = trace_pins tr in
      match
        unrolling_violation ~what:"sat_bmc.concretize unrolling" unr ~pins
      with
      | Some msg -> Concretize.Gave_up (Rfn_failure.Invariant msg)
      | None -> (
        let assumptions =
          Cnf.lit_of unr ~frame:(frames - 1) bad
          :: Cnf.assumptions_of_pins unr pins
        in
        match
          Telemetry.with_span "sat_bmc.concretize"
            ~attrs:[ ("frames", Rfn_obs.Json.Int frames) ]
            (fun () -> Solver.solve ~limits:solver_limits ~assumptions solver)
        with
        | Solver.Sat ->
          let t = Cnf.trace unr ~frames in
          if Sim3v.replay_concrete circuit t ~bad then begin
            Telemetry.incr c_found;
            Concretize.Found t
          end
          else
            (* engine bug guard: never report unvalidated *)
            Concretize.Gave_up
              (Rfn_failure.Invariant "unvalidated SAT counterexample")
        | Solver.Unsat -> go gave_up rest
        | Solver.Unknown r -> go (Some r) rest))
  in
  let outcome = go None abstract_traces in
  (outcome, stats_since u s0)
