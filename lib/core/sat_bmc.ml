open Rfn_circuit
module Atpg = Rfn_atpg.Atpg
module Solver = Rfn_sat.Solver
module Cnf = Rfn_sat.Cnf
module Telemetry = Rfn_obs.Telemetry
module Check = Rfn_lint.Check

let c_falsify = Telemetry.counter "sat_bmc.falsify_calls"
let c_concretize = Telemetry.counter "sat_bmc.concretize_calls"
let c_found = Telemetry.counter "sat_bmc.found"

(* An ATPG budget on the solver: backtracks become conflicts
   one-for-one, the wall-clock budget carries over. *)
let limits_of_atpg (l : Atpg.limits) =
  { Solver.max_conflicts = l.Atpg.max_backtracks;
    max_seconds = l.Atpg.max_seconds }

(* One unrolling of the concrete cone of [bad], shared by every call
   handed it: frames are encoded once and only ever appended, and the
   solver keeps its learned clauses between calls. *)
type unrolling = {
  circuit : Circuit.t;
  bad : int;
  analysis : Rfn_analysis.Analysis.t option;
  check : bool;
  unr : Cnf.t;
}

let unrolling ?analysis ~check circuit ~bad =
  let unr = Cnf.create (Sview.whole circuit ~roots:[ bad ]) in
  { circuit; bad; analysis; check; unr }

(* Encode up to [frames] frames. Persistent invariant clauses: the
   unrolling starts from the initial states (frame-0 registers clamped),
   so every frame holds a reachable state and the proven invariants may
   be asserted at each newly encoded frame. *)
let extend u ~frames =
  let encoded = Cnf.frames u.unr in
  Cnf.extend u.unr ~frames;
  match u.analysis with
  | None -> ()
  | Some a ->
    for f = encoded to Cnf.frames u.unr - 1 do
      ignore (Rfn_analysis.Analysis.assume_frame a u.unr ~frame:f)
    done

(* SAT's one query: extend the unrolling to [frames] frames, check it
   when the unrolling checks invariants, solve for [bad] at the last
   frame under [pins] as assumptions, and replay what it finds. *)
let query ~timer ~limits u ~frames ~pins =
  extend u ~frames;
  match
    if u.check then
      Check.ensure ~what:"sat_bmc unrolling"
        (Check.cnf u.unr @ Check.pins u.unr pins)
  with
  | exception Check.Violation (w, fs) ->
    (* the violation is on the check.* counters and the sink *)
    Concretize.Gave_up
      {
        resource = Rfn_failure.Invariant (Check.violation_message w fs);
        frames;
      }
  | () -> (
    let assumptions =
      Cnf.lit_of u.unr ~frame:(frames - 1) u.bad
      :: Cnf.assumptions_of_pins u.unr pins
    in
    match
      Telemetry.with_span (fst timer)
        ~attrs:[ (snd timer, Rfn_obs.Json.Int frames) ]
        (fun () ->
          Solver.solve ~limits:(limits_of_atpg limits) ~assumptions
            (Cnf.solver u.unr))
    with
    | Solver.Sat ->
      let outcome =
        Concretize.validated u.circuit ~bad:u.bad ~frames
          (Cnf.trace u.unr ~frames)
      in
      (match outcome with
      | Concretize.Found _ -> Telemetry.incr c_found
      | _ -> ());
      outcome
    | Solver.Unsat -> Concretize.Not_found_here
    | Solver.Unknown resource -> Concretize.Gave_up { resource; frames })

(* One call's answer and the solver's work during it, so a caller sees
   its own call's numbers however many calls shared the instance
   before; [max_vars] is the instance's current size. *)
let measured u counter f =
  Telemetry.incr counter;
  let solver = Cnf.solver u.unr in
  let s0 = Solver.stats solver in
  let outcome = f () in
  let s = Solver.stats solver in
  ( outcome,
    {
      Solver.conflicts = s.Solver.conflicts - s0.Solver.conflicts;
      propagations = s.Solver.propagations - s0.Solver.propagations;
      decisions = s.Solver.decisions - s0.Solver.decisions;
      learned = s.Solver.learned - s0.Solver.learned;
      restarts = s.Solver.restarts - s0.Solver.restarts;
      max_vars = s.Solver.max_vars;
    } )

let falsify ?(limits = Atpg.default_limits) u ~max_depth =
  measured u c_falsify (fun () ->
      Concretize.deepen ~max_depth
        (query ~timer:("sat_bmc.solve", "depth") ~limits u ~pins:[]))

let concretize ?(limits = Atpg.default_limits) u ~abstract_traces =
  measured u c_concretize (fun () ->
      Concretize.first_found
        (fun t ->
          (* trace cubes pin only registers and inputs, both of which
             have frame literals on the whole design *)
          query ~timer:("sat_bmc.concretize", "frames") ~limits u
            ~frames:(Trace.length t) ~pins:(Trace.pins t))
        abstract_traces)
