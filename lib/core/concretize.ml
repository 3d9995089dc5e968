open Rfn_circuit
module Atpg = Rfn_atpg.Atpg
module Sim3v = Rfn_sim3v.Sim3v
module Telemetry = Rfn_obs.Telemetry

let c_attempts = Telemetry.counter "concretize.attempts"
let c_found = Telemetry.counter "concretize.found"
let h_backtracks = Telemetry.histogram "concretize.backtracks"

type outcome =
  | Found of Trace.t
  | Not_found_here
  | Gave_up of Rfn_failure.resource

let run ~limits circuit ~bad ~frames ~pins =
  Telemetry.incr c_attempts;
  Telemetry.with_span "concretize.atpg"
    ~attrs:[ ("frames", Rfn_obs.Json.Int frames) ]
    (fun () ->
      let view = Sview.whole circuit ~roots:[ bad ] in
      let pins = (frames - 1, bad, true) :: pins in
      let solved = Atpg.solve ~limits view ~frames ~pins () in
      Telemetry.observe h_backtracks
        (float_of_int (snd solved).Atpg.backtracks);
      match solved with
      | Atpg.Sat t, stats ->
        if Sim3v.replay_concrete circuit t ~bad then begin
          Telemetry.incr c_found;
          (Found t, stats)
        end
        else
          (* engine bug guard: never report unvalidated *)
          (Gave_up (Rfn_failure.Invariant "unvalidated counterexample"), stats)
      | Atpg.Unsat, stats -> (Not_found_here, stats)
      | Atpg.Abort r, stats -> (Gave_up r, stats))

let guided ?(limits = Atpg.default_limits) ?analysis circuit ~bad
    ~abstract_trace =
  let pins = Trace.pins abstract_trace in
  (* Don't-care pre-filter: the concrete search runs from the initial
     states, so its every cycle is a reachable state; guidance pins
     that contradict a proven invariant cannot be met by any such
     trace — answer Unsat without searching. *)
  let doomed =
    match analysis with
    | Some a -> Rfn_analysis.Analysis.refutes_pins a pins
    | None -> false
  in
  if doomed then (Not_found_here, { Atpg.decisions = 0; backtracks = 0 })
  else run ~limits circuit ~bad ~frames:(Trace.length abstract_trace) ~pins

let guided_any ?(limits = Atpg.default_limits) ?analysis circuit ~bad
    ~abstract_traces =
  let sum a b =
    {
      Atpg.decisions = a.Atpg.decisions + b.Atpg.decisions;
      backtracks = a.Atpg.backtracks + b.Atpg.backtracks;
    }
  in
  let zero = { Atpg.decisions = 0; backtracks = 0 } in
  let rec go acc gave_up = function
    | [] -> (
      ( (match gave_up with None -> Not_found_here | Some r -> Gave_up r),
        acc ))
    | t :: rest -> (
      match guided ~limits ?analysis circuit ~bad ~abstract_trace:t with
      | Found trace, stats -> (Found trace, sum acc stats)
      | Not_found_here, stats -> go (sum acc stats) gave_up rest
      | Gave_up r, stats -> go (sum acc stats) (Some r) rest)
  in
  if abstract_traces = [] then
    invalid_arg "Concretize.guided_any: no abstract traces"
  else go zero None abstract_traces

let guided_to_trace ?(limits = Atpg.default_limits) circuit ~abstract_trace =
  let view = Sview.whole circuit ~roots:[] in
  match
    Atpg.solve ~limits view
      ~frames:(Trace.length abstract_trace)
      ~pins:(Trace.pins abstract_trace) ()
  with
  | Atpg.Sat t, stats -> (Found t, stats)
  | Atpg.Unsat, stats -> (Not_found_here, stats)
  | Atpg.Abort r, stats -> (Gave_up r, stats)

let unguided ?(limits = Atpg.default_limits) circuit ~bad ~depth =
  run ~limits circuit ~bad ~frames:depth ~pins:[]
