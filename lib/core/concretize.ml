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
  | Gave_up of { resource : Rfn_failure.resource; frames : int }

let validated circuit ~bad ~frames t =
  if Sim3v.replay_concrete circuit t ~bad then Found t
  else
    (* engine bug guard: never report unvalidated *)
    Gave_up
      { resource = Rfn_failure.Invariant "unvalidated counterexample"; frames }

let first_found query items =
  let rec go gave_up = function
    | [] -> Option.value gave_up ~default:Not_found_here
    | x :: rest -> (
      match query x with
      | Found _ as found -> found
      | Not_found_here -> go gave_up rest
      | Gave_up _ as g -> go (Some g) rest)
  in
  go None items

let deepen query ~max_depth =
  let rec go frames =
    if frames > max_depth then Not_found_here
    else match query ~frames with Not_found_here -> go (frames + 1) | o -> o
  in
  go 1

(* ATPG's one query: [frames] frames from the initial states under
   [pins], with [bad] at the last frame when there is a bad signal. A
   trace that reaches [bad] is replayed before it counts; without one
   the pins are the whole target and the trace is the answer. *)
let query ~limits ?bad circuit ~frames ~pins =
  let view = Sview.whole circuit ~roots:(Option.to_list bad) in
  let pins =
    match bad with Some b -> (frames - 1, b, true) :: pins | None -> pins
  in
  match Atpg.solve ~limits view ~frames ~pins () with
  | Atpg.Sat t, stats ->
    ( (match bad with
      | Some bad -> validated circuit ~bad ~frames t
      | None -> Found t),
      stats )
  | Atpg.Unsat, stats -> (Not_found_here, stats)
  | Atpg.Abort resource, stats -> (Gave_up { resource; frames }, stats)

(* The query as Step 3 and the guidance ablation count it. *)
let run ~limits ?bad circuit ~frames ~pins =
  Telemetry.incr c_attempts;
  Telemetry.with_span "concretize.atpg"
    ~attrs:[ ("frames", Rfn_obs.Json.Int frames) ]
    (fun () ->
      let ((outcome, stats) as answer) =
        query ~limits ?bad circuit ~frames ~pins
      in
      Telemetry.observe h_backtracks (float_of_int stats.Atpg.backtracks);
      (match outcome with Found _ -> Telemetry.incr c_found | _ -> ());
      answer)

let guided ?(limits = Atpg.default_limits) ?analysis ?bad circuit
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
  else run ~limits ?bad circuit ~frames:(Trace.length abstract_trace) ~pins

let unguided ?(limits = Atpg.default_limits) circuit ~bad ~depth =
  run ~limits circuit ~bad ~frames:depth ~pins:[]

let falsify ?(limits = Atpg.default_limits) circuit ~bad ~max_depth =
  let total = ref { Atpg.decisions = 0; backtracks = 0 } in
  let outcome =
    deepen ~max_depth (fun ~frames ->
        let outcome, s = query ~limits circuit ~bad ~frames ~pins:[] in
        total :=
          {
            Atpg.decisions = !total.Atpg.decisions + s.Atpg.decisions;
            backtracks = !total.Atpg.backtracks + s.Atpg.backtracks;
          };
        outcome)
  in
  (outcome, !total)
