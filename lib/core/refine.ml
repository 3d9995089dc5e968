open Rfn_circuit
module Atpg = Rfn_atpg.Atpg
module Sim3v = Rfn_sim3v.Sim3v
module Telemetry = Rfn_obs.Telemetry

let c_checks = Telemetry.counter "refine.trace_checks"
let c_candidates = Telemetry.counter "refine.candidates"
let c_kept = Telemetry.counter "refine.registers_added"

type result = { candidates : int list; kept : int list; invalidated : bool }

(* Phase 1: 3-valued replay of the abstract trace on the original
   design. Trace values are forced back into the state after each
   step ("the value from the error trace will be used for the next
   step"); disagreeing registers outside the model are candidates. *)
let simulation_candidates abstraction ~abstract_trace =
  let c = abstraction.Abstraction.circuit in
  let net = Sview.net (Sview.whole c ~roots:[]) in
  let parent = net.Vnet.parent in
  let k = Trace.length abstract_trace in
  (* Cycle [j]'s trace literals by signal, state before input: every
     register of the design is looked up at every cycle. *)
  let literals =
    Array.init k (fun j ->
        let h = Hashtbl.create 64 in
        List.iter
          (fun (s, b) -> Hashtbl.replace h s b)
          (Cube.to_list (Trace.input abstract_trace j)
          @ Cube.to_list (Trace.state abstract_trace j));
        h)
  in
  let trace_value j s = Hashtbl.find_opt literals.(j) s in
  let in_model r = Rfn_circuit.Bitset.mem abstraction.Abstraction.regs r in
  let candidates = ref [] in
  let seen = Hashtbl.create 17 in
  let record r =
    if (not (Hashtbl.mem seen r)) && not (in_model r) then begin
      Hashtbl.add seen r ();
      candidates := r :: !candidates
    end
  in
  (* The replay runs single-pattern through the packed evaluator
     (lane 0): on whole-design views this loop dominates refinement
     time and the word-wide kernel is branch-free per gate. Two plane
     buffers alternate: cycle [j + 1] reads cycle [j]'s next state. *)
  let splat = function
    | Some b -> Sim3v.Packed.splat (Sim3v.of_bool b)
    | None -> Sim3v.Packed.splat Sim3v.VX
  in
  let next vec l = Sim3v.Packed.read vec (Vnet.fanin net l 0) in
  let prev = ref None and spare = ref None in
  for j = 0 to k - 2 do
    let state l =
      match (trace_value j parent.(l), !prev) with
      | None, Some vec -> next vec l
      | v, _ -> splat v
    in
    let free l = splat (Cube.value (Trace.input abstract_trace j) parent.(l)) in
    let vec = Sim3v.Packed.eval_net ?into:!spare net ~free ~state in
    spare := !prev;
    prev := Some vec;
    (* Compare the simulated next state against cycle j+1 of the trace. *)
    Array.iter
      (fun l ->
        match trace_value (j + 1) parent.(l) with
        | Some b ->
          if
            Sim3v.conflicts
              (Sim3v.Packed.get (next vec l) 0)
              (Sim3v.of_bool b)
          then record parent.(l)
        | None -> ())
      net.Vnet.regs
  done;
  List.rev !candidates

(* Fallback when nothing conflicts: pseudo-inputs mentioned most often
   in the trace. *)
let frequency_candidates abstraction ~abstract_trace ~max_fallback =
  let counts = Hashtbl.create 97 in
  let k = Trace.length abstract_trace in
  for j = 0 to k - 1 do
    List.iter
      (fun (s, _) ->
        if Abstraction.is_pseudo_input abstraction s then
          Hashtbl.replace counts s
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
      (Cube.to_list (Trace.input abstract_trace j))
  done;
  Hashtbl.fold (fun s n acc -> (s, n) :: acc) counts []
  |> List.sort (fun (s1, n1) (s2, n2) ->
         if n1 <> n2 then compare n2 n1 else compare s1 s2)
  |> List.filteri (fun i _ -> i < max_fallback)
  |> List.map fst

(* Is the abstract error trace still satisfiable on a refined model?
   Pins: every trace literal that falls inside the model (the solver
   sorts out free vs derived), plus the bad objective at the end. *)
let trace_satisfiable ~atpg_limits abstraction ~abstract_trace ~bad =
  let view = abstraction.Abstraction.view in
  let k = Trace.length abstract_trace in
  let pins =
    ref (match bad with Some b -> [ (k - 1, b, true) ] | None -> [])
  in
  for j = 0 to k - 1 do
    let add cube =
      List.iter
        (fun (s, v) -> if Sview.mem view s then pins := (j, s, v) :: !pins)
        (Cube.to_list cube)
    in
    add (Trace.state abstract_trace j);
    add (Trace.input abstract_trace j)
  done;
  match Atpg.solve ~limits:atpg_limits view ~frames:k ~pins:!pins () with
  | Atpg.Sat _, _ -> `Sat
  | Atpg.Unsat, _ -> `Unsat
  | Atpg.Abort _, _ -> `Abort

let crucial_registers ?(atpg_limits = Atpg.default_limits) ?(max_fallback = 8)
    ?bad abstraction ~abstract_trace () =
  let candidates =
    match simulation_candidates abstraction ~abstract_trace with
    | [] -> frequency_candidates abstraction ~abstract_trace ~max_fallback
    | cs -> cs
  in
  let check added =
    Telemetry.incr c_checks;
    Telemetry.with_span "refine.trace_check" (fun () ->
        trace_satisfiable ~atpg_limits
          (Abstraction.refine abstraction ~add:added)
          ~abstract_trace ~bad)
  in
  (* Phase 2a: add candidates until the trace is refuted. *)
  let rec grow added = function
    | [] -> (List.rev added, false, false)
    | c :: rest -> (
      let added = c :: added in
      match check (List.rev added) with
      | `Unsat -> (List.rev added, true, false)
      | `Sat -> grow added rest
      | `Abort -> (candidates, false, true))
  in
  let kept, invalidated, aborted = grow [] candidates in
  (* Phase 2b: try removing earlier additions (never the last, which
     tipped the model into refuting the trace). *)
  let kept =
    if (not invalidated) || aborted || List.length kept < 2 then kept
    else begin
      let rec shrink confirmed = function
        | [] -> List.rev confirmed
        | [ last ] -> List.rev (last :: confirmed)
        | d :: rest -> (
          let trial = List.rev_append confirmed rest in
          match check trial with
          | `Unsat -> shrink confirmed rest
          | `Sat | `Abort -> shrink (d :: confirmed) rest)
      in
      shrink [] kept
    end
  in
  Telemetry.add c_candidates (List.length candidates);
  Telemetry.add c_kept (List.length kept);
  { candidates; kept; invalidated }
