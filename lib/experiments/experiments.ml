open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Coverage = Rfn_core.Coverage
module Concretize = Rfn_core.Concretize
module Atpg = Rfn_atpg.Atpg
module Provenance = Rfn_obs.Provenance

(* The five Table 1 verification problems. *)
let table1_problems ~small =
  let proc =
    if small then Rfn_designs.Processor.(make ~params:small ())
    else Rfn_designs.Processor.make ()
  in
  let fifo =
    if small then Rfn_designs.Fifo.(make ~params:small ())
    else Rfn_designs.Fifo.make ()
  in
  [
    (proc.Rfn_designs.Processor.circuit, proc.mutex);
    (proc.circuit, proc.error_flag);
    (fifo.Rfn_designs.Fifo.circuit, fifo.psh_hf);
    (fifo.circuit, fifo.psh_af);
    (fifo.circuit, fifo.psh_full);
  ]

module Table1 = struct
  type row = {
    property : string;
    coi_regs : int;
    coi_gates : int;
    seconds : float;
    result : string;
    abstract_regs : int;
    trace_cycles : int option;
    baseline : (string * float) option;
  }

  let run ?(small = false) ?(baseline = false) ?(baseline_seconds = 60.0) () =
    List.map
      (fun (circuit, (prop : Property.t)) ->
        let outcome, stats = Rfn.verify circuit prop in
        let result, trace_cycles =
          match outcome with
          | Rfn.Proved -> ("T", None)
          | Rfn.Falsified t -> ("F", Some (Trace.length t - 1))
          | Rfn.Aborted why -> ("abort: " ^ Rfn_failure.to_string why, None)
        in
        let baseline =
          if baseline then
            let verdict, secs =
              Rfn.check_coi_model_checking ~max_seconds:baseline_seconds
                circuit prop
            in
            Some
              ( (match verdict with
                | `Proved -> "T"
                | `Reached k -> Printf.sprintf "F@%d" k
                | `Aborted r -> "fails (" ^ Rfn_failure.resource_to_string r ^ ")"),
                secs )
          else None
        in
        {
          property = prop.Property.name;
          coi_regs = stats.Rfn.coi_regs;
          coi_gates = stats.Rfn.coi_gates;
          seconds = stats.Rfn.seconds;
          result;
          abstract_regs = stats.Rfn.final_abstract_regs;
          trace_cycles;
          baseline;
        })
      (table1_problems ~small)

  let print ppf rows =
    Format.fprintf ppf
      "Table 1: Property Verification Results@.%-12s %8s %9s %8s  %-6s %8s@."
      "Property" "COI regs" "COI gates" "Time(s)" "Result" "Abs regs";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s %8d %9d %8.1f  %-6s %8d%s@." r.property
          r.coi_regs r.coi_gates r.seconds r.result r.abstract_regs
          (match r.trace_cycles with
          | Some c -> Printf.sprintf " (%d-cycle trace)" c
          | None -> "");
        match r.baseline with
        | Some (verdict, secs) ->
          Format.fprintf ppf "%-12s   [COI-MC baseline: %s after %.1fs]@." ""
            verdict secs
        | None -> ())
      rows
end

let table2_problems ~small =
  let iu =
    if small then Rfn_designs.Picojava_iu.(make ~params:small ())
    else Rfn_designs.Picojava_iu.make ()
  in
  let usb =
    if small then Rfn_designs.Usb.(make ~params:small ())
    else Rfn_designs.Usb.make ()
  in
  List.map
    (fun (name, set) -> (iu.Rfn_designs.Picojava_iu.circuit, name, set))
    iu.coverage_sets
  @ List.map
      (fun (name, set) -> (usb.Rfn_designs.Usb.circuit, name, set))
      usb.coverage_sets

module Table2 = struct
  type row = {
    set : string;
    coi_regs : int;
    coi_gates : int;
    rfn_unreachable : int;
    rfn_abstract_regs : int;
    rfn_seconds : float;
    bfs_unreachable : int;
    bfs_seconds : float;
    rfn_failure : string option;
        (** engine failure that ended the RFN analysis early, if any *)
    bfs_failure : string option;  (** same for the BFS baseline *)
  }

  let run ?(small = false) ?(budget = 20.0) ?(bfs_k = 60) () =
    List.map
      (fun (circuit, set, coverage) ->
        let coi = Coi.compute circuit ~roots:coverage in
        let config =
          {
            Rfn.default_config with
            Rfn.max_seconds = Some budget;
            max_iterations = 1_000;
          }
        in
        let rfn = Coverage.rfn_analysis ~config circuit ~coverage in
        let bfs =
          Coverage.bfs_analysis ~k:bfs_k ~max_seconds:budget circuit ~coverage
        in
        {
          set;
          coi_regs = Coi.num_regs coi;
          coi_gates = Coi.num_gates coi;
          rfn_unreachable = rfn.Coverage.unreachable;
          rfn_abstract_regs = rfn.Coverage.abstract_regs;
          rfn_seconds = rfn.Coverage.seconds;
          bfs_unreachable = bfs.Coverage.unreachable;
          bfs_seconds = bfs.Coverage.seconds;
          rfn_failure = Option.map Rfn_failure.to_string rfn.Coverage.failure;
          bfs_failure = Option.map Rfn_failure.to_string bfs.Coverage.failure;
        })
      (table2_problems ~small)

  let print ppf rows =
    Format.fprintf ppf
      "Table 2: Unreachable-coverage-state analysis@.%-6s %8s %9s %11s %8s \
       %8s %11s %8s@."
      "Set" "COI regs" "COI gates" "RFN unrch" "Abs regs" "RFN t(s)"
      "BFS unrch" "BFS t(s)";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-6s %8d %9d %11d %8d %8.1f %11d %8.1f@." r.set
          r.coi_regs r.coi_gates r.rfn_unreachable r.rfn_abstract_regs
          r.rfn_seconds r.bfs_unreachable r.bfs_seconds;
        (* Engine failures are findings, not formatting: an analysis
           that stopped early must say so next to its numbers. *)
        Option.iter
          (fun f -> Format.fprintf ppf "       ^ rfn stopped early: %s@." f)
          r.rfn_failure;
        Option.iter
          (fun f -> Format.fprintf ppf "       ^ bfs stopped early: %s@." f)
          r.bfs_failure)
      rows
end

(* Runs that produce abstract error traces (the falsified property and
   the True ones during their refinement phases). *)
module Figure1 = struct
  type row = {
    experiment : string;
    iteration : int;
    model_inputs : int;
    cut_size : int;
    no_cut_steps : int;
    min_cut_steps : int;
  }

  let run ?(small = false) () =
    List.concat_map
      (fun (circuit, (prop : Property.t)) ->
        let _, stats = Rfn.verify circuit prop in
        List.filter_map
          (fun (p : Provenance.t) ->
            Option.map
              (fun cut_size ->
                {
                  experiment = prop.Property.name;
                  iteration = p.iter;
                  model_inputs = p.model_inputs;
                  cut_size;
                  no_cut_steps = p.no_cut_steps;
                  min_cut_steps = p.min_cut_steps;
                })
              p.cut_size)
          stats.Rfn.provenance)
      (table1_problems ~small)

  let print ppf rows =
    Format.fprintf ppf
      "Figure 1: no-cut vs min-cut cubes in the hybrid engine@.%-12s %5s \
       %12s %9s %8s %8s@."
      "Experiment" "Iter" "Model inputs" "Cut size" "No-cut" "Min-cut";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s %5d %12d %9d %8d %8d@." r.experiment
          r.iteration r.model_inputs r.cut_size r.no_cut_steps r.min_cut_steps)
      rows
end

module Guidance = struct
  type row = {
    experiment : string;
    depth : int;
    guided_found : bool;
    guided_backtracks : int;
    guided_decisions : int;
    unguided_found : bool;
    unguided_backtracks : int;
    unguided_decisions : int;
  }

  let default_budget =
    { Atpg.max_backtracks = 50_000; max_seconds = Some 30.0 }

  let run ?(small = false) ?(budget = default_budget) () =
    List.filter_map
      (fun (circuit, (prop : Property.t)) ->
        match Rfn.verify circuit prop with
        | Rfn.Falsified _, stats -> (
          match stats.Rfn.last_abstract_trace with
          | None -> None
          | Some abstract_trace ->
            let bad = prop.Property.bad in
            let depth = Trace.length abstract_trace in
            let g, gs =
              Concretize.guided ~limits:budget circuit ~bad ~abstract_trace
            in
            let u, us = Concretize.unguided ~limits:budget circuit ~bad ~depth in
            Some
              {
                experiment = prop.Property.name;
                depth = depth - 1;
                guided_found = (match g with Concretize.Found _ -> true | _ -> false);
                guided_backtracks = gs.Atpg.backtracks;
                guided_decisions = gs.Atpg.decisions;
                unguided_found = (match u with Concretize.Found _ -> true | _ -> false);
                unguided_backtracks = us.Atpg.backtracks;
                unguided_decisions = us.Atpg.decisions;
              })
        | _ -> None)
      (table1_problems ~small)

  let print ppf rows =
    Format.fprintf ppf
      "Guided vs unguided sequential ATPG on the original design@.%-12s %6s \
       %8s %11s %11s %8s %11s %11s@."
      "Experiment" "Depth" "Guided" "decisions" "backtracks" "Plain"
      "decisions" "backtracks";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s %6d %8s %11d %11d %8s %11d %11d@."
          r.experiment r.depth
          (if r.guided_found then "found" else "lost")
          r.guided_decisions r.guided_backtracks
          (if r.unguided_found then "found" else "lost")
          r.unguided_decisions r.unguided_backtracks)
      rows
end

module Subsetting = struct
  module Bdd = Rfn_bdd.Bdd
  module Varmap = Rfn_mc.Varmap
  module Symbolic = Rfn_mc.Symbolic
  module Image = Rfn_mc.Image
  module Reach = Rfn_mc.Reach

  type row = {
    experiment : string;
    ring : int;
    original_size : int;
    subset_size : int;
    density_retained : float;
  }

  (* Run the fixpoint on a refined abstract model of each falsifiable
     problem, then subset every ring to a tenth of its size and report
     what survives — the quantitative form of the paper's "too drastic
     to produce any useful results". *)
  let run ?(small = false) () =
    List.concat_map
      (fun (circuit, (prop : Property.t)) ->
        match Rfn.verify circuit prop with
        | Rfn.Proved, _ -> []
        | (Rfn.Falsified _ | Rfn.Aborted _), stats
          when stats.Rfn.last_abstract_trace = None ->
          []
        | (Rfn.Falsified _ | Rfn.Aborted _), stats ->
          (* rebuild the final abstraction's fixpoint *)
          let regs =
            (* registers of the final model: re-derive by rerunning the
               loop is wasteful; approximate with the COI-limited
               initial abstraction refined by RFN's final size — here we
               simply reuse the whole-run approach: verify already
               proves the rings exist, so recompute from the initial
               abstraction refined with every register in the last
               abstract trace *)
            match stats.Rfn.last_abstract_trace with
            | None -> []
            | Some t ->
              List.concat_map
                (fun j -> Cube.signals (Trace.state t j))
                (List.init (Trace.length t) (fun j -> j))
              |> List.sort_uniq compare
              |> List.filter (Circuit.is_reg circuit)
          in
          let abs =
            Abstraction.with_regs circuit ~roots:(Property.roots prop) ~regs
          in
          let vm = Varmap.make abs.Abstraction.view in
          let man = Varmap.man vm in
          let fn = Symbolic.functions vm in
          let img = Image.make vm in
          let init = Symbolic.initial_states vm in
          let bad_states = Reach.bad_predicate vm ~fn ~bad:prop.Property.bad in
          let res = Reach.run ~max_steps:200 img ~vm ~init ~bad_states in
          Array.to_list
            (Array.mapi
               (fun i ring ->
                 let size = Bdd.size man ring in
                 let budget = max 10 (size / 10) in
                 let sub = Bdd.subset_heavy man ~max_size:budget ring in
                 let d0 = Bdd.density man ring in
                 {
                   experiment = prop.Property.name;
                   ring = i;
                   original_size = size;
                   subset_size = Bdd.size man sub;
                   density_retained =
                     (if d0 = 0.0 then 1.0 else Bdd.density man sub /. d0);
                 })
               res.Reach.rings))
      (table1_problems ~small)

  let print ppf rows =
    Format.fprintf ppf
      "BDD subsetting as pre-image fallback (10%% size budget)@.%-12s %5s \
       %10s %10s %10s@."
      "Experiment" "Ring" "Size" "Subset" "Retained";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s %5d %10d %10d %9.1f%%@." r.experiment r.ring
          r.original_size r.subset_size
          (100.0 *. r.density_retained))
      rows
end

module Refinement = struct
  type row = {
    experiment : string;
    iteration : int;
    candidates : int;
    added : int;
  }

  let run ?(small = false) () =
    List.concat_map
      (fun (circuit, (prop : Property.t)) ->
        let _, stats = Rfn.verify circuit prop in
        List.filter_map
          (fun (p : Provenance.t) ->
            if p.candidates = 0 then None
            else
              Some
                {
                  experiment = prop.Property.name;
                  iteration = p.iter;
                  candidates = p.candidates;
                  added = List.length p.promoted;
                })
          stats.Rfn.provenance)
      (table1_problems ~small)

  let print ppf rows =
    Format.fprintf ppf
      "Greedy refinement minimization: candidates vs kept@.%-12s %5s %11s \
       %6s@."
      "Experiment" "Iter" "Candidates" "Kept";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s %5d %11d %6d@." r.experiment r.iteration
          r.candidates r.added)
      rows
end
