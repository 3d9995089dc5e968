(* Hunting the planted protocol bug in the ~5,000-register processor
   module: the paper's "error_flag" experiment. RFN's abstract model
   stays tiny while the guided sequential ATPG concretizes a 30-cycle
   violation on the full design — something plain model checking and
   unguided ATPG both fail at.

   Run with:  dune exec examples/bug_hunt.exe             (full size)
              dune exec examples/bug_hunt.exe -- --small  (seconds)   *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Concretize = Rfn_core.Concretize
module Sim3v = Rfn_sim3v.Sim3v

let () =
  let small = Array.exists (( = ) "--small") Sys.argv in
  let proc =
    if small then Rfn_designs.Processor.(make ~params:small ())
    else Rfn_designs.Processor.make ()
  in
  let circuit = proc.Rfn_designs.Processor.circuit in
  let prop = proc.error_flag in
  let coi = Coi.compute circuit ~roots:(Property.roots prop) in
  Format.printf
    "Processor module: %a@.error_flag COI: %d registers, %d gates@.@."
    Circuit.pp_stats circuit (Coi.num_regs coi) (Coi.num_gates coi);
  match Rfn.verify circuit prop with
  | Rfn.Falsified trace, stats ->
    let bad = prop.Property.bad in
    Format.printf
      "DESIGN VIOLATION found in %.2fs: a %d-cycle error trace (the paper \
       reports 30 cycles).@."
      stats.Rfn.seconds
      (Trace.length trace - 1);
    Format.printf
      "Final abstract model: %d registers (of a %d-register COI), %d \
       refinement iterations.@."
      stats.Rfn.final_abstract_regs stats.Rfn.coi_regs
      (List.length stats.Rfn.provenance);
    assert (Sim3v.replay_concrete circuit trace ~bad);
    Format.printf "Trace validated by concrete replay.@.@.";
    (* the guidance ablation: how far does unguided sequential ATPG
       get at the same depth and budget? *)
    let budget = { Rfn_atpg.Atpg.max_backtracks = 20_000; max_seconds = Some 20.0 } in
    let unguided, ustats =
      Concretize.unguided ~limits:budget circuit ~bad
        ~depth:(Trace.length trace)
    in
    Format.printf "Unguided ATPG at the same depth: %s (%d decisions, %d backtracks)@."
      (match unguided with
      | Concretize.Found _ -> "found it too"
      | Concretize.Not_found_here -> "proved empty (?)"
      | Concretize.Gave_up _ -> "gave up")
      ustats.Rfn_atpg.Atpg.decisions ustats.Rfn_atpg.Atpg.backtracks;
    (* the first few cycles of the trace, restricted to the interesting
       control registers *)
    let interesting =
      List.filter_map
        (fun name ->
          match Circuit.find circuit name with
          | s -> Some s
          | exception Not_found -> None)
        [ "cnt_0"; "cnt_1"; "cnt_2"; "grant_0"; "armed"; "error_bad" ]
    in
    Format.printf "@.Control-register values along the trace:@.";
    for j = 0 to min 6 (Trace.length trace - 1) do
      let st =
        Cube.restrict (Trace.state trace j) ~keep:(fun s ->
            List.mem s interesting)
      in
      Format.printf "  cycle %2d: %a@." j
        (Cube.pp ~names:(Circuit.name circuit))
        st
    done;
    Format.printf "  ... (%d more cycles)@." (max 0 (Trace.length trace - 7))
  | Rfn.Proved, _ -> Format.printf "unexpectedly proved — the bug is planted!@."
  | Rfn.Aborted why, _ ->
    Format.printf "aborted: %s@." (Rfn_failure.to_string why)
