(* Verifying the FIFO controller from the paper's Table 1: three flag-
   consistency properties on a design whose 135-register COI dwarfs the
   handful of registers any proof needs. Also demonstrates the engine
   internals a paper reader might want to watch: per-iteration model
   sizes and the baseline comparison against plain COI model checking.

   Run with:  dune exec examples/fifo_verification.exe *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Provenance = Rfn_obs.Provenance

let () =
  let fifo = Rfn_designs.Fifo.make () in
  let circuit = fifo.Rfn_designs.Fifo.circuit in
  Format.printf "FIFO controller: %a@.@." Circuit.pp_stats circuit;
  List.iter
    (fun (prop : Property.t) ->
      let coi = Coi.compute circuit ~roots:(Property.roots prop) in
      Format.printf "--- %s (COI: %d registers, %d gates)@." prop.Property.name
        (Coi.num_regs coi) (Coi.num_gates coi);
      (match Rfn.verify circuit prop with
      | Rfn.Proved, stats ->
        Format.printf "  RFN: True in %.2fs@." stats.Rfn.seconds;
        List.iter
          (fun (p : Provenance.t) ->
            Format.printf
              "    iteration %d: %d registers, %d free inputs, fixpoint %d \
               steps%s@."
              p.iter p.regs_before p.model_inputs p.fixpoint_steps
              (match p.trace_depth with
              | Some l ->
                Printf.sprintf
                  ", abstract trace of %d cycles (%d candidates, %d added)"
                  (l - 1) p.candidates (List.length p.promoted)
              | None -> ""))
          stats.Rfn.provenance
      | Rfn.Falsified _, _ -> Format.printf "  RFN: False (unexpected!)@."
      | Rfn.Aborted why, _ ->
        Format.printf "  RFN: aborted (%s)@." (Rfn_failure.to_string why));
      (* the baseline the paper compares against *)
      let baseline, secs =
        Rfn.check_coi_model_checking ~max_seconds:30.0 circuit prop
      in
      Format.printf "  plain COI model checking: %s after %.2fs@.@."
        (match baseline with
        | `Proved -> "True"
        | `Reached k -> Printf.sprintf "False at depth %d" k
        | `Aborted r -> "fails — " ^ Rfn_failure.resource_to_string r)
        secs)
    [ fifo.psh_hf; fifo.psh_af; fifo.psh_full ]
