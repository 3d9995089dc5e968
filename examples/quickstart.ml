(* Quickstart: build a small gate-level design, state a safety property
   as a watchdog, and verify it with RFN.

   Run with:  dune exec examples/quickstart.exe *)

open Rfn_circuit
module B = Circuit.Builder
module Rfn = Rfn_core.Rfn

let () =
  (* A two-client round-robin arbiter. The property: the two grant
     registers are never high simultaneously. *)
  let b = B.create () in
  let req0 = B.input b "req0" and req1 = B.input b "req1" in
  let turn = B.reg b "turn" in
  let gnt0 = B.and2 b req0 (B.or2 b (B.not_ b req1) (B.not_ b turn)) in
  let gnt1 = B.and2 b req1 (B.not_ b gnt0) in
  B.connect b turn (B.mux b (B.or2 b gnt0 gnt1) turn gnt1);
  let g0 = B.reg_of b "g0" gnt0 in
  let g1 = B.reg_of b "g1" gnt1 in
  (* the watchdog: asserts exactly when the property is violated *)
  B.output b "both_grants" (B.and2 b g0 g1);
  let circuit = B.finalize b in

  Format.printf "Design: %a@." Circuit.pp_stats circuit;

  let prop = Property.of_output circuit "both_grants" in
  (match Rfn.verify circuit prop with
  | Rfn.Proved, stats ->
    Format.printf
      "PROVED: grants are mutually exclusive.@.  %d iteration(s), final \
       abstract model: %d of %d registers, %.3fs@."
      (List.length stats.Rfn.provenance)
      stats.Rfn.final_abstract_regs stats.Rfn.coi_regs stats.Rfn.seconds
  | Rfn.Falsified trace, _ ->
    Format.printf "FALSIFIED:@.%a@."
      (Trace.pp ~names:(Circuit.name circuit))
      trace
  | Rfn.Aborted why, _ ->
    Format.printf "ABORTED: %s@." (Rfn_failure.to_string why));

  (* Now a false property: the arbiter *does* grant client 0 at some
     point, so "g0 never rises" is violated — RFN produces a concrete
     error trace, validated by 3-valued replay. *)
  let b2 = B.create () in
  let req = B.input b2 "req" in
  let granted = B.reg_of b2 "granted" req in
  B.output b2 "granted_once" granted;
  let c2 = B.finalize b2 in
  let never_granted = Property.of_output c2 "granted_once" in
  match Rfn.verify c2 never_granted with
  | Rfn.Falsified trace, _ ->
    Format.printf "@.FALSIFIED (as expected), %d-cycle error trace:@.%a@."
      (Trace.length trace - 1)
      (Trace.pp ~names:(Circuit.name c2))
      trace;
    assert (Rfn_sim3v.Sim3v.replay_concrete c2 trace ~bad:never_granted.Property.bad)
  | Rfn.Proved, _ -> Format.printf "unexpectedly proved@."
  | Rfn.Aborted why, _ ->
    Format.printf "ABORTED: %s@." (Rfn_failure.to_string why)
