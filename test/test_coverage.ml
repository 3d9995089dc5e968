(* Unreachable-coverage-state analysis vs exact enumeration. *)

open Rfn_circuit
module Coverage = Rfn_core.Coverage
module Rfn = Rfn_core.Rfn
module Supervisor = Rfn_core.Supervisor
module B = Circuit.Builder

(* A valuation's coverage-state code: bit i is the i-th signal. *)
let state_code ~coverage value =
  List.fold_left (fun code s -> (2 * code) + Bool.to_int (value s)) 0
    (List.rev coverage)

(* Exact coverage-state reachability by explicit search. *)
let exact_reachable_codes circuit coverage =
  let reachable = Helpers.explicit_reachable circuit in
  let regs = circuit.Circuit.registers in
  let idx x =
    let rec go i = if regs.(i) = x then i else go (i + 1) in
    go 0
  in
  let codes = Hashtbl.create 32 in
  Hashtbl.iter
    (fun code () ->
      let value r = code land (1 lsl idx r) <> 0 in
      Hashtbl.replace codes (state_code ~coverage value) ())
    reachable;
  codes

(* One-hot ring of 3 registers: of 8 coverage states only 3 reachable.
   A fourth register, [off], is stuck at 0. *)
let ring_design () =
  let b = B.create () in
  let advance = B.input b "advance" in
  let r0 = B.reg b ~init:`One "r0" in
  let r1 = B.reg b "r1" in
  let r2 = B.reg b "r2" in
  B.connect b r0 (B.mux b advance r0 r2);
  B.connect b r1 (B.mux b advance r1 r0);
  B.connect b r2 (B.mux b advance r2 r1);
  let off = B.reg b "off" in
  B.connect b off off;
  B.output b "r0" r0;
  (B.finalize b, [ r0; r1; r2 ])

let config budget =
  {
    Rfn.default_config with
    Rfn.max_seconds = Some budget;
    max_iterations = 200;
    node_limit = 500_000;
    mc_max_steps = 500;
  }

let test_ring_exact () =
  let c, coverage = ring_design () in
  let report = Coverage.rfn_analysis ~config:(config 20.0) c ~coverage in
  Alcotest.(check int) "total" 8 report.Coverage.total;
  Alcotest.(check int) "five unreachable" 5 report.Coverage.unreachable;
  Alcotest.(check int) "nothing unknown" 0 report.Coverage.unknown;
  (* the status array matches exact reachability *)
  let exact = exact_reachable_codes c coverage in
  Array.iteri
    (fun code status ->
      match status with
      | Coverage.Unreachable ->
        Alcotest.(check bool)
          (Printf.sprintf "code %d truly unreachable" code)
          false (Hashtbl.mem exact code)
      | Coverage.Reachable ->
        Alcotest.(check bool)
          (Printf.sprintf "code %d truly reachable" code)
          true (Hashtbl.mem exact code)
      | Coverage.Unknown -> ())
    report.Coverage.status

(* A fault forced once at each supervised site leaves the ring's answer
   exact. The concretization fault turns a trace that concretizes into
   a give-up, which sends it to refinement; the ring's model has no
   pseudo-input to add, so only the guided re-check of that trace can
   mark it. The ring refines only after such a give-up, so the
   refinement fault rides along with one. *)
let test_ring_under_faults () =
  let c, coverage = ring_design () in
  List.iter
    (fun spec ->
      let hook =
        match Supervisor.inject_of_spec spec with
        | Some hook -> hook
        | None -> Alcotest.fail ("no hook for " ^ spec)
      in
      let faults = ref 0 in
      let inject site =
        let fault = hook site in
        if fault <> None then incr faults;
        fault
      in
      let report =
        Coverage.rfn_analysis
          ~config:{ (config 20.0) with Rfn.inject = Some inject }
          c ~coverage
      in
      Alcotest.(check int)
        (spec ^ ": every fault injected")
        (List.length (String.split_on_char ',' spec))
        !faults;
      Alcotest.(check int)
        (spec ^ ": five unreachable")
        5 report.Coverage.unreachable;
      Alcotest.(check int)
        (spec ^ ": nothing unknown")
        0 report.Coverage.unknown)
    [ "abstract-mc"; "hybrid"; "concretize"; "concretize,refine" ]

let test_bfs_ring () =
  let c, coverage = ring_design () in
  let report = Coverage.bfs_analysis ~k:3 c ~coverage in
  Alcotest.(check int) "bfs finds the same five" 5 report.Coverage.unreachable

(* The report's counts partition [total] and agree with [status]. *)
let partitioned (r : Coverage.report) =
  let with_status v =
    Array.fold_left (fun k s -> if s = v then k + 1 else k) 0 r.Coverage.status
  in
  Array.length r.Coverage.status = r.Coverage.total
  && r.Coverage.unknown + r.Coverage.reachable + r.Coverage.unreachable
     = r.Coverage.total
  && with_status Coverage.Unknown = r.Coverage.unknown
  && with_status Coverage.Reachable = r.Coverage.reachable
  && with_status Coverage.Unreachable = r.Coverage.unreachable

let coverage_sound_random =
  (* soundness on random circuits: states marked Unreachable must not
     be reachable explicitly, Reachable ones must be; the counts
     partition the states *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"coverage verdicts sound (random)"
       (Helpers.arbitrary_circuit ~nins:2 ~nregs:4 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let coverage = Array.to_list c.Circuit.registers in
         let coverage = List.filteri (fun i _ -> i < 3) coverage in
         let report = Coverage.rfn_analysis ~config:(config 10.0) c ~coverage in
         let exact = exact_reachable_codes c coverage in
         let ok = ref true in
         Array.iteri
           (fun code status ->
             match status with
             | Coverage.Unreachable ->
               if Hashtbl.mem exact code then ok := false
             | Coverage.Reachable ->
               if not (Hashtbl.mem exact code) then ok := false
             | Coverage.Unknown -> ())
           report.Coverage.status;
         !ok && partitioned report))

let bfs_sound_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"bfs verdicts sound (random)"
       (Helpers.arbitrary_circuit ~nins:2 ~nregs:4 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let coverage = Array.to_list c.Circuit.registers in
         let coverage = List.filteri (fun i _ -> i < 3) coverage in
         let report = Coverage.bfs_analysis ~k:2 c ~coverage in
         let exact = exact_reachable_codes c coverage in
         let ok = ref true in
         Array.iteri
           (fun code status ->
             if status = Coverage.Unreachable && Hashtbl.mem exact code then
               ok := false)
           report.Coverage.status;
         !ok && partitioned report))

let test_rfn_at_least_bfs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"rfn finds at least as many as bfs"
       (Helpers.arbitrary_circuit ~nins:2 ~nregs:4 ~ngates:10)
       (fun rc ->
         let c = rc.Helpers.circuit in
         let coverage = Array.to_list c.Circuit.registers in
         let coverage = List.filteri (fun i _ -> i < 3) coverage in
         let rfn = Coverage.rfn_analysis ~config:(config 10.0) c ~coverage in
         let bfs = Coverage.bfs_analysis ~k:2 c ~coverage in
         rfn.Coverage.unreachable >= bfs.Coverage.unreachable))

(* [status] is indexed by code, bit i = the i-th coverage signal: over
   [r0; off] the ring reaches codes 0 and 1 (r0 either way, off = 0);
   the reversed encoding would read them as 0 and 2. *)
let test_status_encoding () =
  let c, coverage = ring_design () in
  let coverage = [ List.hd coverage; Circuit.find c "off" ] in
  let report = Coverage.rfn_analysis ~config:(config 20.0) c ~coverage in
  Alcotest.(check (list string))
    "status by code"
    [ "reachable"; "reachable"; "unreachable"; "unreachable" ]
    (Array.to_list
       (Array.map
          (function
            | Coverage.Reachable -> "reachable"
            | Coverage.Unreachable -> "unreachable"
            | Coverage.Unknown -> "unknown")
          report.Coverage.status))

let test_validation () =
  let c, coverage = ring_design () in
  (try
     ignore (Coverage.rfn_analysis c ~coverage:[]);
     Alcotest.fail "empty coverage rejected"
   with Invalid_argument _ -> ());
  let inp = Circuit.find c "advance" in
  try
    ignore (Coverage.rfn_analysis c ~coverage:(inp :: coverage));
    Alcotest.fail "non-register coverage rejected"
  with Invalid_argument _ -> ()

(* A run stopped by its iteration cap reports the iterations that ran:
   the cap itself, not the number of the iteration it did not start.
   USB1 keeps states unknown for longer than these caps. *)
let test_iteration_cap () =
  let usb = Rfn_designs.Usb.make () in
  let coverage =
    Option.value ~default:[]
      (List.assoc_opt "USB1" usb.Rfn_designs.Usb.coverage_sets)
  in
  List.iter
    (fun cap ->
      let config =
        { (config 60.0) with Rfn.max_seconds = None; max_iterations = cap }
      in
      let r =
        Coverage.rfn_analysis ~config usb.Rfn_designs.Usb.circuit ~coverage
      in
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: states left unknown" cap)
        true (r.Coverage.unknown > 0);
      Alcotest.(check int)
        (Printf.sprintf "cap %d: iterations" cap)
        cap r.Coverage.iterations)
    [ 0; 1; 2 ]

let tests =
  [
    Alcotest.test_case "one-hot ring, exact" `Quick test_ring_exact;
    Alcotest.test_case "one-hot ring under faults" `Quick
      test_ring_under_faults;
    Alcotest.test_case "bfs on the ring" `Quick test_bfs_ring;
    coverage_sound_random;
    bfs_sound_random;
    test_rfn_at_least_bfs;
    Alcotest.test_case "status index encoding" `Quick test_status_encoding;
    Alcotest.test_case "argument validation" `Quick test_validation;
    Alcotest.test_case "a capped run reports the cap" `Quick
      test_iteration_cap;
  ]

let () = Alcotest.run "coverage" [ ("coverage", tests) ]
