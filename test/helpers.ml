(* Shared test utilities: tiny hand-built designs, random circuit
   generation for property tests, and brute-force reference engines. *)

open Rfn_circuit
module B = Circuit.Builder

(* ------------------------------------------------------------------ *)
(* Reference engines                                                   *)
(* ------------------------------------------------------------------ *)

(* Explicit-state forward reachability by brute force over all input
   valuations; only usable for a handful of registers and inputs. *)
let explicit_reachable circuit =
  let regs = circuit.Circuit.registers in
  let inputs = circuit.Circuit.inputs in
  let nregs = Array.length regs and nins = Array.length inputs in
  assert (nregs <= 16 && nins <= 12);
  let state_bits values =
    let code = ref 0 in
    Array.iteri (fun i r -> if values r then code := !code lor (1 lsl i)) regs;
    !code
  in
  let of_code code r =
    let rec idx i = if regs.(i) = r then i else idx (i + 1) in
    code land (1 lsl idx 0) <> 0
  in
  let initial_codes =
    (* Free-init registers: enumerate both polarities. *)
    let rec expand i acc =
      if i >= nregs then acc
      else
        let vals =
          match Circuit.node circuit regs.(i) with
          | Circuit.Reg { init = `Zero; _ } -> [ false ]
          | Circuit.Reg { init = `One; _ } -> [ true ]
          | Circuit.Reg { init = `Free; _ } -> [ false; true ]
          | _ -> assert false
        in
        expand (i + 1)
          (List.concat_map
             (fun code ->
               List.map
                 (fun v -> if v then code lor (1 lsl i) else code)
                 vals)
             acc)
    in
    expand 0 [ 0 ]
  in
  let seen = Hashtbl.create 997 in
  let q = Queue.create () in
  List.iter
    (fun code ->
      if not (Hashtbl.mem seen code) then begin
        Hashtbl.add seen code ();
        Queue.add code q
      end)
    initial_codes;
  while not (Queue.is_empty q) do
    let code = Queue.pop q in
    for iv = 0 to (1 lsl nins) - 1 do
      let input s =
        let rec idx i = if inputs.(i) = s then i else idx (i + 1) in
        iv land (1 lsl idx 0) <> 0
      in
      let _, next = Circuit.step circuit ~input ~state:(of_code code) in
      let code' = state_bits next in
      if not (Hashtbl.mem seen code') then begin
        Hashtbl.add seen code' ();
        Queue.add code' q
      end
    done
  done;
  seen

(* Is some reachable state/input combination driving [bad] to 1? *)
let explicit_violates circuit ~bad =
  let reachable = explicit_reachable circuit in
  let inputs = circuit.Circuit.inputs in
  let regs = circuit.Circuit.registers in
  let nins = Array.length inputs in
  let hit = ref false in
  Hashtbl.iter
    (fun code () ->
      if not !hit then
        for iv = 0 to (1 lsl nins) - 1 do
          let input s =
            let rec idx i = if inputs.(i) = s then i else idx (i + 1) in
            iv land (1 lsl idx 0) <> 0
          in
          let state r =
            let rec idx i = if regs.(i) = r then i else idx (i + 1) in
            code land (1 lsl idx 0) <> 0
          in
          let values = Circuit.eval circuit ~input ~state in
          if values.(bad) then hit := true
        done)
    reachable;
  !hit

(* ------------------------------------------------------------------ *)
(* Hand-built designs                                                  *)
(* ------------------------------------------------------------------ *)

(* A w-bit counter with enable; outputs "at_limit" asserted when the
   counter equals [limit]. *)
let counter_design ~width ~limit =
  let b = B.create () in
  let enable = B.input b "enable" in
  let count = Rtl.counter b ~name:"cnt" ~width ~enable () in
  let at_limit = Rtl.eq_const b count limit in
  B.output b "at_limit" at_limit;
  B.finalize b

(* Mutual exclusion: a two-client round-robin arbiter; bad asserts when
   both grants are high. The property is True by construction. *)
let arbiter_design () =
  let b = B.create () in
  let req0 = B.input b "req0" and req1 = B.input b "req1" in
  let turn = B.reg b "turn" in
  let gnt0 = B.and2 b req0 (B.or2 b (B.not_ b req1) (B.not_ b turn)) in
  let gnt1 = B.and2 b req1 (B.not_ b gnt0) in
  B.connect b turn (B.mux b (B.or2 b gnt0 gnt1) turn gnt1);
  let g0 = B.reg_of b "g0_reg" gnt0 in
  let g1 = B.reg_of b "g1_reg" gnt1 in
  let bad = B.and2 b g0 g1 in
  B.output b "bad" bad;
  B.output b "g0" g0;
  B.output b "g1" g1;
  B.finalize b

(* A design with a deep bug: bad asserts when an input-controlled
   counter reaches its maximum and a handshake register chain is
   primed. The shortest violation takes 2^width + O(1) cycles... with
   enable forced, exactly reachable. *)
let deep_bug_design ~width =
  let b = B.create () in
  let go = B.input b "go" in
  let cnt = Rtl.counter b ~name:"c" ~width ~enable:go () in
  let full = Rtl.eq_const b cnt ((1 lsl width) - 1) in
  let armed = B.reg b "armed" in
  B.connect b armed (B.or2 b armed (B.and2 b full go)) ;
  let bad = B.reg_of b "bad_reg" (B.and2 b armed full) in
  B.output b "bad" bad;
  B.finalize b

(* No registers at all: "bad" is the AND of two inputs. *)
let and_design () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" in
  B.output b "bad" (B.and2 b x y);
  B.finalize b

(* The design zoo the engine differentials share: a proved arbiter, a
   shallow and a deep falsification, and the small FIFO's two proofs. *)
let zoo () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let fc = fifo.Rfn_designs.Fifo.circuit in
  let of_output name c out = (name, c, Property.of_output c out) in
  [
    of_output "arbiter/bad" (arbiter_design ()) "bad";
    of_output "counter3/at_limit" (counter_design ~width:3 ~limit:7) "at_limit";
    of_output "deep_bug3/bad" (deep_bug_design ~width:3) "bad";
    ("fifo_small/psh_hf", fc, fifo.Rfn_designs.Fifo.psh_hf);
    ("fifo_small/psh_full", fc, fifo.Rfn_designs.Fifo.psh_full);
  ]

(* ------------------------------------------------------------------ *)
(* Random circuits (for qcheck)                                        *)
(* ------------------------------------------------------------------ *)

type rand_circuit = {
  circuit : Circuit.t;
  out : int;  (* a distinguished output signal *)
}

(* A random sequential circuit with [nins] inputs, [nregs] registers
   and [ngates] random gates; every register and the output are wired
   to random existing signals. *)
let random_circuit_gen ~nins ~nregs ~ngates st =
  let b = B.create () in
  let pool = ref [] in
  let add s = pool := s :: !pool in
  for i = 0 to nins - 1 do
    add (B.input b (Printf.sprintf "i%d" i))
  done;
  let regs = ref [] in
  for i = 0 to nregs - 1 do
    let init =
      match QCheck.Gen.int_bound 2 st with
      | 0 -> `Zero
      | 1 -> `One
      | _ -> `Zero
    in
    let r = B.reg b ~init (Printf.sprintf "r%d" i) in
    regs := r :: !regs;
    add r
  done;
  let pick st =
    let l = !pool in
    List.nth l (QCheck.Gen.int_bound (List.length l - 1) st)
  in
  for _ = 1 to ngates do
    let a = pick st and c = pick st in
    let g =
      match QCheck.Gen.int_bound 6 st with
      | 0 -> B.and2 b a c
      | 1 -> B.or2 b a c
      | 2 -> B.xor2 b a c
      | 3 -> B.not_ b a
      | 4 -> B.gate b Gate.Nand [| a; c |]
      | 5 -> B.gate b Gate.Nor [| a; c |]
      | _ -> B.mux b a c (pick st)
    in
    add g
  done;
  List.iter (fun r -> B.connect b r (pick st)) !regs;
  let out = pick st in
  B.output b "out" out;
  { circuit = B.finalize b; out }

let arbitrary_circuit ~nins ~nregs ~ngates =
  QCheck.make
    (random_circuit_gen ~nins ~nregs ~ngates)
    ~print:(fun rc -> Bench_io.to_string rc.circuit)

(* Evaluate a combinational signal under integer-coded input/state. *)
let eval_with circuit ~ivec ~svec s =
  let inputs = circuit.Circuit.inputs and regs = circuit.Circuit.registers in
  let input x =
    let rec idx i = if inputs.(i) = x then i else idx (i + 1) in
    ivec land (1 lsl idx 0) <> 0
  in
  let state x =
    let rec idx i = if regs.(i) = x then i else idx (i + 1) in
    svec land (1 lsl idx 0) <> 0
  in
  (Circuit.eval circuit ~input ~state).(s)

(* One iteration record with every field set, for checkpoint tests. *)
let sample_provenance =
  {
    Rfn_obs.Provenance.iter = 1;
    regs_before = 2;
    regs_after = 4;
    model_inputs = 6;
    fixpoint_steps = 5;
    trace_depth = Some 3;
    cut_size = None;
    no_cut_steps = 0;
    min_cut_steps = 0;
    cubes = 8;
    guidance = 1;
    engine = "atpg";
    concretize = "not-found";
    promoted = [ "r1"; "r2" ];
    candidates = 4;
    retries = 0;
    fallbacks = 0;
    injected = 0;
    bdd_nodes = 100;
    bdd_peak = 200;
    sat_learned = 0;
    backtracks = 3;
    seconds = 0.5;
    outcome = "refined";
  }
