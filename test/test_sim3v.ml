open Rfn_circuit
module Sim3v = Rfn_sim3v.Sim3v
module B = Circuit.Builder

let tv = Alcotest.testable Sim3v.pp ( = )

let test_gate_semantics () =
  let v b = Sim3v.of_bool b in
  let check name kind args expected =
    Alcotest.check tv name expected
      (Gate.eval3 kind
         (fun i -> args.(i))
         (Array.init (Array.length args) (fun i -> i)))
  in
  check "and with a 0 is 0" Gate.And [| Sim3v.VX; v false |] (v false);
  check "and with all 1 is 1" Gate.And [| v true; v true |] (v true);
  check "and with X is X" Gate.And [| v true; Sim3v.VX |] Sim3v.VX;
  check "or with a 1 is 1" Gate.Or [| Sim3v.VX; v true |] (v true);
  check "nor with a 1 is 0" Gate.Nor [| Sim3v.VX; v true |] (v false);
  check "nand with a 0 is 1" Gate.Nand [| v false; Sim3v.VX |] (v true);
  check "xor with X is X" Gate.Xor [| v true; Sim3v.VX |] Sim3v.VX;
  check "xor concrete" Gate.Xor [| v true; v true; v true |] (v true);
  check "xnor concrete" Gate.Xnor [| v true; v false |] (v false);
  check "not X" Gate.Not [| Sim3v.VX |] Sim3v.VX;
  check "buf" Gate.Buf [| v true |] (v true);
  check "mux sel 0" Gate.Mux [| v false; v true; Sim3v.VX |] (v true);
  check "mux sel 1" Gate.Mux [| v true; Sim3v.VX; v false |] (v false);
  check "mux sel X same data" Gate.Mux [| Sim3v.VX; v true; v true |] (v true);
  check "mux sel X diff data" Gate.Mux [| Sim3v.VX; v true; v false |] Sim3v.VX

let test_conflicts () =
  Alcotest.(check bool) "0 vs 1" true (Sim3v.conflicts Sim3v.V0 Sim3v.V1);
  Alcotest.(check bool) "X vs 1" false (Sim3v.conflicts Sim3v.VX Sim3v.V1);
  Alcotest.(check bool) "X vs X" false (Sim3v.conflicts Sim3v.VX Sim3v.VX);
  Alcotest.(check bool) "0 vs 0" false (Sim3v.conflicts Sim3v.V0 Sim3v.V0)

(* Concrete agreement: with fully concrete inputs/state, ternary
   simulation equals Boolean evaluation on every signal. *)
let concrete_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"concrete 3v sim = boolean eval"
       (QCheck.pair
          (Helpers.arbitrary_circuit ~nins:3 ~nregs:3 ~ngates:12)
          (QCheck.pair (QCheck.int_bound 7) (QCheck.int_bound 7)))
       (fun (rc, (iv, sv)) ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let idx arr x =
           let rec go i = if arr.(i) = x then i else go (i + 1) in
           go 0
         in
         let input s = iv land (1 lsl idx c.Circuit.inputs s) <> 0 in
         let state r = sv land (1 lsl idx c.Circuit.registers r) <> 0 in
         let bools = Circuit.eval c ~input ~state in
         let ternary =
           Sim3v.eval view
             ~free:(fun s -> Sim3v.of_bool (input s))
             ~state:(fun r -> Sim3v.of_bool (state r))
         in
         Array.for_all
           (fun s -> ternary.(s) = Sim3v.of_bool bools.(s))
           (Array.init (Circuit.num_signals c) (fun i -> i))))

(* X-monotonicity: making some inputs X can only move outputs toward X,
   never flip a concrete value. *)
let x_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"3v sim is X-monotone"
       (QCheck.triple
          (Helpers.arbitrary_circuit ~nins:4 ~nregs:3 ~ngates:12)
          (QCheck.int_bound 15)
          (QCheck.int_bound 15))
       (fun (rc, iv, mask) ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let idx arr x =
           let rec go i = if arr.(i) = x then i else go (i + 1) in
           go 0
         in
         let concrete s =
           Sim3v.of_bool (iv land (1 lsl idx c.Circuit.inputs s) <> 0)
         in
         let blurred s =
           if mask land (1 lsl idx c.Circuit.inputs s) <> 0 then Sim3v.VX
           else concrete s
         in
         let state _ = Sim3v.V0 in
         let full = Sim3v.eval view ~free:concrete ~state in
         let part = Sim3v.eval view ~free:blurred ~state in
         Array.for_all
           (fun s -> part.(s) = Sim3v.VX || part.(s) = full.(s))
           (Array.init (Circuit.num_signals c) (fun i -> i))))

let test_run_counts_cycles () =
  let b = B.create () in
  let en = B.input b "en" in
  let q = Rtl.counter b ~name:"q" ~width:3 ~enable:en () in
  B.output b "q0" q.(0);
  let c = B.finalize b in
  let view = Sview.whole c ~roots:[ q.(0) ] in
  let frames =
    Sim3v.run view
      ~init:(fun _ -> Sim3v.V0)
      ~inputs:(fun ~cycle:_ _ -> Sim3v.V1)
      ~cycles:3
  in
  Alcotest.(check int) "four frames" 4 (Array.length frames);
  (* q after 3 enabled cycles: frame 3 sees q = 3 -> bit0 = 1, bit1 = 1 *)
  Alcotest.check tv "bit0 at cycle 3" Sim3v.V1 frames.(3).(q.(0));
  Alcotest.check tv "bit1 at cycle 3" Sim3v.V1 frames.(3).(q.(1));
  Alcotest.check tv "bit2 at cycle 3" Sim3v.V0 frames.(3).(q.(2))

let test_replay_concrete () =
  (* counter_design: 3-bit counter reaching 7 with enable *)
  let c = Helpers.counter_design ~width:3 ~limit:2 in
  let bad = Circuit.output c "at_limit" in
  let en = Circuit.find c "enable" in
  let on = Cube.of_list [ (en, true) ] in
  let good_trace =
    Trace.make
      ~states:[| Cube.empty; Cube.empty; Cube.empty |]
      ~inputs:[| on; on |]
  in
  Alcotest.(check bool) "two enables reach limit 2" true
    (Sim3v.replay_concrete c good_trace ~bad);
  let off = Cube.of_list [ (en, false) ] in
  let bad_trace =
    Trace.make
      ~states:[| Cube.empty; Cube.empty; Cube.empty |]
      ~inputs:[| off; off |]
  in
  Alcotest.(check bool) "no enable, no violation" false
    (Sim3v.replay_concrete c bad_trace ~bad)

(* ---- packed (bit-parallel) simulation ------------------------------- *)

module Packed = Sim3v.Packed
module Telemetry = Rfn_obs.Telemetry

let tern h =
  match h mod 3 with 0 -> Sim3v.V0 | 1 -> Sim3v.V1 | _ -> Sim3v.VX

let test_packed_words () =
  (* get/set/splat/of_fun agree and preserve the plane invariant *)
  let w = Packed.of_fun (fun lane -> tern lane) in
  Alcotest.(check int) "planes disjoint" 0 (w.Packed.ones land w.Packed.unks);
  for lane = 0 to Packed.lanes - 1 do
    Alcotest.check tv
      (Printf.sprintf "of_fun lane %d" lane)
      (tern lane) (Packed.get w lane)
  done;
  List.iter
    (fun v ->
      let s = Packed.splat v in
      Alcotest.check tv "splat lane 0" v (Packed.get s 0);
      Alcotest.check tv "splat last lane" v (Packed.get s (Packed.lanes - 1));
      let w' = Packed.set w 7 v in
      Alcotest.check tv "set lane 7" v (Packed.get w' 7);
      Alcotest.check tv "set leaves lane 8" (tern 8) (Packed.get w' 8))
    [ Sim3v.V0; Sim3v.V1; Sim3v.VX ]

(* Lane-wise differential against the scalar evaluator on random
   circuits, every lane carrying an independent random ternary
   assignment. The scalar evaluator is the oracle. *)
let packed_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"packed sim = scalar sim on every lane"
       (QCheck.pair
          (Helpers.arbitrary_circuit ~nins:4 ~nregs:3 ~ngates:14)
          QCheck.small_int)
       (fun (rc, seed) ->
         let c = rc.Helpers.circuit in
         let view = Sview.whole c ~roots:[ rc.Helpers.out ] in
         let free_at lane s = tern (Hashtbl.hash (seed, lane, 'f', s)) in
         let state_at lane r = tern (Hashtbl.hash (seed, lane, 's', r)) in
         let vec =
           Packed.eval view
             ~free:(fun s -> Packed.of_fun (fun lane -> free_at lane s))
             ~state:(fun r -> Packed.of_fun (fun lane -> state_at lane r))
         in
         let ok = ref true in
         for lane = 0 to Packed.lanes - 1 do
           let scalar =
             Sim3v.eval view ~free:(free_at lane) ~state:(state_at lane)
           in
           Array.iteri
             (fun s v ->
               if Packed.read_lane vec s ~lane <> v then ok := false)
             scalar
         done;
         !ok))

(* Multi-cycle differential over the design zoo: packed [run] against
   one scalar [run] per lane, all signals, all cycles. *)
let test_packed_zoo_differential () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let designs =
    [
      ("counter3", Helpers.counter_design ~width:3 ~limit:7);
      ("deep_bug3", Helpers.deep_bug_design ~width:3);
      ("fifo_small", fifo.Rfn_designs.Fifo.circuit);
    ]
  in
  let c_words = Telemetry.counter "sim.packed_words" in
  let before = Telemetry.counter_value c_words in
  List.iter
    (fun (name, c) ->
      let view = Sview.whole c ~roots:(List.map snd c.Circuit.outputs) in
      let cycles = 6 in
      let init_at lane r = tern (Hashtbl.hash (name, lane, 'r', r)) in
      let input_at cycle lane s = tern (Hashtbl.hash (name, cycle, lane, s)) in
      let pvecs =
        Packed.run view
          ~init:(fun r -> Packed.of_fun (fun lane -> init_at lane r))
          ~inputs:(fun ~cycle s ->
            Packed.of_fun (fun lane -> input_at cycle lane s))
          ~cycles
      in
      for lane = 0 to Packed.lanes - 1 do
        let svecs =
          Sim3v.run view ~init:(init_at lane)
            ~inputs:(fun ~cycle s -> input_at cycle lane s)
            ~cycles
        in
        Array.iteri
          (fun cyc frame ->
            Array.iteri
              (fun s v ->
                if Packed.read_lane pvecs.(cyc) s ~lane <> v then
                  Alcotest.fail
                    (Printf.sprintf
                       "%s: signal %s diverges at cycle %d lane %d" name
                       (Circuit.name c s) cyc lane))
              frame)
          svecs
      done)
    designs;
  Alcotest.(check bool)
    "packed evaluation is counted in sim.packed_words" true
    (Telemetry.counter_value c_words > before)

(* The bit-parallel evaluator must keep paying for itself: the same
   pseudo-random pattern set on fifo_small, simulated one pattern at a
   time by [Sim3v.run] and [Packed.lanes] patterns per word by
   [Packed.run], must agree on lane 0 and run at least 8x faster packed.
   The measured speedup is about 25x; each side takes its best of three
   timings so a noisy host does not fail the floor. *)
let test_packed_speedup () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let c = fifo.Rfn_designs.Fifo.circuit in
  let view = Sview.whole c ~roots:(List.map snd c.Circuit.outputs) in
  let runs = 4 and cycles = 16 in
  let patterns = runs * Packed.lanes in
  let init_at p r = tern (Hashtbl.hash (p, 'r', r)) in
  let input_at p cycle s = tern (Hashtbl.hash (p, cycle, s)) in
  let best_of_3 f =
    let timed () =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (Unix.gettimeofday () -. t0, r)
    in
    let t1, r = timed () in
    let t2, _ = timed () in
    let t3, _ = timed () in
    (Float.min t1 (Float.min t2 t3), r)
  in
  let t_packed, pvecs =
    best_of_3 (fun () ->
        Array.init runs (fun run ->
            let p lane = (run * Packed.lanes) + lane in
            Packed.run view
              ~init:(fun r -> Packed.of_fun (fun lane -> init_at (p lane) r))
              ~inputs:(fun ~cycle s ->
                Packed.of_fun (fun lane -> input_at (p lane) cycle s))
              ~cycles))
  in
  let t_scalar, lane0 =
    best_of_3 (fun () ->
        let frames p =
          Sim3v.run view ~init:(init_at p)
            ~inputs:(fun ~cycle s -> input_at p cycle s)
            ~cycles
        in
        let lane0 = frames 0 in
        for p = 1 to patterns - 1 do
          ignore (frames p)
        done;
        lane0)
  in
  Array.iteri
    (fun cyc frame ->
      Array.iteri
        (fun s v ->
          if Packed.read_lane pvecs.(0).(cyc) s ~lane:0 <> v then
            Alcotest.failf "signal %s diverges at cycle %d" (Circuit.name c s)
              cyc)
        frame)
    lane0;
  let speedup = t_scalar /. Float.max t_packed 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "packed %.1fx faster than scalar (floor 8x)" speedup)
    true (speedup >= 8.0)

let tests =
  [
    Alcotest.test_case "ternary gate semantics" `Quick test_gate_semantics;
    Alcotest.test_case "conflict relation" `Quick test_conflicts;
    concrete_agreement;
    x_monotone;
    Alcotest.test_case "sequential run" `Quick test_run_counts_cycles;
    Alcotest.test_case "concrete trace replay" `Quick test_replay_concrete;
    Alcotest.test_case "packed word operations" `Quick test_packed_words;
    packed_differential;
    Alcotest.test_case "packed zoo differential" `Quick
      test_packed_zoo_differential;
    Alcotest.test_case "packed speedup floor" `Slow test_packed_speedup;
  ]

let () = Alcotest.run "sim3v" [ ("sim3v", tests) ]
