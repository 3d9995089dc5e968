open Rfn_circuit
open Rfn_obs

type v = Gate.ternary = V0 | V1 | VX

let of_bool b = if b then V1 else V0

let conflicts a b =
  match (a, b) with V0, V1 | V1, V0 -> true | _, _ -> false

let pp ppf = function
  | V0 -> Format.pp_print_char ppf '0'
  | V1 -> Format.pp_print_char ppf '1'
  | VX -> Format.pp_print_char ppf 'X'

let eval view ~free ~state =
  let net = Sview.net view in
  let values = Array.make net.Vnet.size VX in
  let get l = values.(l) in
  for l = 0 to net.Vnet.size - 1 do
    values.(l) <-
      (match net.Vnet.node.(l) with
      | Vnet.Free -> free net.Vnet.parent.(l)
      | Vnet.Const b -> of_bool b
      | Vnet.Reg _ -> state net.Vnet.parent.(l)
      | Vnet.Gate kind ->
        Gate.eval3_slice kind get net.Vnet.fanins ~pos:net.Vnet.fanin_start.(l)
          ~len:(Vnet.arity net l))
  done;
  values

(* The next-state value of parent register [r] read from one frame's
   local values: X when its next-state input lies outside the view. *)
let next_of view read ~unknown r =
  match Circuit.node view.Sview.circuit r with
  | Circuit.Reg { next; _ } -> (
    match Vnet.local (Sview.net view) next with -1 -> unknown | l -> read l)
  | _ -> invalid_arg "Sim3v.step: not a register"

let step view ~free ~state =
  let values = eval view ~free ~state in
  (values, next_of view (Array.get values) ~unknown:VX)

let run view ~init ~inputs ~cycles =
  let state = ref init in
  let frames = Array.make (cycles + 1) [||] in
  for cycle = 0 to cycles do
    let values, next =
      step view ~free:(fun s -> inputs ~cycle s) ~state:!state
    in
    frames.(cycle) <- values;
    state := next
  done;
  frames

(* ------------------------------------------------------------------ *)
(* Bit-parallel packed ternary simulation                              *)
(* ------------------------------------------------------------------ *)

module Packed = struct
  (* One ternary value per bit lane, across two planes:
     [ones] has a lane's bit set iff the value is 1, [unks] iff it is
     X, and a lane that is clear in both planes is 0. The invariant
     [ones land unks = 0] holds for every word this module builds.

     Lanes fill the native OCaml int — [Sys.int_size] bits (63 on
     64-bit hosts), so every bit of the word is a usable lane and no
     masking is needed: [-1] is "all lanes". A view's evaluation
     ([eval] below) keeps the two planes as two flat int arrays and
     computes each gate straight into them; the boxed [w] record is
     only the currency of the per-signal callbacks and [read]. *)

  let lanes = Sys.int_size

  type w = { ones : int; unks : int }

  let zero = { ones = 0; unks = 0 }
  let splat = function V0 -> zero | V1 -> { ones = -1; unks = 0 } | VX -> { ones = 0; unks = -1 }

  let get w lane =
    if w.ones land (1 lsl lane) <> 0 then V1
    else if w.unks land (1 lsl lane) <> 0 then VX
    else V0

  let set w lane v =
    let bit = 1 lsl lane in
    match v with
    | V0 -> { ones = w.ones land lnot bit; unks = w.unks land lnot bit }
    | V1 -> { ones = w.ones lor bit; unks = w.unks land lnot bit }
    | VX -> { ones = w.ones land lnot bit; unks = w.unks lor bit }

  let of_fun f =
    let w = ref zero in
    for lane = 0 to lanes - 1 do
      w := set !w lane (f lane)
    done;
    !w

  (* Plane of lanes holding 0. *)
  let zeros_plane ~ones ~unks = lnot (ones lor unks)

  (* Per-signal planes for a whole view evaluation, indexed by the
     view's local ids. *)
  type vec = { vones : int array; vunks : int array }

  let read vec l = { ones = vec.vones.(l); unks = vec.vunks.(l) }
  let read_lane vec l ~lane = get (read vec l) lane

  let c_packed_words = Telemetry.counter "sim.packed_words"

  (* Gate [l] of [net], computed from its fanins' planes into its own,
     lane-wise {!Gate.eval3}: an AND lane is 1 where every fanin is 1
     and 0 where some fanin is 0, an OR lane the dual, an XOR lane X
     where some fanin is X and the parity elsewhere; X fills the rest,
     and the inverting kinds swap the 1 and 0 planes. No allocation. *)
  let store { vones; vunks } l ~invert ones unks =
    vones.(l) <- (if invert then zeros_plane ~ones ~unks else ones);
    vunks.(l) <- unks

  let eval_gate_into net ({ vones; vunks } as vec) l kind =
    let fanins = net.Vnet.fanins in
    let pos = net.Vnet.fanin_start.(l)
    and stop = net.Vnet.fanin_start.(l + 1) in
    match kind with
    | Gate.Buf | Gate.Not ->
      let a = fanins.(pos) in
      store vec l ~invert:(kind = Gate.Not) vones.(a) vunks.(a)
    | Gate.And | Gate.Nand ->
      let ones = ref (-1) and zero = ref 0 in
      for i = pos to stop - 1 do
        let a = fanins.(i) in
        ones := !ones land vones.(a);
        zero := !zero lor zeros_plane ~ones:vones.(a) ~unks:vunks.(a)
      done;
      store vec l ~invert:(kind = Gate.Nand) !ones (lnot (!ones lor !zero))
    | Gate.Or | Gate.Nor ->
      let ones = ref 0 and zero = ref (-1) in
      for i = pos to stop - 1 do
        let a = fanins.(i) in
        ones := !ones lor vones.(a);
        zero := !zero land zeros_plane ~ones:vones.(a) ~unks:vunks.(a)
      done;
      store vec l ~invert:(kind = Gate.Nor) !ones (lnot (!ones lor !zero))
    | Gate.Xor | Gate.Xnor ->
      let ones = ref 0 and unks = ref 0 in
      for i = pos to stop - 1 do
        let a = fanins.(i) in
        ones := !ones lxor vones.(a);
        unks := !unks lor vunks.(a)
      done;
      store vec l ~invert:(kind = Gate.Xnor) (!ones land lnot !unks) !unks
    | Gate.Mux ->
      (* 1 (0) where the selected data input is 1 (0), or where [sel]
         is X and both data inputs agree on 1 (0) *)
      let sel = fanins.(pos) and d0 = fanins.(pos + 1)
      and d1 = fanins.(pos + 2) in
      let s0 = zeros_plane ~ones:vones.(sel) ~unks:vunks.(sel) in
      let d0z = zeros_plane ~ones:vones.(d0) ~unks:vunks.(d0) in
      let d1z = zeros_plane ~ones:vones.(d1) ~unks:vunks.(d1) in
      let ones =
        (s0 land vones.(d0)) lor (vones.(sel) land vones.(d1))
        lor (vunks.(sel) land vones.(d0) land vones.(d1))
      in
      let zero =
        (s0 land d0z) lor (vones.(sel) land d1z)
        lor (vunks.(sel) land d0z land d1z)
      in
      store vec l ~invert:false ones (lnot (ones lor zero))

  let eval_net ?into net ~free ~state =
    let n = net.Vnet.size in
    let vec =
      match into with
      | Some vec -> vec
      | None -> { vones = Array.make n 0; vunks = Array.make n (-1) }
    in
    let store l (w : w) =
      vec.vones.(l) <- w.ones;
      vec.vunks.(l) <- w.unks
    in
    for l = 0 to n - 1 do
      match net.Vnet.node.(l) with
      | Vnet.Free -> store l (free l)
      | Vnet.Reg _ -> store l (state l)
      | Vnet.Const b -> store l (splat (of_bool b))
      | Vnet.Gate kind -> eval_gate_into net vec l kind
    done;
    Telemetry.add c_packed_words n;
    vec

  let eval view ~free ~state =
    let net = Sview.net view in
    let parent = net.Vnet.parent in
    eval_net net
      ~free:(fun l -> free parent.(l))
      ~state:(fun l -> state parent.(l))

  let step view ~free ~state =
    let vec = eval view ~free ~state in
    (vec, next_of view (read vec) ~unknown:(splat VX))

  let run view ~init ~inputs ~cycles =
    let state = ref init in
    let frames =
      Array.make (cycles + 1) { vones = [||]; vunks = [||] }
    in
    for cycle = 0 to cycles do
      let vec, next =
        step view ~free:(fun s -> inputs ~cycle s) ~state:!state
      in
      frames.(cycle) <- vec;
      state := next
    done;
    frames
end

let replay c trace =
  let view = Sview.whole c ~roots:[] in
  let k = Trace.length trace in
  let cube_value cube s ~default =
    match Cube.value cube s with Some b -> of_bool b | None -> default
  in
  (* Deterministic single-pattern replay, run through the packed
     evaluator (lane 0; all lanes carry the same splatted value). The
     scalar evaluator above is kept byte-for-byte as the differential
     oracle for this path — see test_sim3v. *)
  let init r =
    Packed.splat
      (match Circuit.node c r with
      | Circuit.Reg { init = `Zero; _ } -> V0
      | Circuit.Reg { init = `One; _ } -> V1
      | Circuit.Reg { init = `Free; _ } ->
        cube_value (Trace.state trace 0) r ~default:V0
      | _ -> VX)
  in
  let inputs ~cycle s =
    Packed.splat
      (if cycle < k then cube_value (Trace.input trace cycle) s ~default:V0
       else V0)
  in
  Packed.run view ~init ~inputs ~cycles:(k - 1)

let replay_concrete c trace ~bad =
  Array.exists
    (fun vec -> Packed.read_lane vec bad ~lane:0 = V1)
    (replay c trace)
