open Rfn_circuit
module Telemetry = Rfn_obs.Telemetry
module Packed = Rfn_sim3v.Sim3v.Packed

let c_decisions = Telemetry.counter "atpg.decisions"
let c_backtracks = Telemetry.counter "atpg.backtracks"
let c_solves = Telemetry.counter "atpg.solves"
let c_aborts = Telemetry.counter "atpg.aborts"
let c_scoap_hits = Telemetry.counter "atpg.scoap_cache_hits"
let c_scoap_misses = Telemetry.counter "atpg.scoap_cache_misses"
let c_random_sat = Telemetry.counter "atpg.random_sat"
let c_random_rounds = Telemetry.counter "atpg.random_rounds"

type answer = Sat of Trace.t | Unsat | Abort of Rfn_failure.resource
type stats = { decisions : int; backtracks : int }
type limits = { max_backtracks : int; max_seconds : float option }

let default_limits = { max_backtracks = 20_000; max_seconds = None }

(* Ternary values, stored one byte per (frame, signal) cell. *)
let v0 = '\000'
let v1 = '\001'
let vx = '\002'

let of_bool b = if b then v1 else v0

type decision = {
  cell : int;
  mutable value : bool;
  mutable tried_both : bool;
  mark : int;  (* trail height before this decision's assignment *)
}

type solver = {
  net : Vnet.t;  (* the view, compiled: every signal below is a local id *)
  k : int;
  nsig : int;
  values : Bytes.t;
  frame_base : int ref;  (* first cell of the frame [fanin_value] reads *)
  fanin_value : int -> Rfn_sim3v.Sim3v.v;
  mutable trail : int array;
  mutable trail_n : int;
  mutable decisions_stack : decision list;
  mutable objectives : (int * bool) list;  (* (cell, required value) *)
  mutable n_decisions : int;
  mutable n_backtracks : int;
  limits : limits;
  started : float;
  free_init : bool;
  cc0 : int array;  (* SCOAP-style 0-controllability per signal *)
  cc1 : int array;
}

(* Controllability depends only on the view's shape, so it lives with
   the compiled view: BMC deepening and repeated concretisation
   queries on one view reuse it, and it goes when the view does. *)
let controllability net =
  let scoap = net.Vnet.scoap in
  Telemetry.incr (if Lazy.is_val scoap then c_scoap_hits else c_scoap_misses);
  Lazy.force scoap

let cell_of sol f s = (f * sol.nsig) + s
let frame_of sol cell = cell / sol.nsig
let sig_of sol cell = cell mod sol.nsig
let get sol f s = Bytes.get sol.values (cell_of sol f s)

let is_free_cell sol f s =
  match sol.net.Vnet.node.(s) with
  | Vnet.Free -> true
  | Vnet.Reg init when f = 0 -> sol.free_init || init = `Free
  | _ -> false

let to_ternary c =
  if c = v0 then Rfn_sim3v.Sim3v.V0
  else if c = v1 then Rfn_sim3v.Sim3v.V1
  else Rfn_sim3v.Sim3v.VX

(* 3-valued evaluation of a derived (non-free) cell from the current
   values of its fanin cells. *)
let eval_cell sol f s =
  let net = sol.net in
  match net.Vnet.node.(s) with
  | Vnet.Const b -> of_bool b
  | Vnet.Gate kind -> (
    sol.frame_base := f * sol.nsig;
    match
      Gate.eval3_slice kind sol.fanin_value net.Vnet.fanins
        ~pos:net.Vnet.fanin_start.(s) ~len:(Vnet.arity net s)
    with
    | Rfn_sim3v.Sim3v.V0 -> v0
    | Rfn_sim3v.Sim3v.V1 -> v1
    | Rfn_sim3v.Sim3v.VX -> vx)
  | Vnet.Reg init ->
    if f > 0 then get sol (f - 1) (Vnet.fanin net s 0)
    else if sol.free_init then vx
    else ( match init with `Zero -> v0 | `One -> v1 | `Free -> vx)
  | Vnet.Free -> assert false (* free cells are never derived *)

let push_trail sol cell =
  if sol.trail_n >= Array.length sol.trail then begin
    let bigger = Array.make (2 * Array.length sol.trail) 0 in
    Array.blit sol.trail 0 bigger 0 sol.trail_n;
    sol.trail <- bigger
  end;
  sol.trail.(sol.trail_n) <- cell;
  sol.trail_n <- sol.trail_n + 1

let set_cell sol cell v =
  Bytes.set sol.values cell v;
  push_trail sol cell

(* Event-driven forward propagation: re-evaluate the readers of every
   newly concrete cell. Values move X -> concrete only, so evaluation
   order cannot change the fixpoint. *)
let propagate sol cell =
  let net = sol.net in
  let stack = ref [ cell ] in
  let rec go () =
    match !stack with
    | [] -> ()
    | cell :: rest ->
      stack := rest;
      let f = frame_of sol cell and s = sig_of sol cell in
      for i = net.Vnet.fanout_start.(s) to net.Vnet.fanout_start.(s + 1) - 1 do
        let reader = net.Vnet.fanouts.(i) in
        match net.Vnet.node.(reader) with
        | Vnet.Gate _ ->
          let rc = cell_of sol f reader in
          if Bytes.get sol.values rc = vx then begin
            let v = eval_cell sol f reader in
            if v <> vx then begin
              set_cell sol rc v;
              stack := rc :: !stack
            end
          end
        | Vnet.Reg _ when f + 1 < sol.k ->
          let rc = cell_of sol (f + 1) reader in
          if Bytes.get sol.values rc = vx then begin
            set_cell sol rc (Bytes.get sol.values cell);
            stack := rc :: !stack
          end
        | _ -> ()
      done;
      go ()
  in
  go ()

(* Objective scan: first still-unknown objective, or a conflict. *)
type obj_status = All_sat | Pending of int * bool | Conflict

let check_objectives sol =
  let rec scan pending = function
    | [] -> (
      match pending with Some (c, v) -> Pending (c, v) | None -> All_sat)
    | (cell, v) :: rest ->
      let cur = Bytes.get sol.values cell in
      if cur = vx then
        scan (if pending = None then Some (cell, v) else pending) rest
      else if cur = of_bool v then scan pending rest
      else Conflict
  in
  scan None sol.objectives

(* Objective backtracing: follow an X-path from an unjustified
   requirement down to an unassigned free variable, choosing fanins by
   smallest combinational depth. *)
let rec backtrace sol f s v =
  if is_free_cell sol f s then (f, s, v)
  else
    let net = sol.net in
    match net.Vnet.node.(s) with
    | Vnet.Reg _ ->
      (* f = 0 with a concrete init would be a concrete cell, caught by
         the objective scan before backtracing. *)
      assert (f > 0);
      backtrace sol (f - 1) (Vnet.fanin net s 0) v
    | Vnet.Const _ | Vnet.Free -> assert false
    | Vnet.Gate kind -> (
      let fanin i = Vnet.fanin net s i in
      let value i = get sol f (fanin i) in
      let pick_x desired =
        (* X-valued fanin that is cheapest to drive to the desired
           value, by the SCOAP controllability estimate. *)
        let cost fi = if desired then sol.cc1.(fi) else sol.cc0.(fi) in
        let best = ref (-1) in
        for i = 0 to Vnet.arity net s - 1 do
          if value i = vx then
            match !best with
            | -1 -> best := i
            | b -> if cost (fanin i) < cost (fanin b) then best := i
        done;
        assert (!best >= 0);
        backtrace sol f (fanin !best) desired
      in
      match kind with
      | Gate.Not -> backtrace sol f (fanin 0) (not v)
      | Gate.Buf -> backtrace sol f (fanin 0) v
      | Gate.And -> pick_x v
      | Gate.Nand -> pick_x (not v)
      | Gate.Or -> pick_x v
      | Gate.Nor -> pick_x (not v)
      | Gate.Xor | Gate.Xnor ->
        (* Aim the first X fanin assuming the remaining X fanins end up
           0; later backtraces correct course as values concretize. *)
        let target = if kind = Gate.Xor then v else not v in
        let parity = ref false in
        for i = 0 to Vnet.arity net s - 1 do
          if value i = v1 then parity := not !parity
        done;
        pick_x (target <> !parity)
      | Gate.Mux ->
        let sel = value 0 and d0 = value 1 and d1 = value 2 in
        if sel = v0 then backtrace sol f (fanin 1) v
        else if sel = v1 then backtrace sol f (fanin 2) v
        else if d0 = of_bool v then backtrace sol f (fanin 0) false
        else if d1 = of_bool v then backtrace sol f (fanin 0) true
        else if d0 = vx then backtrace sol f (fanin 0) false
        else backtrace sol f (fanin 0) true)

let undo_to sol mark =
  while sol.trail_n > mark do
    sol.trail_n <- sol.trail_n - 1;
    Bytes.set sol.values sol.trail.(sol.trail_n) vx
  done

(* A trace from per-frame local values: [read f s] is the value of
   local [s] at frame [f]. Cubes speak of parent ids. *)
let trace_of sol read =
  let net = sol.net in
  let cube f locals =
    Cube.of_list
      (Array.to_list locals
      |> List.filter_map (fun s ->
             match read f s with
             | Rfn_sim3v.Sim3v.V0 -> Some (net.Vnet.parent.(s), false)
             | Rfn_sim3v.Sim3v.V1 -> Some (net.Vnet.parent.(s), true)
             | Rfn_sim3v.Sim3v.VX -> None))
  in
  Trace.make
    ~states:(Array.init sol.k (fun f -> cube f net.Vnet.regs))
    ~inputs:(Array.init sol.k (fun f -> cube f net.Vnet.free_inputs))

let extract_trace sol = trace_of sol (fun f s -> to_ternary (get sol f s))

(* Random-pattern phase: before the branch-and-backtrace search, throw
   [Packed.lanes] random concrete patterns per round at the unrolled
   frames with one word-wide simulation pass. Pinned free cells are
   splatted to their pinned value, every other free cell gets an
   independent random bit per lane; a lane satisfying every objective
   yields a Sat trace with zero decisions. The phase can only conclude
   Sat — Unsat/Abort always come from the complete search. *)
let random_rounds = 4

let random_patterns sol =
  let net = sol.net in
  (* Deterministic xorshift so solves stay reproducible. *)
  let seed = ref 0x2545f4914f6cdd1d in
  let rand_word () =
    let x = !seed in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    seed := x;
    x
  in
  let splat_cell f s =
    match Bytes.get sol.values (cell_of sol f s) with
    | cv when cv = v0 -> Some (Packed.splat Rfn_sim3v.Sim3v.V0)
    | cv when cv = v1 -> Some (Packed.splat Rfn_sim3v.Sim3v.V1)
    | _ -> None
  in
  (* Each round overwrites the planes of the round before. *)
  let planes = ref [||] in
  let run_round () =
    let init s =
      match splat_cell 0 s with
      | Some w -> w
      | None ->
        if is_free_cell sol 0 s then { Packed.ones = rand_word (); unks = 0 }
        else
          Packed.splat
            (match net.Vnet.node.(s) with
            | Vnet.Reg `Zero -> Rfn_sim3v.Sim3v.V0
            | Vnet.Reg `One -> Rfn_sim3v.Sim3v.V1
            | _ -> Rfn_sim3v.Sim3v.VX)
    in
    let state = ref init in
    let vecs =
      Array.init sol.k (fun f ->
          let free s =
            match splat_cell f s with
            | Some w -> w
            | None -> { Packed.ones = rand_word (); unks = 0 }
          in
          let into =
            if f < Array.length !planes then Some !planes.(f) else None
          in
          let vec = Packed.eval_net ?into net ~free ~state:!state in
          state := (fun s -> Packed.read vec (Vnet.fanin net s 0));
          vec)
    in
    planes := vecs;
    let mask = ref (-1) in
    List.iter
      (fun (cell, v) ->
        if !mask <> 0 then begin
          let f = frame_of sol cell and s = sig_of sol cell in
          let ones = vecs.(f).Packed.vones.(s)
          and unks = vecs.(f).Packed.vunks.(s) in
          let sat = if v then ones else lnot (ones lor unks) in
          mask := !mask land sat
        end)
      sol.objectives;
    if !mask = 0 then None
    else begin
      let rec lsb i m = if m land 1 = 1 then i else lsb (i + 1) (m lsr 1) in
      let lane = lsb 0 !mask in
      Some (trace_of sol (fun f s -> Packed.read_lane vecs.(f) s ~lane))
    end
  in
  let rec go round =
    if round >= random_rounds then None
    else begin
      Telemetry.incr c_random_rounds;
      match run_round () with
      | Some trace ->
        Telemetry.incr c_random_sat;
        Some trace
      | None -> go (round + 1)
    end
  in
  go 0

exception Stop of answer

let time_exceeded sol =
  match sol.limits.max_seconds with
  | None -> false
  | Some budget -> Telemetry.now () -. sol.started > budget

(* Chronological backtracking: flip the deepest unflipped decision,
   discarding fully-explored ones. *)
let backtrack sol =
  let rec pop () =
    match sol.decisions_stack with
    | [] -> raise (Stop Unsat)
    | d :: rest ->
      undo_to sol d.mark;
      if d.tried_both then begin
        sol.decisions_stack <- rest;
        pop ()
      end
      else begin
        d.tried_both <- true;
        d.value <- not d.value;
        sol.n_backtracks <- sol.n_backtracks + 1;
        if sol.n_backtracks > sol.limits.max_backtracks then
          raise (Stop (Abort Rfn_failure.Backtracks));
        if time_exceeded sol then raise (Stop (Abort Rfn_failure.Time));
        set_cell sol d.cell (of_bool d.value);
        propagate sol d.cell
      end
  in
  pop ()

let search sol =
  try
    let rec loop () =
      match check_objectives sol with
      | Conflict ->
        backtrack sol;
        loop ()
      | All_sat -> Sat (extract_trace sol)
      | Pending (cell, v) ->
        let f = frame_of sol cell and s = sig_of sol cell in
        let fd, sd, vd = backtrace sol f s v in
        let dcell = cell_of sol fd sd in
        assert (Bytes.get sol.values dcell = vx);
        let d =
          { cell = dcell; value = vd; tried_both = false; mark = sol.trail_n }
        in
        sol.decisions_stack <- d :: sol.decisions_stack;
        sol.n_decisions <- sol.n_decisions + 1;
        if time_exceeded sol then raise (Stop (Abort Rfn_failure.Time));
        set_cell sol dcell (of_bool vd);
        propagate sol dcell;
        loop ()
    in
    loop ()
  with Stop a -> a

let solve ?(free_init = false) ?(random_phase = true)
    ?(limits = default_limits) view ~frames ~pins () =
  if frames < 1 then invalid_arg "Atpg.solve: frames < 1";
  let net = Sview.net view in
  let nsig = net.Vnet.size in
  let cc0, cc1 = controllability net in
  let values = Bytes.make (frames * nsig) vx and frame_base = ref 0 in
  let sol =
    {
      net;
      k = frames;
      nsig;
      values;
      frame_base;
      fanin_value = (fun s -> to_ternary (Bytes.get values (!frame_base + s)));
      trail = Array.make 1024 0;
      trail_n = 0;
      decisions_stack = [];
      objectives = [];
      n_decisions = 0;
      n_backtracks = 0;
      limits;
      started = Telemetry.now ();
      free_init;
      cc0;
      cc1;
    }
  in
  (* Pins: free cells become root assignments, derived cells become
     objectives. *)
  let contradiction = ref false in
  List.iter
    (fun (f, s, v) ->
      if f < 0 || f >= frames then invalid_arg "Atpg.solve: frame out of range";
      let s = Vnet.local net s in
      if s < 0 then invalid_arg "Atpg.solve: pinned signal outside the view";
      let cell = cell_of sol f s in
      if is_free_cell sol f s then begin
        match Bytes.get sol.values cell with
        | cv when cv = vx -> set_cell sol cell (of_bool v)
        | cv -> if cv <> of_bool v then contradiction := true
      end
      else sol.objectives <- (cell, v) :: sol.objectives)
    pins;
  (* Justify objectives frame-ascending: earlier cycles first. *)
  sol.objectives <-
    List.sort (fun (c1, _) (c2, _) -> compare c1 c2) sol.objectives;
  let answer =
    if !contradiction then Unsat
    else begin
      (* Implication of constants, initial values and root assignments:
         one pass per frame in topological order (frame-ascending
         handles the cross-frame register reads). Each cell is evaluated
         once, with its fanins final, so this is the fixpoint that
         event-driven propagation from the roots reaches. *)
      for f = 0 to frames - 1 do
        for s = 0 to nsig - 1 do
          if not (is_free_cell sol f s) then
            Bytes.set sol.values (cell_of sol f s) (eval_cell sol f s)
        done
      done;
      (* Try cheap word-parallel random patterns before committing to
         the backtracking search; only still-open objectives warrant
         it, and only Sat can come out of it. *)
      match check_objectives sol with
      | Pending _ when random_phase -> (
        match random_patterns sol with
        | Some trace -> Sat trace
        | None -> search sol)
      | Pending _ | All_sat | Conflict -> search sol
    end
  in
  Telemetry.incr c_solves;
  Telemetry.add c_decisions sol.n_decisions;
  Telemetry.add c_backtracks sol.n_backtracks;
  (match answer with Abort _ -> Telemetry.incr c_aborts | _ -> ());
  (answer, { decisions = sol.n_decisions; backtracks = sol.n_backtracks })
