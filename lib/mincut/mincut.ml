open Rfn_circuit

type result = { mc : Sview.t; cut : int list; free_cut_gates : int }

(* Effectively infinite capacity: larger than any possible cut. *)
let inf = max_int / 4

(* Gates of the view on register-to-register paths: transitive fanin of
   the registers' next-state inputs intersected with transitive fanout
   of the register outputs, all within the view. Local ids. *)
let free_cut_design (net : Vnet.t) =
  let n = net.size in
  let tfi = Bitset.create n and tfo = Bitset.create n in
  (* Backward from next-state inputs, through non-free gates. *)
  let stack =
    ref (Array.to_list net.regs |> List.map (fun r -> Vnet.fanin net r 0))
  in
  let rec back () =
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      (match net.node.(s) with
      | Vnet.Gate _ when not (Bitset.mem tfi s) ->
        Bitset.add tfi s;
        for i = 0 to Vnet.arity net s - 1 do
          stack := Vnet.fanin net s i :: !stack
        done
      | _ -> ());
      back ()
  in
  back ();
  (* Forward from register outputs, through non-free gates of the view. *)
  let fstack = ref (Array.to_list net.regs) in
  let seen = Bitset.create n in
  let rec fwd () =
    match !fstack with
    | [] -> ()
    | s :: rest ->
      fstack := rest;
      if not (Bitset.mem seen s) then begin
        Bitset.add seen s;
        for i = net.fanout_start.(s) to net.fanout_start.(s + 1) - 1 do
          let reader = net.fanouts.(i) in
          if not (Bitset.mem seen reader) then begin
            (match net.node.(reader) with
            | Vnet.Gate _ -> Bitset.add tfo reader
            | _ -> ());
            fstack := reader :: !fstack
          end
        done
      end;
      fwd ()
  in
  fwd ();
  let fc = Bitset.create n in
  Bitset.iter (fun s -> if Bitset.mem tfo s then Bitset.add fc s) tfi;
  fc

let compute view =
  let net = Sview.net view in
  let n = net.Vnet.size in
  let fc = free_cut_design net in
  (* Node-split flow graph: local signal s -> vertices 2s (in) and 2s+1
     (out); source = 2n, sink = 2n+1. Free inputs and plain gates get
     unit through-capacity (they may be cut); registers and free-cut
     gates are uncuttable. *)
  let g = Flow.create ((2 * n) + 2) in
  let source = 2 * n and sink = (2 * n) + 1 in
  let vin s = 2 * s and vout s = (2 * s) + 1 in
  let protected s =
    (match net.Vnet.node.(s) with Vnet.Reg _ -> true | _ -> false)
    || Bitset.mem fc s
  in
  for s = 0 to n - 1 do
    let capacity = if protected s then inf else 1 in
    Flow.add_edge g (vin s) (vout s) capacity;
    (match net.Vnet.node.(s) with
    | Vnet.Free -> Flow.add_edge g source (vin s) inf
    | _ -> ());
    if protected s then Flow.add_edge g (vout s) sink inf;
    for i = 0 to Vnet.arity net s - 1 do
      Flow.add_edge g (vout (Vnet.fanin net s i)) (vin s) inf
    done
  done;
  ignore (Flow.max_flow g ~source ~sink);
  let reach = Flow.min_cut_reachable g ~source in
  let in_cut s = reach.(vin s) && not reach.(vout s) in
  (* Min-cut design: registers plus their next-state cones truncated at
     the cut signals. *)
  let inside = Bitset.create n and free = Bitset.create n in
  let stack = ref [] in
  Array.iter
    (fun r ->
      Bitset.add inside r;
      stack := Vnet.fanin net r 0 :: !stack)
    net.Vnet.regs;
  let rec walk () =
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      if not (Bitset.mem inside s) then begin
        Bitset.add inside s;
        if in_cut s then Bitset.add free s
        else
          match net.Vnet.node.(s) with
          | Vnet.Gate _ ->
            for i = 0 to Vnet.arity net s - 1 do
              stack := Vnet.fanin net s i :: !stack
            done
          | Vnet.Const _ -> ()
          | Vnet.Reg _ -> ()
          | Vnet.Free ->
            (* A free input below no cut would be reachable from the
               source through uncut vertices: impossible, by
               max-flow/min-cut duality. *)
            assert false
      end;
      walk ()
  in
  walk ();
  (* Back to parent ids at the API edge. *)
  let c = view.Sview.circuit in
  let lift set =
    let parent = Bitset.create (Circuit.num_signals c) in
    Bitset.iter (fun s -> Bitset.add parent net.Vnet.parent.(s)) set;
    parent
  in
  let free = lift free in
  let mc = Sview.make c ~inside:(lift inside) ~free ~roots:[] in
  { mc; cut = Bitset.to_list free; free_cut_gates = Bitset.cardinal fc }
