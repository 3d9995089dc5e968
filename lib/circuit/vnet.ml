type node = Free | Const of bool | Reg of Circuit.init | Gate of Gate.kind

type t = {
  circuit : Circuit.t;
  size : int;
  parent : int array;
  node : node array;
  fanin_start : int array;
  fanins : int array;
  fanout_start : int array;
  fanouts : int array;
  regs : int array;
  free_inputs : int array;
  roots : int list;
  scoap : (int array * int array) Lazy.t;
}

(* Local ids ascend with parent ids, so a binary search finds the
   local id of a parent signal; a whole view is the identity map. *)
let find circuit parent s =
  let size = Array.length parent in
  if size = Circuit.num_signals circuit then
    if s >= 0 && s < size then s else -1
  else
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) lsr 1 in
        let p = parent.(mid) in
        if p = s then mid else if p < s then go (mid + 1) hi else go lo mid
    in
    go 0 size

let local t s = find t.circuit t.parent s

let arity t l = t.fanin_start.(l + 1) - t.fanin_start.(l)
let fanin t l i = t.fanins.(t.fanin_start.(l) + i)

(* SCOAP-style controllability: the estimated effort to drive a signal
   to 0 / to 1, used by ATPG to steer objective backtracing toward the
   easiest justification. Registers and free inputs cost one unit
   (registers a little more, since their value must come through an
   earlier frame); gates combine their fanins' costs per the usual
   rules. *)
let controllability ~node ~fanin_start ~fanins =
  let n = Array.length node in
  let inf = max_int / 4 in
  let cap x = min x inf in
  let cc0 = Array.make n 1 and cc1 = Array.make n 1 in
  for l = 0 to n - 1 do
    let pos = fanin_start.(l) and stop = fanin_start.(l + 1) in
    let fold f init =
      let acc = ref init in
      for i = pos to stop - 1 do
        acc := f !acc fanins.(i)
      done;
      !acc
    in
    let sum cc = cap (fold (fun a f -> a + cc.(f)) 0) in
    let least cc = fold (fun a f -> min a cc.(f)) inf in
    let set c0 c1 =
      cc0.(l) <- c0;
      cc1.(l) <- c1
    in
    match node.(l) with
    | Free -> ()
    | Const b -> if b then set inf 0 else set 0 inf
    | Reg _ -> (* controlled through the previous frame *) set 3 3
    | Gate kind -> (
      match kind with
      | Gate.Buf ->
        let a = fanins.(pos) in
        set (cap (1 + cc0.(a))) (cap (1 + cc1.(a)))
      | Gate.Not ->
        let a = fanins.(pos) in
        set (cap (1 + cc1.(a))) (cap (1 + cc0.(a)))
      | Gate.And -> set (cap (1 + least cc0)) (cap (1 + sum cc1))
      | Gate.Nand -> set (cap (1 + sum cc1)) (cap (1 + least cc0))
      | Gate.Or -> set (cap (1 + sum cc0)) (cap (1 + least cc1))
      | Gate.Nor -> set (cap (1 + least cc1)) (cap (1 + sum cc0))
      | Gate.Xor | Gate.Xnor ->
        (* approximate: all-zeros vs flip-one-fanin *)
        let base = sum cc0 in
        let flip = fold (fun a f -> min a (base - cc0.(f) + cc1.(f))) inf in
        let even = cap (1 + base) and odd = cap (1 + cap flip) in
        if kind = Gate.Xor then set even odd else set odd even
      | Gate.Mux ->
        let sel = fanins.(pos) and d0 = fanins.(pos + 1)
        and d1 = fanins.(pos + 2) in
        set
          (cap (1 + min (cc0.(sel) + cc0.(d0)) (cc1.(sel) + cc0.(d1))))
          (cap (1 + min (cc0.(sel) + cc1.(d0)) (cc1.(sel) + cc1.(d1)))))
  done;
  (cc0, cc1)

(* One shared [Gate] value per kind, so the node array holds no block
   per gate. *)
let gate_nodes =
  List.map
    (fun k -> (k, Gate k))
    Gate.[ And; Or; Nand; Nor; Xor; Xnor; Not; Buf; Mux ]

(* Prefix sums turn per-node counts into CSR row starts. *)
let starts counts =
  let n = Array.length counts in
  let start = Array.make (n + 1) 0 in
  for l = 0 to n - 1 do
    start.(l + 1) <- start.(l) + counts.(l)
  done;
  start

let compile circuit ~inside ~free ~roots =
  let size = Bitset.cardinal inside in
  let parent = Array.make size 0 in
  let next = ref 0 in
  Bitset.iter
    (fun s ->
      parent.(!next) <- s;
      incr next)
    inside;
  let local_of s =
    let l = find circuit parent s in
    if l < 0 then invalid_arg "Vnet.compile: signal escapes the view";
    l
  in
  let node =
    Array.map
      (fun s ->
        if Bitset.mem free s then Free
        else
          match Circuit.node circuit s with
          | Circuit.Const b -> Const b
          | Circuit.Reg { init; _ } -> Reg init
          | Circuit.Gate (kind, _) ->
            Option.value (List.assoc_opt kind gate_nodes) ~default:(Gate kind)
          | Circuit.Input -> invalid_arg "Vnet.compile: primary input not free")
      parent
  in
  let parent_fanins l =
    match (node.(l), Circuit.node circuit parent.(l)) with
    | Reg _, Circuit.Reg { next; _ } -> [| next |]
    | Gate _, Circuit.Gate (_, fanins) -> fanins
    | _ -> [||]
  in
  let fanin_start =
    starts (Array.init size (fun l -> Array.length (parent_fanins l)))
  in
  let fanins = Array.make fanin_start.(size) 0 in
  let fanout_count = Array.make size 0 in
  for l = 0 to size - 1 do
    Array.iteri
      (fun i s ->
        let f = local_of s in
        fanins.(fanin_start.(l) + i) <- f;
        fanout_count.(f) <- fanout_count.(f) + 1)
      (parent_fanins l)
  done;
  (* Readers are visited in ascending local (= parent) order, so each
     fanout list keeps the parent's order. *)
  let fanout_start = starts fanout_count in
  let fanouts = Array.make fanout_start.(size) 0 in
  let fill = Array.sub fanout_start 0 size in
  for l = 0 to size - 1 do
    for i = fanin_start.(l) to fanin_start.(l + 1) - 1 do
      let f = fanins.(i) in
      fanouts.(fill.(f)) <- l;
      fill.(f) <- fill.(f) + 1
    done
  done;
  let select p =
    let acc = ref [] in
    for l = size - 1 downto 0 do
      if p node.(l) then acc := l :: !acc
    done;
    Array.of_list !acc
  in
  {
    circuit;
    size;
    parent;
    node;
    fanin_start;
    fanins;
    fanout_start;
    fanouts;
    regs = select (function Reg _ -> true | _ -> false);
    free_inputs = select (function Free -> true | _ -> false);
    roots = List.map local_of roots;
    scoap = lazy (controllability ~node ~fanin_start ~fanins);
  }

let with_roots t roots =
  {
    t with
    roots =
      List.map
        (fun s ->
          let l = local t s in
          if l < 0 then invalid_arg "Vnet.with_roots: root outside the view";
          l)
        roots;
  }
