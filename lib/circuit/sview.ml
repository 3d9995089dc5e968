type t = {
  circuit : Circuit.t;
  inside : Bitset.t;
  free : Bitset.t;
  regs : int array;
  free_inputs : int array;
  roots : int list;
  compiled : Vnet.t Lazy.t;
}

let net t = Lazy.force t.compiled
let mem t s = Bitset.mem t.inside s
let is_free t s = Bitset.mem t.free s

let is_state t s =
  mem t s && (not (is_free t s)) && Circuit.is_reg t.circuit s

let make circuit ~inside ~free ~roots =
  let regs = ref [] in
  Bitset.iter
    (fun s ->
      if not (Bitset.mem inside s) then
        invalid_arg "Sview.make: free signal not inside the view")
    free;
  List.iter
    (fun r ->
      if not (Bitset.mem inside r) then
        invalid_arg "Sview.make: root signal not inside the view")
    roots;
  Bitset.iter
    (fun s ->
      if not (Bitset.mem free s) then
        match Circuit.node circuit s with
        | Circuit.Const _ -> ()
        | Circuit.Input ->
          invalid_arg "Sview.make: primary input inside but not free"
        | Circuit.Reg { next; _ } ->
          if not (Bitset.mem inside next) then
            invalid_arg "Sview.make: register next-state input escapes view";
          regs := s :: !regs
        | Circuit.Gate (_, fanins) ->
          Array.iter
            (fun f ->
              if not (Bitset.mem inside f) then
                invalid_arg "Sview.make: gate fanin escapes view")
            fanins)
    inside;
  {
    circuit;
    inside;
    free;
    regs = Array.of_list (List.rev !regs);
    free_inputs = Array.of_list (Bitset.to_list free);
    roots;
    compiled = lazy (Vnet.compile circuit ~inside ~free ~roots);
  }

(* One whole view per live circuit, found by physical identity. The
   table holds its circuits weakly: an entry, compiled form included,
   goes when its circuit does. *)
module Wholes = Ephemeron.K1.Make (struct
  type t = Circuit.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let wholes : t Wholes.t = Wholes.create 7

let whole circuit ~roots =
  let base =
    match Wholes.find_opt wholes circuit with
    | Some v -> v
    | None ->
      let n = Circuit.num_signals circuit in
      let inside = Bitset.create n in
      for s = 0 to n - 1 do
        Bitset.add inside s
      done;
      let free = Bitset.create n in
      Array.iter (Bitset.add free) circuit.Circuit.inputs;
      let v = make circuit ~inside ~free ~roots:[] in
      Wholes.replace wholes circuit v;
      v
  in
  if roots = [] then base
  else begin
    List.iter
      (fun r ->
        if r < 0 || r >= Circuit.num_signals circuit then
          invalid_arg "Sview.whole: root signal out of range")
      roots;
    {
      base with
      roots;
      compiled = lazy (Vnet.with_roots (net base) roots);
    }
  end

let num_regs t = Array.length t.regs
let num_free_inputs t = Array.length t.free_inputs

let num_gates t =
  Bitset.fold
    (fun s n ->
      match Circuit.node t.circuit s with
      | Circuit.Gate _ when not (Bitset.mem t.free s) -> n + 1
      | _ -> n)
    t.inside 0

let pp_stats ppf t =
  Format.fprintf ppf "regs=%d gates=%d free_inputs=%d" (num_regs t)
    (num_gates t) (num_free_inputs t)
