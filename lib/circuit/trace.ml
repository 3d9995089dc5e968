type t = { states : Cube.t array; inputs : Cube.t array }

let make ~states ~inputs =
  let k = Array.length states and ni = Array.length inputs in
  if k = 0 then invalid_arg "Trace.make: empty trace";
  if ni <> k - 1 && ni <> k then
    invalid_arg "Trace.make: need k-1 or k input cubes for k states";
  { states; inputs }

let length t = Array.length t.states
let state t i = t.states.(i)

let input t i =
  if i < Array.length t.inputs then t.inputs.(i) else Cube.empty

let pins t =
  let pins = ref [] in
  for j = 0 to length t - 1 do
    let add cube =
      List.iter (fun (s, v) -> pins := (j, s, v) :: !pins) (Cube.to_list cube)
    in
    add (state t j);
    add (input t j)
  done;
  !pins

let pp ~names ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i st ->
      Format.fprintf ppf "cycle %d: state %a" i (Cube.pp ~names) st;
      let inp = input t i in
      if not (Cube.is_empty inp) then
        Format.fprintf ppf " input %a" (Cube.pp ~names) inp;
      if i < Array.length t.states - 1 then Format.fprintf ppf "@,")
    t.states;
  Format.fprintf ppf "@]"
