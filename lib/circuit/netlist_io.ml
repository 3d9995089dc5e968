(* Extension-dispatched netlist loading/saving: `.aig` (binary AIGER),
   `.aag` (ascii AIGER), anything else `.bench`; in-memory text
   dispatches on the AIGER magic instead. *)

let is_aiger path =
  Filename.check_suffix path ".aig" || Filename.check_suffix path ".aag"

let load path =
  if is_aiger path then Aiger_io.parse_file path else Bench_io.parse_file path

let parse text =
  let magic = if String.length text >= 4 then String.sub text 0 4 else "" in
  if magic = "aag " || magic = "aig " then Aiger_io.parse text
  else Bench_io.parse text

let save ?bads path c =
  if is_aiger path then Aiger_io.write_file ?bads path c
  else begin
    let oc = open_out path in
    output_string oc (Bench_io.to_string c);
    close_out oc
  end
