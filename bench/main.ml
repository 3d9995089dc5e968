(* Paper-reproduction driver: regenerates every table and figure of the
   paper's evaluation plus the ablations (see EXPERIMENTS.md). Performance
   is measured by rfnbench/, not here.

   Usage:
     dune exec bench/main.exe                          # every target
     dune exec bench/main.exe -- table1 --baseline     # + COI-MC footnote
     dune exec bench/main.exe -- table2 --budget 1800  # the paper's budget
     dune exec bench/main.exe -- --small               # scaled-down designs

   An unknown argument or a malformed number exits 2 with a usage line. *)

module E = Rfn_experiments.Experiments

let targets =
  [ "table1"; "table2"; "figure1"; "guidance"; "subsetting"; "refine"; "all" ]

let usage =
  "usage: main.exe [" ^ String.concat "|" targets
  ^ "]... [--small] [--baseline] [--budget SECONDS] [--bfs-k N]"

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n%s\n" msg usage;
      exit 2)
    fmt

type args = {
  explicit : string list;
  small : bool;
  baseline : bool;
  budget : float;
  bfs_k : int;
}

let parse argv =
  let number flag v =
    match float_of_string_opt v with
    | Some x -> x
    | None -> usage_error "%s expects a number, got %S" flag v
  in
  let rec go a = function
    | [] -> a
    | "--small" :: rest -> go { a with small = true } rest
    | "--baseline" :: rest -> go { a with baseline = true } rest
    | "--budget" :: v :: rest -> go { a with budget = number "--budget" v } rest
    | "--bfs-k" :: v :: rest ->
      go { a with bfs_k = int_of_float (number "--bfs-k" v) } rest
    | [ (("--budget" | "--bfs-k") as flag) ] ->
      usage_error "%s expects a value" flag
    | t :: rest when List.mem t targets ->
      go { a with explicit = t :: a.explicit } rest
    | arg :: _ -> usage_error "unknown argument %S" arg
  in
  go
    { explicit = []; small = false; baseline = false; budget = 20.0; bfs_k = 60 }
    argv

let section title = Format.printf "@.=== %s ===@.@." title

let () =
  let { explicit; small; baseline; budget; bfs_k } =
    parse (List.tl (Array.to_list Sys.argv))
  in
  let all = explicit = [] || List.mem "all" explicit in
  let want t = all || List.mem t explicit in
  (* a full harness run includes the paper's COI-MC baseline footnote *)
  let baseline = baseline || all in
  if want "table1" then begin
    section "Table 1 (property verification)";
    E.Table1.(print Format.std_formatter (run ~small ~baseline ()))
  end;
  if want "table2" then begin
    section
      (Printf.sprintf "Table 2 (coverage analysis; RFN budget %.0fs, BFS k=%d)"
         budget bfs_k);
    E.Table2.(print Format.std_formatter (run ~small ~budget ~bfs_k ()))
  end;
  if want "figure1" then begin
    section "Figure 1 (min-cut / hybrid-engine structure)";
    E.Figure1.(print Format.std_formatter (run ~small ()))
  end;
  if want "guidance" then begin
    section "Ablation: error-trace guidance for sequential ATPG (Sec. 2.3)";
    E.Guidance.(print Format.std_formatter (run ~small ()))
  end;
  if want "subsetting" then begin
    section "Ablation: BDD subsetting as pre-image fallback (Sec. 2.2)";
    E.Subsetting.(print Format.std_formatter (run ~small ()))
  end;
  if want "refine" then begin
    section "Ablation: greedy crucial-register minimization (Sec. 2.4)";
    E.Refinement.(print Format.std_formatter (run ~small ()))
  end
