(* Mutation fuzzers over the four readers of outside input. Each case
   applies one to six random edits (byte flips, inserts, deletes,
   duplicated chunks, truncation) to a well-formed seed:

   - [Bench_io.parse] and [Aiger_io.parse] may raise [Failure] with a
     message, as their interfaces document, and nothing else;
   - [Protocol.request_of_line] and [Checkpoint.load] never raise.

   A failing case prints the mutated input. *)

open Rfn_circuit
module Protocol = Rfn_serve.Protocol
module Checkpoint = Rfn_proc.Checkpoint

let cases = 10_000

type edit =
  | Flip of int * char
  | Insert of int * string
  | Delete of int * int
  | Dup of int * int * int
  | Truncate of int

(* Bytes that carry structure in at least one of the formats. *)
let special = "()=,#\n \t-+0123456789.:\"{}[]\\aeilnrtu"

let gen_edit =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  let byte =
    frequency
      [
        (1, char);
        (2, map (String.get special) (int_bound (String.length special - 1)));
      ]
  in
  frequency
    [
      (3, map2 (fun p c -> Flip (p, c)) pos byte);
      ( 2,
        map2 (fun p s -> Insert (p, s)) pos (string_size ~gen:byte (int_range 1 8))
      );
      (2, map2 (fun p l -> Delete (p, l)) pos (int_range 1 16));
      (1, map3 (fun p q l -> Dup (p, q, l)) pos pos (int_range 1 64));
      (1, map (fun p -> Truncate p) pos);
    ]

let apply s edit =
  let n = String.length s in
  let at p = p mod (n + 1) in
  let splice p t = String.sub s 0 p ^ t ^ String.sub s p (n - p) in
  match edit with
  | Flip (_, c) when n = 0 -> String.make 1 c
  | Flip (p, c) ->
    let p = p mod n in
    String.mapi (fun i x -> if i = p then c else x) s
  | Insert (p, t) -> splice (at p) t
  | Delete (p, l) ->
    let p = at p in
    let l = min l (n - p) in
    String.sub s 0 p ^ String.sub s (p + l) (n - p - l)
  | Dup (p, q, l) ->
    let p = at p in
    splice (at q) (String.sub s p (min l (n - p)))
  | Truncate p -> String.sub s 0 (at p)

let mutants seeds =
  let gen =
    QCheck.Gen.(
      map2 (List.fold_left apply) (oneofl seeds)
        (list_size (int_range 1 6) gen_edit))
  in
  let print s =
    let s =
      if String.length s > 2_000 then String.sub s 0 2_000 ^ "..." else s
    in
    String.escaped s
  in
  QCheck.make ~print gen

let fuzz ?(speed_level = `Quick) name seeds prop =
  QCheck_alcotest.to_alcotest ~speed_level
    (QCheck.Test.make ~count:cases ~name (mutants seeds) prop)

let read file = In_channel.with_open_bin file In_channel.input_all

(* Only [Failure] may escape; any other exception fails the case. *)
let failure_only parse s =
  match parse s with (_ : Circuit.t) -> true | exception Failure _ -> true

(* About 10 s: each case parses a 24 kB netlist. *)
let bench_fuzz =
  fuzz ~speed_level:`Slow "Bench_io.parse raises only Failure"
    [ read "../examples/fifo.bench" ]
    (failure_only Bench_io.parse)

let aiger_fuzz =
  fuzz "Aiger_io.parse raises only Failure"
    [ read "../examples/passing_token.aag"; read "../examples/passing_token.aig" ]
    (failure_only Aiger_io.parse)

let request_seeds =
  let submit design budget =
    Rfn_obs.Json.to_string
      (Protocol.submit_to_json
         { Protocol.id = "j1"; design; property = "bad"; budget })
  in
  [
    submit (Protocol.File "examples/fifo.bench") Protocol.no_budget;
    submit
      (Protocol.Netlist "INPUT(a)\nOUTPUT(bad)\nbad = NOT(a)\n")
      {
        Protocol.max_iterations = Some 7;
        node_limit = Some 100_000;
        mc_max_steps = Some 50;
        max_seconds = Some 1.5;
        engines = Some Rfn_core.Rfn.Portfolio;
        analyze = Some true;
      };
    {|{"op":"status","id":"j1"}|};
    {|{"op":"status"}|};
    {|{"op":"cancel","id":"j1"}|};
    {|{"op":"shutdown"}|};
  ]

let request_fuzz =
  fuzz "Protocol.request_of_line never raises" request_seeds (fun line ->
      match Protocol.request_of_line line with Ok _ | Error _ -> true)

let checkpoint_fuzz =
  let file = Filename.temp_file "rfn_fuzz" ".json" in
  at_exit (fun () -> if Sys.file_exists file then Sys.remove file);
  let seed ck =
    Checkpoint.save file ck;
    read file
  in
  let seeds =
    [
      seed
        (Checkpoint.make ~job_id:"j1" ~netlist_hash:"abc123" ~property:"bad"
           ~iteration:4 ~seconds_used:1.25 ~escalation:8
           ~regs:[ "cnt_0"; "cnt_1"; "full" ]
           ~provenance:[ Helpers.sample_provenance ] ());
      seed
        (Checkpoint.make ~netlist_hash:"h" ~property:"p" ~iteration:1
           ~seconds_used:0.0 ~escalation:1 ~regs:[] ~provenance:[] ());
    ]
  in
  fuzz "Checkpoint.load never raises" seeds (fun text ->
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      match Checkpoint.load file with Ok _ | Error _ -> true)

let () =
  Alcotest.run "fuzz"
    [ ("fuzz", [ bench_fuzz; aiger_fuzz; request_fuzz; checkpoint_fuzz ]) ]
