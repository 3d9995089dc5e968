open Rfn_circuit
module B = Circuit.Builder

type params = { shift_bytes : int; fifo_words : int }

let default = { shift_bytes = 8; fifo_words = 16 }
let small = { shift_bytes = 1; fifo_words = 2 }

type t = { circuit : Circuit.t; coverage_sets : (string * int list) list }

let make ?(params = default) () =
  let p = params in
  let b = B.create () in
  let rx = B.input b "rx" in
  let sync_seen = B.input b "sync_seen" in
  let bit_strobe = B.input b "bit_strobe" in
  let host_abort = B.input b "host_abort" in

  (* Receive FSM: one-hot over 8 phases. State register i is named
     after the phase it encodes. *)
  let phases = [| "sync"; "pid"; "token"; "data"; "crc"; "hsk"; "eop"; "err" |] in
  let st =
    Array.mapi
      (fun i name ->
        B.reg b ~init:(if i = 0 then `One else `Zero) ("st_" ^ name))
      phases
  in
  (* Byte counter within a field. *)
  let bytecnt = Rtl.regs b "bytecnt" 4 in
  let byte_done = Rtl.eq_const b bytecnt 7 in
  Rtl.connect b bytecnt
    (Rtl.mux b byte_done
       (Rtl.mux b bit_strobe bytecnt (Rtl.incr b bytecnt))
       (Rtl.const b ~width:4 0));

  (* Latched PID and its complement check. *)
  let pid = Rtl.regs b "pid" 4 in
  let pid_shift = B.and2 b st.(1) bit_strobe in
  Array.iteri
    (fun j r ->
      let src = if j = 0 then rx else pid.(j - 1) in
      B.connect b r (B.mux b pid_shift r src))
    pid;
  let pid_token = Rtl.eq_const b pid 0b1001 in
  let pid_data = Rtl.eq_const b pid 0b0011 in
  let pid_hsk = Rtl.eq_const b pid 0b0010 in
  let pid_bad =
    B.not_ b (B.or_l b [ pid_token; pid_data; pid_hsk ])
  in

  let sync = st.(0) and spid = st.(1) and stoken = st.(2) and sdata = st.(3)
  and scrc = st.(4) and shsk = st.(5) and seop = st.(6) and serr = st.(7) in
  let next =
    [|
      (* sync *)
      B.or2 b (B.and2 b sync (B.not_ b sync_seen)) seop;
      (* pid *)
      B.or2 b (B.and2 b sync sync_seen) (B.and2 b spid (B.not_ b byte_done));
      (* token *)
      B.or2 b
        (B.and_l b [ spid; byte_done; pid_token ])
        (B.and2 b stoken (B.not_ b byte_done));
      (* data *)
      B.or2 b
        (B.and_l b [ spid; byte_done; pid_data ])
        (B.and2 b sdata (B.not_ b byte_done));
      (* crc *)
      B.or2 b
        (B.or2 b (B.and2 b stoken byte_done) (B.and2 b sdata byte_done))
        (B.and2 b scrc (B.not_ b byte_done));
      (* hsk *)
      B.or2 b
        (B.and_l b [ spid; byte_done; pid_hsk ])
        (B.and2 b shsk (B.not_ b byte_done));
      (* eop *)
      B.or2 b (B.and2 b scrc byte_done) (B.and2 b shsk byte_done);
      (* err *)
      B.or2 b
        (B.and_l b [ spid; byte_done; pid_bad ])
        (B.and2 b serr (B.not_ b host_abort));
    |]
  in
  Array.iteri (fun i r -> B.connect b r next.(i)) st;

  (* Endpoint FSM (one-hot 3): idle / active / halted. *)
  let ep_idle = B.reg b ~init:`One "ep_idle" in
  let ep_active = B.reg b "ep_active" in
  let ep_halt = B.reg b "ep_halt" in
  B.connect b ep_idle
    (B.or2 b (B.and2 b ep_idle (B.not_ b stoken)) (B.and2 b ep_active seop));
  B.connect b ep_active
    (B.or2 b (B.and2 b ep_idle stoken)
       (B.and_l b [ ep_active; B.not_ b seop; B.not_ b serr ]));
  B.connect b ep_halt (B.or2 b ep_halt (B.and2 b ep_active serr));

  (* Status flags. flag_err is connected below once the FIFO exists:
     a data-integrity failure is an error cause, pulling the FIFO and
     the shift register into the flag's (hence USB2's) COI. *)
  let flag_err_sticky = B.reg b "flag_err" in
  let flag_rx_busy = B.reg_of b "flag_busy" (B.not_ b sync) in
  let flag_data_seen = B.reg b "flag_data" in
  B.connect b flag_data_seen (B.or2 b flag_data_seen sdata);
  let flag_tok_seen = B.reg b "flag_tok" in
  B.connect b flag_tok_seen (B.or2 b flag_tok_seen stoken);
  let flag_crc_ok = B.reg b "flag_crc_ok" in
  let flag_abort = B.reg_of b "flag_abort" host_abort in

  (* CRC registers and the data path. *)
  let crc5 = Rtl.regs b "crc5" 5 in
  let crc5_en = B.and2 b stoken bit_strobe in
  let crc5_fb = B.xor2 b rx crc5.(4) in
  Array.iteri
    (fun j r ->
      let shifted = if j = 0 then crc5_fb else if j = 2 then B.xor2 b crc5.(1) crc5_fb else crc5.(j - 1) in
      B.connect b r (B.mux b crc5_en r shifted))
    crc5;
  let crc16 = Rtl.regs b "crc16" 16 in
  let crc16_en = B.and2 b sdata bit_strobe in
  let crc16_fb = B.xor2 b rx crc16.(15) in
  Array.iteri
    (fun j r ->
      let shifted =
        if j = 0 then crc16_fb
        else if j = 2 || j = 15 then B.xor2 b crc16.(j - 1) crc16_fb
        else crc16.(j - 1)
      in
      B.connect b r (B.mux b crc16_en r shifted))
    crc16;
  B.connect b flag_crc_ok
    (B.mux b seop flag_crc_ok
       (B.and2 b (Rtl.is_zero b crc5) (Rtl.is_zero b crc16)));
  let shift =
    Rfn_circuit.Rtl.shift_reg b ~name:"shift" ~length:(8 * p.shift_bytes)
      ~din:rx ~enable:crc16_en ()
  in
  let fifo =
    Array.init p.fifo_words (fun i ->
        let w = Rtl.regs b (Printf.sprintf "fword_%d" i) 8 in
        let sel = B.and2 b seop (Rtl.eq_const b bytecnt i) in
        Rtl.connect b w
          (Rtl.mux b sel w (Array.sub shift 0 8));
        w)
  in
  let fifo_parity =
    B.gate b Gate.Xor (Array.concat (Array.to_list fifo))
  in
  let shift_parity = B.gate b Gate.Xor (Array.copy shift) in
  B.connect b flag_err_sticky
    (B.or_l b
       [ flag_err_sticky; serr; B.and_l b [ fifo_parity; shift_parity; seop ] ]);
  B.output b "err" serr;
  B.output b "fifo_parity" fifo_parity;

  let circuit = B.finalize b in
  let fsm = Array.to_list st in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let coverage_sets =
    [
      ("USB1", take 6 fsm);
      ( "USB2",
        fsm
        @ Array.to_list pid
        @ [ ep_idle; ep_active; ep_halt ]
        @ [
            flag_err_sticky;
            flag_rx_busy;
            flag_data_seen;
            flag_tok_seen;
            flag_crc_ok;
            flag_abort;
          ] );
    ]
  in
  assert (Option.map List.length (List.assoc_opt "USB1" coverage_sets) = Some 6);
  assert (Option.map List.length (List.assoc_opt "USB2" coverage_sets) = Some 21);
  { circuit; coverage_sets }
