type t = { oc : out_channel; mutable first : bool; mutable closed : bool }

let us_of_seconds ts = Float.max 0.0 ts *. 1e6

let emit t fields =
  if not t.closed then begin
    if t.first then t.first <- false else output_string t.oc ",\n";
    Json.to_channel t.oc (Json.Obj fields)
  end

let base ~ph ~name ~ts () =
  [
    ("name", Json.Str name);
    ("ph", Json.Str ph);
    ("ts", Json.Float (us_of_seconds ts));
    ("pid", Json.Int 1);
    ("tid", Json.Int 1);
  ]

let create file =
  let oc = open_out file in
  let t = { oc; first = true; closed = false } in
  output_string oc "[\n";
  emit t
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
      ("args", Json.Obj [ ("name", Json.Str "rfn") ]);
    ];
  t

let with_args args fields =
  match args with [] -> fields | args -> fields @ [ ("args", Json.Obj args) ]

let complete t ~name ?cat ~ts ~dur ?(args = []) () =
  let fields = base ~ph:"X" ~name ~ts () in
  let fields =
    match cat with
    | None -> fields
    | Some c -> fields @ [ ("cat", Json.Str c) ]
  in
  emit t (with_args args (fields @ [ ("dur", Json.Float (dur *. 1e6)) ]))

let instant t ~name ~ts ?(args = []) () =
  (* "s":"t" scopes the marker to the thread track *)
  emit t (with_args args (base ~ph:"i" ~name ~ts () @ [ ("s", Json.Str "t") ]))

let counter t ~name ~ts series =
  emit t
    (base ~ph:"C" ~name ~ts ()
    @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) series)) ]
    )

let close t =
  if not t.closed then begin
    t.closed <- true;
    output_string t.oc "\n]\n";
    close_out t.oc
  end
