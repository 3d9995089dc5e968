type t = { name : string; bad : int }

let make ~name ~bad = { name; bad }
let of_output c name = { name; bad = Circuit.output c name }
let roots t = [ t.bad ]
