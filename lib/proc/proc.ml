type policy = { enabled : bool; deadline_slack : float }

let default_policy = { enabled = false; deadline_slack = 0.25 }
