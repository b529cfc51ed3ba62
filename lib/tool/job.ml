let execute (name, thunk) =
  let span = Obs.Span.enter () in
  match thunk () with
  | v ->
    Obs.Span.leave ("job:" ^ name) span;
    (name, Ok v)
  | exception e ->
    Obs.Span.leave ~args:[ ("failed", 1) ] ("job:" ^ name) span;
    (name, Error e)

(* One chunk per job: a slow corner in the middle of the list does not
   hold up the jobs behind it. [execute] turns exceptions into results,
   so nothing reaches the pool's failure path. *)
let run_all ?(parallel = `Auto) jobs =
  match parallel with
  | `Seq -> List.map execute jobs
  | `Auto | `Par -> Parallel.Pool.map_list ~chunk:1 execute jobs
