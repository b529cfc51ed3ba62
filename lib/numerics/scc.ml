(* Tarjan's strongly connected components, recursive: the graphs here
   are netlist-sized (at most a few thousand vertices: nets for the
   signal-flow graph, unknowns for the small-signal pencil), well inside
   the OCaml stack. *)
let components adj =
  let n = Array.length adj in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next = ref 0 in
  let comps = ref [] in
  let rec connect v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          connect w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w))
      adj.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      comps := List.sort compare (pop []) :: !comps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then connect v
  done;
  List.sort compare !comps
