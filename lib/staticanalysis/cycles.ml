(* Bounded elementary-cycle enumeration: Tarjan SCCs
   ([Numerics.Scc]) plus Johnson's blocked depth-first search.

   Johnson's guarantee — every elementary cycle exactly once, no
   re-exploration of dead subtrees — relies on the blocking discipline:
   a vertex stays blocked after a fruitless visit until some ancestor
   closes a cycle, at which point the B-sets cascade the unblocking.
   The two bounds interact with that discipline: when a bound stops an
   exploration we *treat the subtree as if it had yielded a cycle*
   (found := true), which keeps every vertex on the current path
   unblockable. That is conservative — some subtrees are re-explored —
   but it cannot lose a cycle that fits inside the bounds, which is the
   contract [enumerate] documents. *)

type bounds = { max_len : int; max_cycles : int }

let default_bounds = { max_len = 16; max_cycles = 4096 }

let enumerate ?(bounds = default_bounds) adj =
  let n = Array.length adj in
  let adj = Array.map (fun l -> List.sort_uniq compare l) adj in
  let cycles = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  (* Every cycle is enumerated at s = its minimum vertex: the search
     for start [s] runs inside the subgraph induced on vertices >= s,
     restricted to the SCC containing s (a cycle through s cannot
     leave it). *)
  for s = 0 to n - 1 do
    let sub = Array.make n [] in
    for v = s to n - 1 do
      sub.(v) <- List.filter (fun w -> w >= s) adj.(v)
    done;
    let comp =
      match List.find_opt (List.mem s) (Numerics.Scc.components sub) with
      | Some c -> c
      | None -> [ s ]
    in
    let in_comp = Array.make n false in
    List.iter (fun v -> in_comp.(v) <- true) comp;
    if List.exists (fun w -> in_comp.(w)) sub.(s) then begin
      if !count >= bounds.max_cycles then truncated := true
      else begin
        let blocked = Array.make n false in
        let bsets = Array.make n [] in
        let path = ref [] in
        let rec unblock v =
          if blocked.(v) then begin
            blocked.(v) <- false;
            let bs = bsets.(v) in
            bsets.(v) <- [];
            List.iter unblock bs
          end
        in
        (* [depth] counts the vertices on the current path, v included. *)
        let rec circuit v depth =
          let found = ref false in
          path := v :: !path;
          blocked.(v) <- true;
          List.iter
            (fun w ->
              if in_comp.(w) then begin
                if !count >= bounds.max_cycles then begin
                  truncated := true;
                  found := true
                end
                else if w = s then begin
                  cycles := List.rev !path :: !cycles;
                  incr count;
                  found := true
                end
                else if not blocked.(w) then begin
                  if depth >= bounds.max_len then begin
                    truncated := true;
                    found := true
                  end
                  else if circuit w (depth + 1) then found := true
                end
              end)
            sub.(v);
          if !found then unblock v
          else
            List.iter
              (fun w ->
                if in_comp.(w) && not (List.mem v bsets.(w)) then
                  bsets.(w) <- v :: bsets.(w))
              sub.(v);
          path := List.tl !path;
          !found
        in
        ignore (circuit s 1)
      end
    end
  done;
  (List.sort compare !cycles, !truncated)
