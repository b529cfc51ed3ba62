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
   contract [enumerate] documents.

   Each search stays inside one component. The components of the whole
   graph are taken once; the component of s in the subgraph on vertices
   >= s is the forward reach from s intersected with the backward reach
   to s, both through vertices >= s of s's whole-graph component (a
   cycle through s never leaves it). The marks are shared by every
   start and only the vertices a search touched are reset, so a chain
   of small loops costs time and memory linear in its size. *)

type bounds = { max_len : int; max_cycles : int }

let default_bounds = { max_len = 16; max_cycles = 4096 }

let enumerate ?(bounds = default_bounds) adj =
  let n = Array.length adj in
  let adj = Array.map (fun l -> List.sort_uniq compare l) adj in
  let comp = Array.make n 0 in
  List.iteri
    (fun i c -> List.iter (fun v -> comp.(v) <- i) c)
    (Numerics.Scc.components adj);
  let radj = Array.make n [] in
  for v = n - 1 downto 0 do
    List.iter (fun w -> radj.(w) <- v :: radj.(w)) adj.(v)
  done;
  let fwd = Array.make n false and bwd = Array.make n false in
  let blocked = Array.make n false in
  let bsets = Array.make n [] in
  let cycles = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  (* Every cycle is enumerated at s = its minimum vertex. *)
  for s = 0 to n - 1 do
    (* The vertices reachable from s along [next] through vertices >= s
       of s's component, each marked in [mark]. *)
    let reach mark next =
      let seen = ref [ s ] in
      let rec go v =
        mark.(v) <- true;
        List.iter
          (fun w ->
            if w >= s && comp.(w) = comp.(s) && not mark.(w) then begin
              seen := w :: !seen;
              go w
            end)
          next.(v)
      in
      go s;
      !seen
    in
    let ahead = reach fwd adj and behind = reach bwd radj in
    let in_comp w = fwd.(w) && bwd.(w) in
    if List.exists in_comp adj.(s) then begin
      if !count >= bounds.max_cycles then truncated := true
      else begin
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
              if in_comp w then begin
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
            adj.(v);
          if !found then unblock v
          else
            List.iter
              (fun w ->
                if in_comp w && not (List.mem v bsets.(w)) then
                  bsets.(w) <- v :: bsets.(w))
              adj.(v);
          path := List.tl !path;
          !found
        in
        ignore (circuit s 1)
      end
    end;
    (* The search touched only vertices of s's component, all reached
       forward from s. *)
    List.iter
      (fun v ->
        fwd.(v) <- false;
        blocked.(v) <- false;
        bsets.(v) <- [])
      ahead;
    List.iter (fun v -> bwd.(v) <- false) behind
  done;
  (List.sort compare !cycles, !truncated)
