(* The three static passes over the signal-flow graph. Everything here
   is deterministic: ties break on net or device names, cycles come out
   of [Cycles.enumerate] canonically ordered, so the same deck always
   produces byte-identical reports (the @staticcheck goldens rely on
   it). *)

let n_builds = Obs.Counter.make "sfg.builds"

type loop_kind = Global | Local of string

let kind_string = function
  | Global -> "global"
  | Local d -> "local:" ^ d

type loop = {
  id : string;
  nets : string list;
  devices : string list;
  gain_order : int;
  kind : loop_kind;
  probeable : string list;
}

type target =
  | Absent
  | Pinned of string option
  | Unreachable
  | Drivable

type t = {
  nets : int;
  edges : int;
  pinned : string list;
  loops : loop list;
  truncated : bool;
  cover : string list;
  uncovered : loop list;
  undrivable : string list option;
  open_gain : string list;
  stab_targets : (string * target) list;
}

let default_bounds = Cycles.default_bounds

(* Hops of a cycle, as (from, to) vertex pairs, wrap included. *)
let hops cycle =
  match cycle with
  | [] -> []
  | first :: _ ->
    let rec go = function
      | [ last ] -> [ (last, first) ]
      | a :: (b :: _ as rest) -> (a, b) :: go rest
      | [] -> []
    in
    go cycle

let loop_of_cycle circ g cycle =
  let hop_edges = List.map (fun (u, v) -> Sfg.edges_between g u v) (hops cycle) in
  let gain_order =
    List.length
      (List.filter
         (List.exists (fun (e : Sfg.edge) -> e.kind = Sfg.Gain))
         hop_edges)
  in
  let devices =
    List.concat_map (List.map (fun (e : Sfg.edge) -> e.device)) hop_edges
    |> List.sort_uniq compare
  in
  let nets = List.map (Sfg.net g) cycle in
  let probeable =
    List.filter_map
      (fun v -> if Sfg.is_pinned g v then None else Some (Sfg.net g v))
      cycle
    |> List.sort compare
  in
  (* Local: every member net lies on one device's terminals (the loop
     is the device's own small-signal skeleton — a follower or mirror
     loop), whichever loop device qualifies first alphabetically. *)
  let contained_in dname =
    match Circuit.Netlist.find_device circ dname with
    | None -> false
    | Some d ->
      let terms =
        List.filter
          (fun n -> not (Circuit.Netlist.is_ground n))
          (Circuit.Netlist.device_nodes d)
      in
      List.for_all (fun n -> List.mem n terms) nets
  in
  let kind =
    match List.find_opt contained_in devices with
    | Some d -> Local d
    | None -> Global
  in
  { id = String.concat ">" nets; nets; devices; gain_order; kind; probeable }

(* Uncovered-loop tallies, most first and then by name: the minimum
   is the next net to pick. *)
module Tallies = Set.Make (struct
  type t = int * string

  let compare (c, n) (c', n') =
    match Int.compare c' c with 0 -> String.compare n n' | d -> d
end)

(* Greedy hitting set over the probeable member nets: pick the net
   covering the most still-uncovered loops, smallest name on ties, until
   every coverable loop is observed. Each net's tally (one per
   occurrence in an uncovered loop) is counted once and decremented as
   the loops holding it are covered, so the cost is near-linear in the
   loops' total size. *)
let greedy_cover loops =
  let coverable =
    Array.of_list (List.filter (fun l -> l.probeable <> []) loops)
  in
  let tally = Hashtbl.create 64 and holders = Hashtbl.create 64 in
  Array.iteri
    (fun i l ->
      List.iter
        (fun n ->
          Hashtbl.replace tally n
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally n));
          Hashtbl.replace holders n
            (i :: Option.value ~default:[] (Hashtbl.find_opt holders n)))
        l.probeable)
    coverable;
  let queue =
    ref (Hashtbl.fold (fun n c q -> Tallies.add (c, n) q) tally Tallies.empty)
  in
  let decrement n =
    let c = Hashtbl.find tally n in
    Hashtbl.replace tally n (c - 1);
    queue := Tallies.remove (c, n) !queue;
    if c > 1 then queue := Tallies.add (c - 1, n) !queue
  in
  let covered = Array.make (Array.length coverable) false in
  let rec go chosen =
    match Tallies.min_elt_opt !queue with
    | None -> List.rev chosen
    | Some (_, n) ->
      List.iter
        (fun i ->
          if not covered.(i) then begin
            covered.(i) <- true;
            List.iter decrement coverable.(i).probeable
          end)
        (Hashtbl.find holders n);
      go (n :: chosen)
  in
  go []

let covers t loop =
  List.find_opt (fun n -> List.mem n loop.probeable) t.cover

let analyze ?(bounds = default_bounds) circ =
  let g =
    Obs.Span.with_ "sfg.build" (fun () ->
        Obs.Counter.incr n_builds;
        Sfg.build circ)
  in
  let loops, truncated =
    Obs.Span.with_ "sfg.cycles" (fun () ->
        let adj = Sfg.succ g in
        let n = Array.length adj in
        let scc_of = Array.make n (-1) in
        List.iteri
          (fun i comp -> List.iter (fun v -> scc_of.(v) <- i) comp)
          (Numerics.Scc.components adj);
        (* An SCC is worth enumerating only when a gain edge lives
           inside it: a purely passive mesh has (many) cycles but no
           feedback. *)
        let gainful = Hashtbl.create 8 in
        List.iter
          (fun (e : Sfg.edge) ->
            if e.kind = Sfg.Gain && scc_of.(e.src) = scc_of.(e.dst) then
              Hashtbl.replace gainful scc_of.(e.src) ())
          (Sfg.edges g);
        let sub =
          Array.mapi
            (fun v ws ->
              if Hashtbl.mem gainful scc_of.(v) then
                List.filter (fun w -> scc_of.(w) = scc_of.(v)) ws
              else [])
            adj
        in
        let cycles, truncated = Cycles.enumerate ~bounds sub in
        let loops =
          List.map (loop_of_cycle circ g) cycles
          |> List.filter (fun l -> l.gain_order >= 1)
          |> List.sort (fun a b ->
                 match compare b.gain_order a.gain_order with
                 | 0 -> compare a.id b.id
                 | c -> c)
        in
        (loops, truncated))
  in
  let cover =
    Obs.Span.with_ "sfg.cover" (fun () -> greedy_cover loops)
  in
  let uncovered = List.filter (fun l -> l.probeable = []) loops in
  let reach = Sfg.reachable_from_sources g in
  let undrivable =
    Option.map
      (fun reach ->
        let acc = ref [] in
        Array.iteri
          (fun v ok -> if not ok then acc := Sfg.net g v :: !acc)
          reach;
        List.sort compare !acc)
      reach
  in
  let stab_targets =
    List.map
      (fun n ->
        ( n,
          match Sfg.index g n with
          | None -> Absent
          | Some v when Sfg.is_pinned g v -> Pinned (Sfg.pinning_driver g v)
          | Some v ->
            (match reach with
             | Some seen when not seen.(v) -> Unreachable
             | _ -> Drivable) ))
      (Sfg.stab_targets g)
  in
  let open_gain =
    let adj = Sfg.succ g in
    let n = Array.length adj in
    let scc_of = Array.make n (-1) in
    List.iteri
      (fun i comp -> List.iter (fun v -> scc_of.(v) <- i) comp)
      (Numerics.Scc.components adj);
    let in_loop = Hashtbl.create 16 in
    List.iter
      (fun (e : Sfg.edge) ->
        if e.kind = Sfg.Gain && scc_of.(e.src) = scc_of.(e.dst) then
          Hashtbl.replace in_loop e.device ())
      (Sfg.edges g);
    List.filter (fun d -> not (Hashtbl.mem in_loop d)) (Sfg.gain_devices g)
  in
  (* The graph itself is dropped here: a cached report keeps only what
     its readers print. *)
  { nets = Sfg.size g; edges = List.length (Sfg.edges g);
    pinned = Sfg.pinned_nets g; loops; truncated; cover; uncovered;
    undrivable; open_gain; stab_targets }
