type t = {
  block_of : int array;
  local : int array;
  members : int array array;
}

let of_components n comps =
  let block_of = Array.make n 0 and local = Array.make n 0 in
  let members = Array.of_list (List.map Array.of_list comps) in
  Array.iteri
    (fun b m ->
      Array.iteri
        (fun k v ->
          block_of.(v) <- b;
          local.(v) <- k)
        m)
    members;
  { block_of; local; members }

let whole n = of_components n [ List.init n Fun.id ]

let of_pencil mna prims =
  let n = mna.Mna.size in
  let adj = Array.make n [] in
  Stamps.pencil mna prims ~gmin:0. (fun i j _ _ ->
      if i <> j then adj.(i) <- j :: adj.(i));
  of_components n (Numerics.Scc.components adj)

let count t = Array.length t.members
let size t b = Array.length t.members.(b)

let pencil t mna prims ~gmin f =
  Stamps.pencil mna prims ~gmin (fun i j g c ->
      let b = t.block_of.(i) in
      if t.block_of.(j) = b then f b t.local.(i) t.local.(j) g c)
