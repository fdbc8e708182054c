module Member_elem = struct
  type t = string

  let encode = Fbutil.Codec.string
  let decode = Fbutil.Codec.read_string
  let key m = m
  let sorted = true
  let leaf_tag = Fbchunk.Chunk.Set
  let index_tag = Fbchunk.Chunk.SIndex
end

module T = Fbtree.Pos_tree.Make (Member_elem)

type t = T.t

let empty = T.empty
let create = T.of_unsorted
let of_root = T.of_root
let root = T.root
let cardinal = T.length
let equal = T.equal
let mem t m = T.find t m <> None
let add t m = T.set_sorted t m
let add_many t ms = T.set_sorted_many t ms
let remove t m = T.remove_sorted t m
let elements = T.to_list
let to_seq = T.to_seq
let to_seq_from = T.seq_from_key

let diff a b =
  List.filter_map
    (function
      | `Left m -> Some (`Left m)
      | `Right m -> Some (`Right m)
      | `Changed _ -> None (* impossible: members have no payload *))
    (T.diff_sorted a b)

let chunk_count = T.chunk_count
let verify = T.verify
