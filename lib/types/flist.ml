module Str_elem = struct
  type t = string

  let encode = Fbutil.Codec.string
  let decode = Fbutil.Codec.read_string
  let key _ = ""
  let sorted = false
  let leaf_tag = Fbchunk.Chunk.List
  let index_tag = Fbchunk.Chunk.UIndex
end

module T = Fbtree.Pos_tree.Make (Str_elem)

type t = T.t

let create = T.of_list
let empty = T.empty
let of_root = T.of_root
let root = T.root
let length = T.length
let equal = T.equal
let get = T.get
let slice = T.slice
let to_list = T.to_list
let to_seq = T.to_seq
let to_seq_from t ~pos = T.seq_from t ~pos
let fold = T.fold
let splice = T.splice
let splice_many = T.splice_many
let set t i v = T.splice t ~pos:i ~del:1 ~ins:[ v ]
let push_back t v = T.append t [ v ]
let append = T.append
let insert t ~pos ins = T.splice t ~pos ~del:0 ~ins
let remove t ~pos ~len = T.splice t ~pos ~del:len ~ins:[]
let diff_region = T.diff_region
let chunk_count = T.chunk_count
let verify = T.verify
