module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Codec = Fbutil.Codec

type t = {
  kind : Fbtypes.Value.kind;
  key : string;
  data : string;
  depth : int;
  bases : Cid.t list;
  context : string;
}

let v ~kind ~key ~data ~depth ~bases ~context =
  { kind; key; data; depth; bases; context }

let to_chunk t =
  let buf = Buffer.create (64 + String.length t.data) in
  Buffer.add_char buf (Fbtypes.Value.kind_to_byte t.kind);
  Codec.string buf t.key;
  Codec.string buf t.data;
  Codec.varint buf t.depth;
  Codec.list buf (Codec.write Cid.codec) t.bases;
  Codec.string buf t.context;
  Chunk.v Chunk.Meta (Buffer.contents buf)

let of_chunk chunk =
  if chunk.Chunk.tag <> Chunk.Meta then raise (Codec.Corrupt "not a meta chunk");
  let r = Codec.reader chunk.Chunk.payload in
  let kind = Fbtypes.Value.kind_of_byte (Codec.read_raw r 1).[0] in
  let key = Codec.read_string r in
  let data = Codec.read_string r in
  let depth = Codec.read_varint r in
  let bases = Codec.read_list r (Codec.read Cid.codec) in
  let context = Codec.read_string r in
  Codec.expect_end r;
  { kind; key; data; depth; bases; context }

let uid t = Chunk.cid (to_chunk t)

let of_value ~key ?(context = "") ~bases value =
  let depth = 1 + List.fold_left (fun d (_, b) -> max d b.depth) (-1) bases in
  {
    kind = Fbtypes.Value.kind value;
    key;
    data = Fbtypes.Value.payload value;
    depth;
    bases = List.map fst bases;
    context;
  }

let store st t = st.Store.put (to_chunk t)
let load st cid = Option.map of_chunk (st.Store.get cid)
let value st cfg t = Fbtypes.Value.of_payload st cfg t.kind t.data
