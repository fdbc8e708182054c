type tag = Meta | UIndex | SIndex | Blob | List | Set | Map

let tag_to_byte = function
  | Meta -> 'M'
  | UIndex -> 'U'
  | SIndex -> 'S'
  | Blob -> 'B'
  | List -> 'L'
  | Set -> 'E'
  | Map -> 'P'

let tag_of_byte = function
  | 'M' -> Meta
  | 'U' -> UIndex
  | 'S' -> SIndex
  | 'B' -> Blob
  | 'L' -> List
  | 'E' -> Set
  | 'P' -> Map
  | c -> raise (Fbutil.Codec.Corrupt (Printf.sprintf "invalid chunk tag %C" c))

let tag_to_string = function
  | Meta -> "Meta"
  | UIndex -> "UIndex"
  | SIndex -> "SIndex"
  | Blob -> "Blob"
  | List -> "List"
  | Set -> "Set"
  | Map -> "Map"

type t = { tag : tag; payload : string }

let v tag payload = { tag; payload }

let encode t =
  let b = Bytes.create (1 + String.length t.payload) in
  Bytes.set b 0 (tag_to_byte t.tag);
  Bytes.blit_string t.payload 0 b 1 (String.length t.payload);
  Bytes.unsafe_to_string b

let decode s =
  if String.length s = 0 then raise (Fbutil.Codec.Corrupt "empty chunk");
  { tag = tag_of_byte s.[0]; payload = String.sub s 1 (String.length s - 1) }

let output oc t =
  output_char oc (tag_to_byte t.tag);
  output_string oc t.payload

(* The digest of [encode t], fed in two parts so the chunk is not copied
   to be hashed. *)
let cid t =
  let ctx = Fbhash.Sha256.init () in
  Fbhash.Sha256.feed_string ctx (String.make 1 (tag_to_byte t.tag));
  Fbhash.Sha256.feed_string ctx t.payload;
  Cid.of_raw (Fbhash.Sha256.finalize ctx)

let byte_size t = 1 + String.length t.payload
