type t = string

let size = 32

let of_raw s =
  if String.length s <> size then invalid_arg "Cid.of_raw: need 32 bytes";
  s

let to_raw t = t
let codec = Fbutil.Codec.fixed size
let of_hex h = of_raw (Fbutil.Hex.decode h)
let to_hex = Fbutil.Hex.encode
let short_hex t = String.sub (to_hex t) 0 8
let digest = Fbhash.Sha256.digest
let null = String.make size '\000'
let equal = String.equal
let compare = String.compare
let pp fmt t = Format.pp_print_string fmt (short_hex t)

let low_bits t =
  (* Little-endian read of the digest's last 4 bytes; any fixed slice works
     since the digest is uniform. *)
  let b i = Char.code t.[size - 1 - i] in
  (b 3 lsl 24) lor (b 2 lsl 16) lor (b 1 lsl 8) lor b 0

(* Explicit hash straight from the digest bytes (a different slice than
   [low_bits], so POS-Tree split boundaries and table buckets stay
   uncorrelated).  Never the polymorphic [Hashtbl.hash]: hashing a digest
   through the generic hasher is exactly the discipline slip the
   cid-discipline lint rule exists to catch. *)
let hash t =
  let b i = Char.code t.[i] in
  ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3) land max_int

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
