module Byte_elem = struct
  type t = char

  let encode = Buffer.add_char
  let decode = Fbutil.Codec.read_byte
  let key _ = ""
  let sorted = false
  let leaf_tag = Fbchunk.Chunk.Blob
  let index_tag = Fbchunk.Chunk.UIndex
end

module T = Fbtree.Pos_tree.Make (Byte_elem)

type t = T.t

let create store cfg s = T.of_bytes store cfg s
let empty store cfg = T.empty store cfg
let of_root = T.of_root
let root = T.root
let length = T.length
let equal = T.equal

let read t ~pos ~len =
  (* Blob elements are single bytes, so leaf payloads are blitted
     wholesale, once, into the result. *)
  let b = Bytes.create len in
  let at = ref 0 in
  T.iter_leaf_payloads t ~pos ~len (fun payload ~off ~take ->
      Bytes.blit_string payload off b !at take;
      at := !at + take);
  Bytes.unsafe_to_string b

let to_string t = read t ~pos:0 ~len:(length t)

let splice t ~pos ~del ~ins = T.splice_bytes t ~pos ~del ~ins

let append t s = splice t ~pos:(length t) ~del:0 ~ins:s
let insert t ~pos s = splice t ~pos ~del:0 ~ins:s
let remove t ~pos ~len = splice t ~pos ~del:len ~ins:""
let overwrite t ~pos s = splice t ~pos ~del:(String.length s) ~ins:s

(* A byte sequence as slices [(src, off, len)] fetched on demand: a blob's
   leaf payloads (read-cache hits on a served store), or a span of one string.
   [update] and [diff_region] find common prefixes and suffixes over these
   without copying or decoding a blob. *)
type view = { parts : int; part : int -> string * int * int }

let view t = { parts = T.leaf_count t; part = T.leaf_bytes t }
let flat s ~pos ~len = { parts = 1; part = (fun _ -> (s, pos, len)) }

(* Equal bytes of [a] and [b] running forward from [ai] and [bi], or
   backward from just before them when [back]; at most [len].  Both
   ranges are checked here, once, before any byte is compared. *)
let checked_run_equal compare ~back a ai b bi len =
  let a0, b0 = if back then (ai - len, bi - len) else (ai, bi) in
  if len < 0 || a0 < 0 || b0 < 0 || a0 + len > String.length a
     || b0 + len > String.length b
  then invalid_arg "Fblob.run_equal: out of bounds";
  compare back a ai b bi len

module Reference = struct
  (* An 8-byte load without a bounds check: the ranges are checked before
     the loop, which makes it ~2x faster than [String.get_int64_ne]. *)
  external word : string -> int -> int64 = "%caml_string_get64u"

  let run_equal =
    checked_run_equal (fun back a ai b bi len ->
        (* where the [k]th byte (or word) from [i] starts, going [back] or
           not *)
        let at i k width = if back then i - k - width else i + k in
        let k = ref 0 in
        while !k + 8 <= len && word a (at ai !k 8) = word b (at bi !k 8) do
          k := !k + 8
        done;
        while !k < len && a.[at ai !k 1] = b.[at bi !k 1] do
          incr k
        done;
        !k)
end

external native_run_equal : bool -> string -> int -> string -> int -> int -> int
  = "fb_blob_run_equal_byte" "fb_blob_run_equal"
[@@noalloc]

let run_equal = checked_run_equal native_run_equal

(* Length of the common prefix of two views, or of the common suffix when
   [back]; at most [limit], which neither view may be shorter than. *)
let common ~back a b ~limit =
  let part v i = v.part (if back then v.parts - 1 - i else i) in
  (* [(s, o, n)] is the unconsumed slice; compares start at [o], or end
     at [o + n] going back. *)
  let rec go ia (sa, oa, na) ib (sb, ob, nb) acc =
    if acc = limit then acc
    else if na = 0 then go (ia + 1) (part a (ia + 1)) ib (sb, ob, nb) acc
    else if nb = 0 then go ia (sa, oa, na) (ib + 1) (part b (ib + 1)) acc
    else
      let len = min (limit - acc) (min na nb) in
      let k =
        if back then run_equal ~back sa (oa + na) sb (ob + nb) len
        else run_equal ~back sa oa sb ob len
      in
      let skip o = if back then o else o + k in
      if k < len then acc + k
      else go ia (sa, skip oa, na - k) ib (sb, skip ob, nb - k) (acc + k)
  in
  if limit = 0 then 0 else go 0 (part a 0) 0 (part b 0) 0

(* Common prefix, then common suffix of what is left: the string model's
   tightest differing middle. *)
let affixes a ~alen b ~blen =
  let limit = min alen blen in
  let p = common ~back:false a b ~limit in
  (p, common ~back:true a b ~limit:(limit - p))

(* Only the differing middle of [s] is copied: nothing of the span is
   kept once [update] returns. *)
let update t ~pos ~len s =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fblob.update: range outside the string";
  let old = length t in
  let p, q = affixes (view t) ~alen:old (flat s ~pos ~len) ~blen:len in
  splice t ~pos:p ~del:(old - p - q) ~ins:(String.sub s (pos + p) (len - p - q))

let diff_region a b =
  if equal a b then None
  else
    let la = length a and lb = length b in
    let p, q = affixes (view a) ~alen:la (view b) ~blen:lb in
    Some ((p, la - p - q), (p, lb - p - q))

let chunk_count = T.chunk_count
let height = T.height
let verify = T.verify
