(** Blob — a chunkable byte sequence stored as a POS-Tree (§3.4).

    Suited to data that grows large but whose updates touch small portions
    (documents, wiki pages, file contents): consecutive versions share all
    untouched chunks.  All update operations return a new handle; the old
    version remains readable. *)

type t

val create : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> string -> t
val empty : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> t
val of_root : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> Fbchunk.Cid.t -> t
val root : t -> Fbchunk.Cid.t
val length : t -> int
val equal : t -> t -> bool

val read : t -> pos:int -> len:int -> string
(** Fetches only the chunks covering the range. *)

val to_string : t -> string

val append : t -> string -> t
val insert : t -> pos:int -> string -> t
val remove : t -> pos:int -> len:int -> t
val overwrite : t -> pos:int -> string -> t
(** In-place update of [String.length] bytes at [pos]. *)

val splice : t -> pos:int -> del:int -> ins:string -> t
(** Re-chunks only the leaves around the edit (copy-on-write, §4.3); the
    result is the tree {!create} builds for the edited bytes. *)

val update : t -> string -> t
(** [update base s] is [create] of [s] — the same root and chunk set —
    built as one {!splice} of the middle that differs from [base], found
    by comparing [s] with [base]'s leaf payloads. *)

val diff_region : t -> t -> ((int * int) * (int * int)) option
(** [None] when equal, otherwise [Some ((p, len1), (p, len2))]: after the
    longest common prefix [p], the middles left once the longest common
    suffix of the rest is trimmed. *)

val chunk_count : t -> int
val height : t -> int
val verify : t -> bool
