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

val update : t -> pos:int -> len:int -> string -> t
(** [update base ~pos ~len s] is [create] of [s.[pos .. pos+len)] — the
    same root and chunk set — built as one {!splice} of the middle that
    differs from [base], found by comparing the span with [base]'s leaf
    payloads.  Only that middle is copied; nothing keeps [s] after the
    call, so [s] may be a buffer that is overwritten later.
    @raise Invalid_argument if the range is outside [s]. *)

val diff_region : t -> t -> ((int * int) * (int * int)) option
(** [None] when equal, otherwise [Some ((p, len1), (p, len2))]: after the
    longest common prefix [p], the middles left once the longest common
    suffix of the rest is trimmed. *)

val run_equal : back:bool -> string -> int -> string -> int -> int -> int
(** [run_equal ~back a ai b bi len]: how many bytes of [a] and [b] are
    equal running forward from [ai] and [bi], or backward from just before
    them when [back]; at most [len].  The compare behind {!update} and
    {!diff_region}, run by a C stub ([memcmp] over shrinking blocks).
    @raise Invalid_argument if a range is outside its string or [len] is
    negative. *)

module Reference : sig
  val run_equal : back:bool -> string -> int -> string -> int -> int -> int
  (** The same compare as an OCaml loop: what the stub is tested
      against. *)
end

val chunk_count : t -> int
val height : t -> int
val verify : t -> bool
