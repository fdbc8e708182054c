(** Pattern-Oriented-Split Tree (§4.3) — the index structure at the core of
    ForkBase.  A POS-Tree combines content-based slicing, a Merkle tree and
    a B+-tree:

    - node boundaries are defined by patterns detected in the content, so
      two trees holding the same element sequence have identical chunks and
      identical root cids regardless of how they were built (history
      independence), which makes deduplication and diff cheap;
    - every node is addressed by the cryptographic hash of its content, so
      the root cid authenticates the whole object (Merkle property);
    - index nodes carry split keys and element counts, so lookups by key or
      by position cost O(log n) like a B+-tree.

    Leaf boundaries use a rolling hash over the serialized element stream
    (pattern [P], §4.3.2), index boundaries use the low bits of child cids
    (pattern [P'], §4.3.3).  Both detectors reset at every boundary, so an
    edit re-chunks only until a produced boundary coincides with an old one
    (copy-on-write with O(edit + log n) work). *)

module type ELEM = sig
  type t

  val encode : Buffer.t -> t -> unit
  (** Writes at least one byte: a leaf that claims more elements than it
      has payload bytes is refused as corrupt. *)

  val decode : Fbutil.Codec.reader -> t

  val key : t -> string
  (** Search key for sorted containers; [""] for positional containers. *)

  val sorted : bool
  (** Whether elements are ordered by {!key}.  Positional containers
      ([false]) let the loader skip decoding leaf payloads entirely. *)

  val leaf_tag : Fbchunk.Chunk.tag
  val index_tag : Fbchunk.Chunk.tag
end

(** The one layout of an index node's payload, shared by every container
    and by the readers that follow chunk references ([Forkbase.Gc],
    [Fbcheck.Fsck]). *)
module Index : sig
  type entry = {
    cid : Fbchunk.Cid.t;  (** the child chunk *)
    count : int;  (** elements in the child's subtree *)
    span : int;  (** entries in the child chunk itself *)
    last_key : string;
        (** largest key in the subtree; [""] in positional containers *)
  }

  val codec : entry list Fbutil.Codec.t
  (** A varint entry count, then per entry the 32 cid bytes, [count] and
      [span] as varints and the length-prefixed [last_key].  A count the
      payload cannot hold fails on the first missing entry with
      {!Fbutil.Codec.Corrupt}. *)
end

module Make (E : ELEM) : sig
  type t
  (** Immutable handle: all update operations return a new tree sharing
      unchanged chunks with the old one. *)

  type elem = E.t

  (** {1 Construction and identity} *)

  val empty : Fbchunk.Chunk_store.t -> Tree_config.t -> t
  val of_elements : Fbchunk.Chunk_store.t -> Tree_config.t -> elem Seq.t -> t
  val of_list : Fbchunk.Chunk_store.t -> Tree_config.t -> elem list -> t

  val of_unsorted : Fbchunk.Chunk_store.t -> Tree_config.t -> elem list -> t
  (** Bulk build of a sorted tree from elements in any order, the last of
      duplicate keys winning: the tree [set_sorted_many (empty ...)] gives,
      without storing [empty]'s leaf. *)

  val of_bytes : Fbchunk.Chunk_store.t -> Tree_config.t -> string -> t
  (** Bulk build from a flat byte string where each byte is one element
      (Blob).  Produces exactly the same tree as {!of_elements} over the
      bytes, an order of magnitude faster.  Only valid when every element
      encodes to exactly one payload byte. *)

  val of_root : Fbchunk.Chunk_store.t -> Tree_config.t -> Fbchunk.Cid.t -> t
  (** Load an existing tree.  Index nodes are decoded eagerly (they are the
      tree's skeleton); leaf payloads are fetched on demand.  Each index
      chunk is fetched once, plus leaf 0 to find where the index levels
      end.
      @raise Fbchunk.Chunk_store.Missing_chunk if the skeleton is incomplete.
      @raise Fbutil.Codec.Corrupt if a chunk claims more elements or
      entries than its payload holds. *)

  val root : t -> Fbchunk.Cid.t
  (** The root cid — a tamper-evident digest of the whole content. *)

  val length : t -> int
  val height : t -> int
  (** Number of levels (1 = a single leaf). *)

  val equal : t -> t -> bool
  (** Content equality, decided in O(1) by comparing root cids. *)

  (** {1 Reading} *)

  val get : t -> int -> elem
  (** @raise Invalid_argument when out of bounds. *)

  val slice : t -> pos:int -> len:int -> elem list

  val iter_slice : t -> pos:int -> len:int -> (elem -> unit) -> unit
  (** Like {!slice} without materializing the list. *)

  val iter_leaf_payloads :
    t -> pos:int -> len:int -> (string -> off:int -> take:int -> unit) -> unit
  (** Visit the raw leaf payload slices covering elements [pos, pos+len)
      without decoding them.  Only valid when every element encodes to
      exactly one payload byte (the Blob element); Fblob uses this to read
      at memcpy speed. *)

  val leaf_count : t -> int

  val leaf_bytes : t -> int -> string * int * int
  (** [leaf_bytes t i] is leaf [i]'s raw payload with the offset and
      length of its element bytes in it.  Same single-byte caveat as
      {!iter_leaf_payloads}. *)

  val to_seq : t -> elem Seq.t

  val seq_from : t -> pos:int -> elem Seq.t
  (** Iterator positioned at an arbitrary element (§3.4: "Iterator
      interfaces are provided to efficiently traverse large objects");
      leaves are fetched lazily as the sequence is consumed. *)

  val seq_from_key : t -> string -> elem Seq.t
  (** Iterator positioned at the first element whose key is >= the given
      key (sorted containers). *)

  val to_list : t -> elem list
  val fold : ('a -> elem -> 'a) -> 'a -> t -> 'a

  (** {1 Positional updates} *)

  val splice : t -> pos:int -> del:int -> ins:elem list -> t
  (** Replace [del] elements starting at [pos] with [ins].
      @raise Invalid_argument when the range is out of bounds. *)

  val splice_many : t -> (int * int * elem list) list -> t
  (** Apply several [(pos, del, ins)] edits (positions in the original
      tree, sorted, non-overlapping) in one re-chunking pass.  Used to
      batch e.g. all writes of a blockchain commit. *)

  val append : t -> elem list -> t

  val splice_bytes : t -> pos:int -> del:int -> ins:string -> t
  (** {!splice} for single-byte elements (Blob), fed as substrings through
      the {!of_bytes} cut loop: it re-chunks from the start of the leaf
      holding [pos] until a cut lands on an old leaf start past the edit,
      reading old bytes from the base's leaf payloads.  Gives the tree
      {!of_bytes} builds for the edited bytes.
      @raise Invalid_argument when the range is out of bounds. *)

  (** {1 Sorted access (Map / Set containers)} *)

  val find : t -> string -> elem option
  (** Binary search by {!E.key}; meaningful only if elements are sorted. *)

  val position_of_key : t -> string -> [ `Found of int | `Insert_at of int ]
  val set_sorted : t -> elem -> t
  (** Insert, or replace the element with an equal key. *)

  val set_sorted_many : t -> elem list -> t
  (** Batched {!set_sorted}; input need not be sorted. *)

  val remove_sorted : t -> string -> t
  (** No-op when the key is absent. *)

  (** {1 Structure} *)

  val leaf_cids : t -> Fbchunk.Cid.t array

  val chunk_count : t -> int
  (** Total chunks (leaves + index nodes) reachable from the root. *)

  val stored_bytes : t -> int
  (** Serialized size of all reachable chunks (no dedup accounting). *)

  val verify : t -> bool
  (** Re-hash every reachable chunk against the cid that references it —
      the client-side tamper-evidence check. *)

  val diff_leaves : t -> t -> Fbchunk.Cid.Set.t
  (** Leaf cids present in the first tree but not the second: the physical
      delta an update produced. *)

  val diff_region : t -> t -> ((int * int) * (int * int)) option
  (** Coarse structural diff: [None] when equal, otherwise
      [Some ((pos1, len1), (pos2, len2))], the smallest differing middle
      region after skipping shared leaf prefixes and suffixes. *)

  val diff_sorted :
    t -> t -> [ `Left of elem | `Right of elem | `Changed of elem * elem ] list
  (** Key-wise diff of two sorted trees: elements only in the first
      ([`Left]), only in the second ([`Right]), or present in both with
      different content ([`Changed (old, new)]).  Whole identical leaves
      are skipped by cid comparison without being decoded. *)
end
