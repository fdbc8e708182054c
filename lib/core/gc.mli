(** The chunk graph, and garbage collection over it.

    A version's uid is the root of a Merkle DAG (§4.2, §4.3): a meta
    chunk references its bases and its value's POS-Tree root, an index
    chunk references its children, a leaf references nothing.  {!walk}
    follows that graph once for every user of it: the collector's mark
    phase below, a follower's journal backfill ([Fbreplica.Replica]) and
    the rebalancer's closure copy ([Fbshard.Dispatch]).

    Content-addressed chunks are immutable and shared, so nothing can be
    deleted in place; instead, liveness is defined by reachability from
    the branch tables: every tagged and untagged head, its full derivation
    history (versioning keeps history readable), and every POS-Tree chunk
    those versions reference.  Chunks become garbage only when branches
    are removed ([Remove], M14) or untagged heads are merged away.

    [sweep] copies the live set into a fresh store — the natural collection
    strategy for a log-structured layout (write a compacted log, swap). *)

val children : Fbchunk.Chunk.t -> Fbchunk.Cid.t list
(** The cids a chunk references: a meta chunk's bases, then its value
    root (none for a primitive); an index chunk's entries; nothing for a
    leaf.
    @raise Fbutil.Codec.Corrupt if the chunk does not decode. *)

val walk :
  ?local:Fbchunk.Chunk_store.t ->
  ?fetch:(Fbchunk.Cid.t list -> Fbchunk.Chunk.t list) ->
  ?batch:int ->
  (Fbchunk.Chunk.t -> unit) ->
  Fbchunk.Cid.t list ->
  unit
(** [walk ?local ?fetch ?batch visit roots] calls [visit] once on every
    chunk of the closure of [roots] and follows its {!children}.  A chunk
    [local] holds is read there; the cids it lacks go to [fetch], at most
    [batch] per call (default: all known at the time), which returns the
    chunks it could find.  A cid neither resolves is skipped, and so is
    whatever only it references.  By default nothing is local and nothing
    is fetched. *)

val sweep : Db.t -> into:Fbchunk.Chunk_store.t -> int * int
(** Copy every chunk reachable from the branch tables into [into] during
    the mark walk; returns [(live_chunks, live_bytes)].  The source store
    is left untouched.  A chunk missing from the source costs only what
    it alone references: the rest of its tree is still copied. *)

val garbage_stats : Db.t -> int * int
(** [(garbage_chunks, garbage_bytes)]: what a sweep would reclaim,
    computed against the source store's totals. *)
