(** FObject — a node of the object derivation graph (§3.1, Figure 2).

    Each FObject is serialized into a [Meta] chunk; its [uid] is that
    chunk's cid.  Because the [bases] field stores the uids of the versions
    it derives from, the uid authenticates both the object value and its
    entire derivation history (§3.2): the storage cannot claim a version
    belongs to an object's history unless it hash-chains to it. *)

type t = {
  kind : Fbtypes.Value.kind;  (** object type *)
  key : string;  (** object key *)
  data : string;  (** inline primitive bytes, or the POS-Tree root cid *)
  depth : int;  (** distance to the first version *)
  bases : Fbchunk.Cid.t list;  (** versions it derives from *)
  context : string;  (** reserved for application metadata *)
}

val v :
  kind:Fbtypes.Value.kind ->
  key:string ->
  data:string ->
  depth:int ->
  bases:Fbchunk.Cid.t list ->
  context:string ->
  t

val of_value :
  key:string ->
  ?context:string ->
  bases:(Fbchunk.Cid.t * t) list ->
  Fbtypes.Value.t ->
  t
(** Build the successor FObject of [bases] holding [value]; [depth] is
    1 + the maximum base depth.  Each base comes with its uid, which the
    caller already holds (it loaded the base by it), so no base meta
    chunk is re-hashed. *)

val to_chunk : t -> Fbchunk.Chunk.t
val of_chunk : Fbchunk.Chunk.t -> t
(** @raise Fbutil.Codec.Corrupt on malformed meta chunks. *)

val uid : t -> Fbchunk.Cid.t
(** The tamper-evident version number: cid of the meta chunk. *)

val store : Fbchunk.Chunk_store.t -> t -> Fbchunk.Cid.t
(** Persist the meta chunk; returns the uid. *)

val load : Fbchunk.Chunk_store.t -> Fbchunk.Cid.t -> t option
(** [None] when the uid is unknown.
    @raise Fbutil.Codec.Corrupt if the chunk is not a meta chunk. *)

val value :
  Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> t -> Fbtypes.Value.t
(** Reconstruct the value handle described by this FObject. *)
