(** Persistent storage: one append-only log file of framed records plus an
    in-memory cid → offset index for its chunks (§4.4).  Immutable chunks
    make a log-structured layout natural and give fast retrieval of
    consecutively generated POS-Tree chunks.

    The file is a sequence of records, each a varint length followed by a
    body.  A body whose first byte is a chunk tag is a serialized chunk; a
    body whose first byte is {!entry_tag} is an {e entry}, an opaque
    payload the layer above owns (lib/persist keeps its branch-table
    journal entries there).  Opening an existing file replays the log to
    rebuild the index, truncating a trailing torn record if the process
    died mid-append.

    Reads are served from a bounded in-memory copy of the chunks most
    recently appended or read ({!cache_budget} bytes, FIFO by insertion)
    before the file is touched.  Chunks are immutable and
    content-addressed, so a resident copy never goes stale; the flip side
    is that a live log keeps serving its cached bytes after the file rots
    underneath it — on-disk damage is caught at the next {!open_} (or by
    an fsck after reopening), not by a cache hit.  The cache belongs to
    one [t]: a reopened or freshly compacted log starts empty. *)

type t

exception
  Corrupt_log of { file : string; off : int; reason : string }
(** A length-complete record at byte [off] whose body does not decode —
    bit rot, as opposed to a torn tail (which is silently dropped). *)

val entry_tag : char
(** First body byte of an entry record ['J']; no chunk tag uses it. *)

val open_ : ?on_entry:(int -> string -> unit) -> string -> t
(** [open_ path] creates or re-opens the log at [path].  Replay calls
    [on_entry off payload] for every complete entry record, in log order,
    with the record's offset (what {!read_entry} takes) and its payload
    (the body after {!entry_tag}); the default ignores entries.

    Replay tolerates a torn {e tail} (crash mid-append) by truncating it,
    including a tail torn mid-length-header or whose length overruns the
    file.  A complete record that fails to decode anywhere else — a chunk
    body, or an entry payload [on_entry] rejects with
    {!Fbutil.Codec.Corrupt} — raises {!Corrupt_log} naming the offset. *)

val records : string -> (int * string) list
(** [(offset, body)] of every complete record in the framed file at
    [path], oldest first, without interpreting the bodies; an incomplete
    final record is ignored.
    @raise Corrupt_log on an implausible length header. *)

val close : t -> unit
(** Flushes and fsyncs before closing: a closed log is always durable. *)

val crash : t -> unit
(** Hand buffered appends to the OS and release the file descriptors
    {e without} the close-time fsync — a deterministic stand-in for
    SIGKILLing the process after the kernel took every append; combine
    with an explicit truncation to model a torn tail. *)

val store : t -> Chunk_store.t
(** The generic store interface over this log's chunk records.  A put
    buffers its record and never fsyncs; its stats count chunk records
    only, never entries. *)

val append_entry : t -> string -> int
(** Append one entry record carrying [payload] (buffered, like a chunk
    put) and return its offset.  {!flush} hands it and every chunk put
    before it to the OS in file order. *)

val read_entry : t -> int -> string
(** The payload of the entry record at offset [off] (one returned by
    {!append_entry} or passed to [on_entry]). *)

val flush : t -> unit
(** Push buffered appends to the OS (survives a process crash). *)

val sync : t -> unit
(** [flush] plus [fsync]: survives power loss.  The only fsync of a log
    besides {!close}. *)

val path : t -> string
val file_size : t -> int

val entry_bytes : t -> int
(** Bytes of the log's entry records, framing included. *)

val cache_budget : int
(** Bound on the serialized bytes of chunks resident in a log's read
    cache (32 MiB).  A chunk larger than the budget is never cached. *)

val cached_bytes : t -> int
(** Serialized bytes currently resident in the read cache; never exceeds
    {!cache_budget}. *)
