(** Wire protocol for the ForkBase network service (§4.1: the engine "can
    be used as an embedded storage or run as a distributed service").

    Messages are length-prefixed (fixed 4-byte big-endian frame length)
    followed by a body whose layout lives in one case table per message
    type ([wire.ml]): each {!request}, {!response} and {!value}
    constructor is one {!Fbutil.Codec.case} giving its tag byte and field
    layout, the encoder is an exhaustive match over the type, and the
    decoder dispatches on the tag through the table those cases fill in.
    Values travel as a tag plus their elements (raw bytes for blobs and
    strings, length-prefixed element lists for List/Map/Set); the server
    rebuilds the chunkable object locally, mirroring how a ForkBase client
    ships buffered updates to its servlet.  Decoders are total: malformed
    input raises {!Fbutil.Codec.Corrupt} and nothing else. *)

type value =
  | Str of string
  | Blob of string
  | List of string list
  | Map of (string * string) list
  | Set of string list

type shard_map = {
  version : int;
      (** monotonically increasing; every map install carries a strictly
          larger version than the one it replaces, so a client comparing
          versions always knows which map is fresher *)
  shards : (string * int) array;
      (** [(host, port)] of each shard, indexed by shard number; a key's
          home shard is [Fbcluster.Partition.servlet_of_key
          ~servlets:(Array.length shards) key] *)
  pending : string list;
      (** keys currently migrating during a rebalance: every shard fences
          them (answers [Retry]) until a follow-up map with an empty
          [pending] lifts the fence.  Empty outside rebalances. *)
}
(** The cluster partition map, a first-class versioned artifact: shards
    gossip it via [Get_map]/[Set_map], carry its version in {!stats}, and
    clients detect staleness when a routed request answers [Redirect]. *)

type request =
  | Put of { key : string; branch : string; context : string; value : value }
  | Get of { key : string; branch : string }
  | Get_version of { uid : Fbchunk.Cid.t }
  | Fork of { key : string; from_branch : string; new_branch : string }
  | Merge of { key : string; target : string; ref_branch : string; resolver : string }
  | Track of { key : string; branch : string; lo : int; hi : int }
  | List_keys
  | List_branches of { key : string }
  | Verify of { uid : Fbchunk.Cid.t }
  | Stats  (** chunk-store counters plus key/branch counts *)
  | Checkpoint
      (** checkpoint + compact a durable server store; answered with
          [Reclaimed] *)
  | Pull_journal of { from_seq : int }
      (** replication: journal entries after [from_seq]; answered with
          [Journal_batch] by a journaled (durable) server *)
  | Fetch_chunks of { cids : Fbchunk.Cid.t list }
      (** replication backfill: the serialized chunks for [cids] that the
          server holds; answered with [Chunks] *)
  | Get_map  (** the shard's current partition map; answered with [Map_r] *)
  | Set_map of { map : shard_map }
      (** install a strictly newer partition map on a shard (rebalance
          driver only); stale versions answer [Error] *)
  | Push_chunks of { chunks : string list }
      (** rebalance/scatter: store these {!Fbchunk.Chunk.encode}d chunks
          (at most {!Server.max_fetch_chunks} per request); content
          addressing makes this idempotent *)
  | Restore_branch of { key : string; branch : string; uid : Fbchunk.Cid.t }
      (** install a branch head whose object closure was pushed first
          (rebalance/scatter); validated + journaled via
          [Db.restore_branch] *)
  | Export_key of { key : string }
      (** tagged branches of [key] regardless of ownership (rebalance
          reads from the losing shard); answered with [Branches] *)
  | Quit  (** shut the server down (tests and orderly teardown) *)

type stats = {
  chunks : int;
  bytes : int;
  puts : int;
  dedup_hits : int;
  gets : int;
  misses : int;
  keys : int;
  branches : int;  (** tagged branches over all keys *)
  journal_seq : int;
      (** sequence of the last committed journal entry; [0] for a
          volatile store.  Replication lag between a primary and a
          follower is the difference of their [journal_seq]s. *)
  journal_bytes : int;  (** on-disk branch-journal size; [0] if volatile *)
  accepted : int;  (** connections accepted since the server started *)
  active : int;  (** connections currently open *)
  closed_ok : int;  (** orderly closes (peer finished, or server drained) *)
  closed_err : int;
      (** faulted closes: peer vanished mid-frame, protocol violation,
          oversized frame, socket error *)
  frames_in : int;
  frames_out : int;
  timeouts : int;  (** idle connections reaped by the server *)
  group_commits : int;
      (** batched fsyncs performed by the server's group-commit path *)
  acks_released : int;
      (** durable-write acknowledgements released by group commits (reads
          parked behind them are not counted); divided by
          [group_commits] this is the amortization factor (acks per
          fsync) *)
  shard_index : int;
      (** this server's index in the partition map; [-1] when the server
          is not part of a sharded cluster *)
  map_version : int;
      (** version of the shard's installed partition map; [0] when not a
          shard.  A dispatcher comparing this across shards can spot a
          half-installed map. *)
}
(** Chunk-store / db counters plus the serving-side connection counters.
    The connection counters are all zero when the stats describe an
    embedded db rather than a running {!Server}. *)

type response =
  | Uid of Fbchunk.Cid.t
  | Value of value
  | Ok_unit
  | Keys of string list
  | Branches of (string * Fbchunk.Cid.t) list
  | History of (int * Fbchunk.Cid.t) list
  | Bool of bool
  | Stats_r of stats
  | Reclaimed of { chunks : int; bytes : int }
  | Journal_batch of { primary_seq : int; entries : string list }
      (** [entries] are {!Fbpersist.Journal.encode_entry} bodies (sequence
          number + records) with sequence > the pulled [from_seq], in
          append order; [primary_seq] is the server's current journal
          sequence, so [primary_seq - last shipped seq] is the remaining
          lag. *)
  | Chunks of string list
      (** {!Fbchunk.Chunk.encode}d chunks for the requested cids that the
          server holds; requested cids it does not hold are simply absent
          (the puller re-pulls — the chunks may have been compacted away
          along with the journal positions that referenced them). *)
  | Redirect of { host : string; port : int }
      (** typed rejection, two senders: a read-only follower redirecting a
          write to its primary, or a shard redirecting a key it does not
          own to the key's home shard — the latter doubles as the client's
          stale-map signal (refresh the map, retry) *)
  | Map_r of shard_map  (** answer to [Get_map] *)
  | Retry of { reason : string }
      (** transient rejection: the key is fenced mid-rebalance (or the
          shard has no installed map yet).  The client backs off, refreshes
          its map, and retries; unlike [Error] nothing is wrong. *)
  | Error of string

val encode_request : request -> string
val decode_request : string -> request

val decode_request_sub : string -> pos:int -> len:int -> request
(** [decode_request_sub s ~pos ~len] decodes the request in
    [s.[pos .. pos+len)] without copying it out first, and never reads
    outside that range (see {!Fbutil.Codec.decode_sub}).  The decoded
    request shares no bytes with [s], so [s] may be reused afterwards. *)

type page_put = {
  key : string;
  branch : string;
  context : string;
  src : string;
  pos : int;
  len : int;  (** the page is [src.[pos .. pos+len)] *)
}
(** A [Put] of a [Blob] whose page is left where it lies. *)

val decode_page_put : string -> pos:int -> len:int -> page_put option
(** [decode_page_put s ~pos ~len] decodes a [Put] of a [Blob] in
    [s.[pos .. pos+len)] like {!decode_request_sub}, except that the page
    is not copied: it is returned as a span of [s] ([src == s]), valid
    only while [s] is.  Any other request is declined with [None], to be
    decoded by {!decode_request_sub}.  It reads only the tags and fields
    that decoder reads, so it raises {!Fbutil.Codec.Corrupt} exactly where
    that decoder does, trailing bytes included. *)

val encode_response : response -> string
val decode_response : string -> response

val encode_shard_map : shard_map -> string
(** Standalone codec for {!shard_map}, shared by the wire messages above
    and the shard's on-disk map file (see [Fbshard.Shard_map]). *)

val decode_shard_map : string -> shard_map
(** @raise Fbutil.Codec.Corrupt on malformed input. *)

(** {1 Framing} *)

exception Connection_closed
(** The peer is gone: raised instead of [EPIPE]/[ECONNRESET] escaping as an
    untyped [Unix_error] out of a blocking write. *)

val default_max_frame_bytes : int
(** 4 MiB.  Both sides reject frames whose header announces more than this
    (see {!read_frame}): a corrupt or hostile length must not force a
    multi-GiB allocation. *)

val ignore_sigpipe : unit -> unit
(** Set [SIGPIPE] to ignore (no-op off Unix).  Called by server and client
    setup so a peer closing mid-write surfaces as {!Connection_closed}
    rather than killing the process. *)

val header_bytes : int
(** Length of the frame header (4 bytes, big-endian body length). *)

val encode_frame : string -> string
(** [encode_frame body] is the header followed by [body] — the exact bytes
    [write_frame] puts on the wire, for callers managing their own write
    queues. *)

val response_frame : Buffer.t -> response -> string
(** [response_frame buf r] is [encode_frame (encode_response r)], built in
    [buf] (cleared first, reusable across calls) and copied out once: one
    allocation per frame instead of one per encoding step. *)

val frame_length : char -> char -> char -> char -> int
(** Decode the 4 header bytes into a body length. *)

val check_frame_length : max_frame_bytes:int -> int -> unit
(** @raise Fbutil.Codec.Corrupt when the announced length exceeds the limit. *)

val write_frame : Unix.file_descr -> string -> unit
(** @raise Connection_closed if the peer is gone.  Retries [EINTR]. *)

val read_frame : ?max_frame_bytes:int -> Unix.file_descr -> string option
(** [None] on a clean peer close (including a connection reset); retries
    [EINTR].  [max_frame_bytes] (default {!default_max_frame_bytes}) bounds
    the announced body length; violations raise [Fbutil.Codec.Corrupt]
    {e before} allocating the body buffer. *)

(** {1 Nonblocking wrappers}

    The {!Server} event loop's side of syscall discipline: raw
    [Unix.read]/[write]/[select]/[accept] are confined to this module (the
    [syscall-discipline] lint rule enforces it), so every
    [EINTR]/[EAGAIN]/reset case is classified exactly once.  All of these
    are total — they never raise. *)

type nb_read =
  | Nb_read of int  (** that many bytes landed in the buffer *)
  | Nb_eof  (** orderly peer close *)
  | Nb_nothing  (** [EAGAIN]/[EWOULDBLOCK]/[EINTR]: retry after select *)
  | Nb_read_error  (** the connection is unusable; close it *)

val read_nb : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> nb_read
(** Read once into [buf.[pos .. pos+len)] from a nonblocking socket. *)

type nb_write =
  | Nb_wrote of int  (** a (possibly partial) write succeeded *)
  | Nb_blocked  (** [EAGAIN]/[EWOULDBLOCK]: wait for writability *)
  | Nb_write_error  (** the connection is unusable; close it *)

val write_nb : Unix.file_descr -> string -> pos:int -> len:int -> nb_write
(** Write once from [s.[pos..pos+len)]; retries [EINTR] internally.  The
    source is a string, so an encoded frame goes out without a copy. *)

val no_delay : Unix.file_descr -> unit
(** Switch Nagle's algorithm off ([TCP_NODELAY]); a no-op on a socket
    that refuses the option.  Both ends of every ForkBase connection set
    it: a write that Nagle holds back waits for the peer's delayed ACK
    (~40 ms) whenever the peer has nothing of its own to send. *)

val accept_nb :
  Unix.file_descr -> (Unix.file_descr * Unix.sockaddr) option
(** Accept once from a nonblocking listener; [None] when nothing usable
    was accepted (would-block, interrupted, or a transient accept error) —
    the select loop simply comes back.  An accepted TCP socket has
    [TCP_NODELAY] set (see {!no_delay}). *)

val select_nb :
  Unix.file_descr list ->
  Unix.file_descr list ->
  float ->
  Unix.file_descr list * Unix.file_descr list
(** [Unix.select] restricted to (reads, writes) with [EINTR] surfacing as
    an empty round rather than an exception. *)
