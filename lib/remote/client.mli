(** A blocking ForkBase network client over the {!Wire} protocol. *)

type t

exception Redirected of string * int
(** Raised by the typed conveniences on a {!Wire.Redirect} answer: a
    read-only follower refusing a write (retry against the primary at
    [(host, port)]), or a shard refusing a key it does not own (refresh
    the partition map and retry against the key's home shard). *)

exception Busy of string
(** Raised by the typed conveniences on a {!Wire.Retry} answer: a
    transient refusal (the key is fenced mid-rebalance, or the shard has
    no installed map yet).  Back off and retry; nothing is wrong. *)

exception Unknown_host of string
(** [connect]'s host resolves to nothing (neither a dotted quad nor a
    known name). *)

exception Disconnected
(** The server closed the connection, whether detected mid-write
    ([EPIPE]/[ECONNRESET], surfaced as {!Wire.Connection_closed}) or as
    EOF before the response. *)

exception Remote_failure of string
(** The server answered with a {!Wire.Error} (unknown branch, merge
    conflict, non-durable store asked to checkpoint, ...); the payload is
    ["call: server message"]. *)

exception Protocol_error of string
(** The response decoded but had the wrong shape for the request — a
    protocol bug or a hostile peer, never a routine refusal. *)

val connect :
  ?host:string ->
  ?retries:int -> ?backoff:float -> ?max_backoff:float -> port:int -> unit -> t
(** Connect to a {!Server} at [host] (default 127.0.0.1; a dotted quad or
    a resolvable name).  A transient [ECONNREFUSED] (typically a race
    against server startup) is retried up to [retries] times (default 0),
    sleeping [backoff] seconds (default 0.02) doubled after every attempt
    and capped at [max_backoff] (default 1.0).  The socket has
    [TCP_NODELAY] set, as the server's are ({!Wire.no_delay}). *)

val fd : t -> Unix.file_descr
(** The connected socket, for inspecting or changing its options. *)

val close : t -> unit
val call : t -> Wire.request -> Wire.response
(** One request/response round trip.
    @raise Disconnected if the server closed the connection. *)

(** Typed conveniences.
    @raise Remote_failure on an [Error] response
    @raise Protocol_error on a mis-shaped response
    @raise Disconnected if the server closed the connection
    @raise Redirected when a follower refuses a write or a shard refuses
           a key it does not own
    @raise Busy on a transient [Retry] refusal *)

val put :
  ?branch:string -> ?context:string -> t -> key:string -> Wire.value ->
  Fbchunk.Cid.t

val get : ?branch:string -> t -> key:string -> Wire.value

val get_version : t -> Fbchunk.Cid.t -> Wire.value
(** Fetch a specific historical version by its commit uid, bypassing
    branch-head resolution. *)

val fork : t -> key:string -> from_branch:string -> new_branch:string -> unit
val merge :
  ?resolver:string -> t -> key:string -> target:string -> ref_branch:string ->
  Fbchunk.Cid.t
val track : ?branch:string -> t -> key:string -> lo:int -> hi:int ->
  (int * Fbchunk.Cid.t) list
val list_keys : t -> string list
val list_branches : t -> key:string -> (string * Fbchunk.Cid.t) list
val verify : t -> Fbchunk.Cid.t -> bool

val stats : t -> Wire.stats

val checkpoint : t -> int * int
(** Ask a durable server to checkpoint + compact; reclaimed
    (chunks, bytes). *)

val pull_journal : t -> from_seq:int -> int * string list
(** Replication pull: [(primary_seq, entries)] where [entries] are encoded
    journal entries with sequence > [from_seq] (see
    {!Wire.response.Journal_batch}). *)

val fetch_chunks : t -> Fbchunk.Cid.t list -> string list
(** Replication backfill: the encoded chunks for the requested cids that
    the server holds (absent cids are silently omitted). *)

val get_map : t -> Wire.shard_map
(** The shard's installed partition map. *)

val set_map : t -> Wire.shard_map -> unit
(** Install a strictly newer partition map (rebalance driver only).
    @raise Remote_failure when the map's version is not newer than the
           installed one. *)

val push_chunks : t -> string list -> unit
(** Store encoded chunks on the shard (at most
    {!Server.max_fetch_chunks} per call); idempotent under content
    addressing. *)

val restore_branch : t -> key:string -> branch:string -> Fbchunk.Cid.t -> unit
(** Install a branch head whose closure was pushed first (the server
    validates the head resolves before journaling it). *)

val export_key : t -> key:string -> (string * Fbchunk.Cid.t) list
(** Tagged branches of [key] regardless of shard ownership (rebalance
    reads from the losing shard). *)

val quit_server : t -> unit
