(** One shard of a partitioned ForkBase cluster: a durable primary
    ({!Fbreplica.Proc.serve_primary}: group commit and replication hooks
    on) serving only the keys the partition map homes on it (everything
    else answers [Redirect]; keys fenced mid-rebalance answer [Retry]).
    A shard is also a valid primary for {!Fbreplica} followers, which is
    how per-shard read scaling works. *)

val serve :
  ?config:Fbremote.Server.config ->
  self:int ->
  map:Shard_map.t ->
  Fbpersist.Persist.t ->
  Unix.file_descr ->
  Fbremote.Server.counters
(** Serve the opened shard store [p] on [listen_fd] as shard [self].  The
    map actually served under is the newest of [map] and the one
    persisted in the store's directory (see {!Shard_map.save}) — a killed
    shard respawned with its original bootstrap map must not forget a
    rebalance it already installed.  The caller closes [p]. *)

val spawn :
  ?port:int ->
  ?config:Fbremote.Server.config ->
  dir:string ->
  self:int ->
  map:Shard_map.t ->
  unit ->
  Fbremote.Procs.t
(** Open the store in [dir] and {!serve} it in a forked child on a
    parent-bound listener ({!Fbremote.Procs.spawn}); [port] defaults to
    an ephemeral one, or pass the old port to model a supervisor restart
    after {!Fbremote.Procs.kill}. *)

val spawn_cluster :
  ?host:string ->
  ?config:Fbremote.Server.config ->
  dirs:string list ->
  unit ->
  Fbremote.Procs.t list * Shard_map.t
(** Spawn one shard per store directory: all listeners are bound first
    (ephemeral ports), the version-1 partition map is built from the
    assigned ports, and only then does each child fork with the complete
    map — no bootstrap window in which a shard serves without knowing
    its peers.  [host] (default ["127.0.0.1"]) is the address written
    into the map. *)
