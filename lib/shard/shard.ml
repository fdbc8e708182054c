module Persist = Fbpersist.Persist
module Server = Fbremote.Server
module Procs = Fbremote.Procs
module Partition = Fbcluster.Partition

let route ~servlets key = Partition.servlet_of_key ~servlets key

(* The map a (re)starting shard serves under: the newest of the one it was
   handed and the one its directory remembers — a SIGKILLed shard respawned
   with the original bootstrap map must not forget a rebalance it already
   installed. *)
let effective_map ~dir map =
  match Shard_map.load ~dir with
  | Some persisted when persisted.Shard_map.version > map.Shard_map.version ->
      persisted
  | Some _ | None -> map

let serve ?config ~self ~map p listen_fd =
  let dir = Persist.dir p in
  let shard =
    Server.shard_role ~self ~route
      ~persist_map:(fun m -> Shard_map.save ~dir m)
      (effective_map ~dir map)
  in
  Fbreplica.Proc.serve_primary ?config ~shard p listen_fd

(* A spawned shard's child: open the store, serve, close. *)
let child ?config ~dir ~self ~map listen_fd =
  let p = Persist.open_db dir in
  ignore (serve ?config ~self ~map p listen_fd : Server.counters);
  Persist.close p

let spawn ?port ?config ~dir ~self ~map () =
  Procs.spawn ?port (child ?config ~dir ~self ~map)

let spawn_cluster ?(host = "127.0.0.1") ?config ~dirs () =
  let listeners = List.map (fun _ -> Procs.listener ()) dirs in
  let map =
    Shard_map.create ~version:1
      (List.map (fun (_, port) -> (host, port)) listeners)
  in
  let procs =
    List.mapi
      (fun self (dir, listener) ->
        Procs.spawn_on listener (child ?config ~dir ~self ~map))
      (List.combine dirs listeners)
  in
  (procs, map)
