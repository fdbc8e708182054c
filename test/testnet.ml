(* Shared plumbing for the test suites: temp store directories plus
   child-process servers on kernel-assigned ephemeral ports.  The port
   discipline lives in Fbremote.Procs — bind port 0 in the parent, read
   the real port back, then fork — so concurrent test binaries never
   collide on a fixed port, and a killed server can respawn on the same
   one. *)

module Procs = Fbremote.Procs
module Proc = Fbreplica.Proc
module Server = Fbremote.Server

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh directory for [f], removed afterwards; pid + counter names
   never collide within or across test processes. *)
let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fbtestnet-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_temp_dirs2 f =
  with_temp_dir (fun a -> with_temp_dir (fun b -> f a b))

let with_proc t f =
  Fun.protect ~finally:(fun () -> Procs.kill t) (fun () -> f (Procs.port t))

(* An in-memory (volatile) server child, as test_remote drives: enough
   for protocol-level tests that never reopen the store. *)
let with_mem_server ?config f =
  with_proc
    (Procs.spawn (fun listen_fd ->
         let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
         ignore (Server.serve ?config db listen_fd : Server.counters)))
    f

(* A durable primary child serving [dir], as `forkbase serve` runs it
   (journal hooks, compaction trigger, group commit). *)
let with_primary ?port dir f = with_proc (Proc.spawn_primary ?port ~dir ()) f

(* A serving catch-up follower child, as `forkbase follow` runs it. *)
let with_follower_server ~fdir ~primary_port f =
  with_proc
    (Proc.spawn_follower ~dir:fdir ~host:"127.0.0.1" ~primary_port ())
    f
