(* Multi-client serving throughput over the real TCP server.  One server
   process runs the select event loop over an in-memory db; 1/4/16
   concurrent client processes each run a closed-loop put+get workload on
   private keys.  The durable served path (group-commit fsyncs, acks per
   fsync) is measured by perfbench's kv workload. *)

module Server = Fbremote.Server
module Client = Fbremote.Client
module Wire = Fbremote.Wire

module Procs = Fbremote.Procs

let spawn_server () =
  Procs.spawn (fun listen_fd ->
      let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
      ignore (Server.serve db listen_fd : Server.counters))

(* One client process: [ops] round trips, alternating put and get. *)
let client_loop ~port ~id ~ops ~value_size =
  let c = Client.connect ~retries:20 ~port () in
  let key = Printf.sprintf "bench-%d" id in
  let payload = String.make value_size 'x' in
  for i = 1 to ops / 2 do
    let (_ : Fbchunk.Cid.t) =
      Client.put c ~key (Wire.Str (payload ^ string_of_int i))
    in
    ignore (Client.get c ~key)
  done;
  Client.close c

let run_experiment ~clients ~total_ops ~value_size =
  let server = spawn_server () in
  let port = Procs.port server in
  let ops = total_ops / clients in
  let elapsed, () =
    Bench_util.time_it (fun () ->
        let pids =
          List.init clients (fun id ->
              match Unix.fork () with
              | 0 ->
                  (try client_loop ~port ~id ~ops ~value_size with _ -> ());
                  Unix._exit 0
              | pid -> pid)
        in
        List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids)
  in
  (* orderly teardown so the next round starts from a fresh server *)
  let c = Client.connect ~retries:20 ~port () in
  let stats = Client.stats c in
  Client.quit_server c;
  Client.close c;
  Procs.reap server;
  let done_ops = clients * (ops / 2) * 2 in
  (float_of_int done_ops /. elapsed, stats)

let remote scale =
  Bench_util.section
    "Remote serving: multi-client throughput (select event loop)";
  let total_ops = Bench_util.pick scale 8_000 80_000 in
  let value_size = 128 in
  Bench_util.row_header
    [ "#clients"; "ops"; "throughput(Kops/s)"; "frames_in"; "closed_err" ];
  List.iter
    (fun clients ->
      let throughput, s = run_experiment ~clients ~total_ops ~value_size in
      Bench_json.metric
        ~name:(Printf.sprintf "in_memory_%d_clients_tput" clients)
        ~value:throughput ~unit:"ops/s";
      Bench_util.row
        [
          string_of_int clients;
          string_of_int total_ops;
          Printf.sprintf "%.1f" (throughput /. 1000.0);
          string_of_int s.Wire.frames_in;
          string_of_int s.Wire.closed_err;
        ])
    [ 1; 4; 16 ]
