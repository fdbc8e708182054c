(* Replication read scaling (lib/replica): a fixed read workload against
   one primary alone, then split across the primary plus a caught-up
   serving follower.  The paper's motivation for followers is exactly
   this: reads scale out while the primary keeps exclusive ownership of
   writes.  Follower catch-up throughput is measured by perfbench's kv
   workload ([replica.entries_per_s]). *)

module Cid = Fbchunk.Cid
module Client = Fbremote.Client
module Wire = Fbremote.Wire
module Procs = Fbremote.Procs
module Proc = Fbreplica.Proc

(* Commit [ops] writes on the primary: small strings plus periodic
   multi-chunk blobs, so the follower backfills real chunks. *)
let load_primary c ~ops ~blob_every ~blob_size =
  for i = 1 to ops do
    let key = Printf.sprintf "k%d" (i mod 50) in
    let (_ : Cid.t) =
      if i mod blob_every = 0 then
        Client.put c ~key
          (Wire.Blob (String.init blob_size (fun j -> Char.chr ((i + j) land 0xff))))
      else Client.put c ~key (Wire.Str (Printf.sprintf "value-%d" i))
    in
    ()
  done

(* One reader process: closed-loop gets against [port]. *)
let reader_loop ~port ~ops =
  let c = Client.connect ~retries:20 ~port () in
  for i = 1 to ops do
    ignore (Client.get c ~key:(Printf.sprintf "k%d" (i mod 50)))
  done;
  Client.close c

let run_readers ~ports ~readers ~total_ops =
  let ops = total_ops / readers in
  let elapsed, () =
    Bench_util.time_it (fun () ->
        let pids =
          List.init readers (fun i ->
              let port = List.nth ports (i mod List.length ports) in
              match Unix.fork () with
              | 0 ->
                  (try reader_loop ~port ~ops with _ -> ());
                  Unix._exit 0
              | pid -> pid)
        in
        List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids)
  in
  float_of_int (readers * ops) /. elapsed

let replica scale =
  Bench_util.section
    "Replication: read scaling, primary alone vs primary + follower";
  let total_ops = Bench_util.pick scale 4_000 40_000 in
  let readers = 4 in
  Bench_util.row_header
    [ "servers"; "readers"; "reads"; "throughput(Kops/s)" ];
  Bench_util.with_temp_dir @@ fun pdir ->
  Bench_util.with_temp_dir @@ fun fdir ->
  let primary = Proc.spawn_primary ~dir:pdir () in
  let pport = Procs.port primary in
  Fun.protect ~finally:(fun () -> Procs.kill primary) @@ fun () ->
  let c = Client.connect ~retries:20 ~port:pport () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  load_primary c ~ops:200 ~blob_every:50 ~blob_size:20_000;
  let primary_seq = (Client.stats c).Wire.journal_seq in
  let follower =
    Proc.spawn_follower ~dir:fdir ~host:"127.0.0.1" ~primary_port:pport ()
  in
  let fport = Procs.port follower in
  Fun.protect ~finally:(fun () -> Procs.kill follower) @@ fun () ->
  (* wait for the follower to drain its lag before measuring *)
  let fc = Client.connect ~retries:20 ~port:fport () in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec await () =
    if (Client.stats fc).Wire.journal_seq >= primary_seq then ()
    else if Unix.gettimeofday () > deadline then
      failwith "bench_replica: follower never caught up"
    else begin
      Unix.sleepf 0.05;
      await ()
    end
  in
  await ();
  Client.close fc;
  List.iter
    (fun ports ->
      let throughput = run_readers ~ports ~readers ~total_ops in
      Bench_json.metric
        ~name:
          (Printf.sprintf "read_scaling_%d_servers_tput" (List.length ports))
        ~value:throughput ~unit:"ops/s";
      Bench_util.row
        [
          string_of_int (List.length ports);
          string_of_int readers;
          string_of_int total_ops;
          Printf.sprintf "%.1f" (throughput /. 1000.0);
        ])
    [ [ pport ]; [ pport; fport ] ];
  let qc = Client.connect ~retries:5 ~port:fport () in
  Client.quit_server qc;
  Client.close qc;
  Client.quit_server c

