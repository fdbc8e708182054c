(* Multi-client serving throughput over the real TCP server.  One server
   process runs the select event loop over an in-memory db; 1/4/16
   concurrent client processes each run a closed-loop put+get workload on
   private keys; each row is the median of several runs.  Two more rows
   pipeline reads of one 64 KiB Blob page and puts of 64-byte edits to
   it, the shape of perfbench's wiki bulk-get and bulk-put rounds, and a
   last one times synchronous client puts of a page larger than one
   write with and without Nagle's algorithm.  The durable served path
   (group-commit fsyncs, acks per fsync) is measured by perfbench's kv
   workload. *)

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

(* One connection writes [in_flight] gets of a 64 KiB page in one write,
   then reads and decodes every answer; [rounds] times. *)
let page_reads ~rounds ~in_flight =
  let server = spawn_server () in
  let port = Procs.port server in
  let c = Client.connect ~retries:20 ~port () in
  let page = Workload.Text_edit.initial_page ~seed:1L ~size:65536 in
  let (_ : Fbchunk.Cid.t) = Client.put c ~key:"page" (Wire.Blob page) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let get =
    Wire.encode_frame (Wire.encode_request (Wire.Get { key = "page"; branch = "master" }))
  in
  let batch = String.concat "" (List.init in_flight (fun _ -> get)) in
  let elapsed, () =
    Bench_util.time_it (fun () ->
        for _ = 1 to rounds do
          ignore (Unix.write_substring fd batch 0 (String.length batch));
          for _ = 1 to in_flight do
            match Option.map Wire.decode_response (Wire.read_frame fd) with
            | Some (Wire.Value (Wire.Blob b)) when String.length b = String.length page -> ()
            | _ -> failwith "page read: wrong answer"
          done
        done)
  in
  Unix.close fd;
  Client.quit_server c;
  Client.close c;
  Procs.reap server;
  float_of_int (rounds * in_flight) /. elapsed

(* [page] with its [n]th 64-byte overwrite. *)
let edit_page page n =
  let pos = n * 7919 mod (String.length page - 64) in
  let patch = String.make 64 (Char.chr (Char.code 'a' + (n mod 26))) in
  Workload.Text_edit.apply page (Workload.Text_edit.Overwrite (pos, patch))

(* One connection writes [in_flight] puts of a 64 KiB page in one write,
   each the one before with one more 64-byte overwrite, then reads every
   uid; [rounds] times.  Only the writes and reads are timed: the batch is
   encoded between them. *)
let page_puts ~rounds ~in_flight =
  let server = spawn_server () in
  let port = Procs.port server in
  let c = Client.connect ~retries:20 ~port () in
  let page = ref (Workload.Text_edit.initial_page ~seed:1L ~size:65536) in
  let (_ : Fbchunk.Cid.t) = Client.put c ~key:"page" (Wire.Blob !page) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Wire.no_delay fd;
  let edits = ref 0 in
  let put () =
    incr edits;
    page := edit_page !page !edits;
    Wire.encode_frame
      (Wire.encode_request
         (Wire.Put { key = "page"; branch = "master"; context = ""; value = Wire.Blob !page }))
  in
  let elapsed = ref 0. in
  for _ = 1 to rounds do
    let batch = String.concat "" (List.init in_flight (fun _ -> put ())) in
    let t, () =
      Bench_util.time_it (fun () ->
          ignore (Unix.write_substring fd batch 0 (String.length batch));
          for _ = 1 to in_flight do
            match Option.map Wire.decode_response (Wire.read_frame fd) with
            | Some (Wire.Uid _) -> ()
            | _ -> failwith "page put: not answered by a uid"
          done)
    in
    elapsed := !elapsed +. t
  done;
  (match Client.get c ~key:"page" with
  | Wire.Blob b when String.equal b !page -> ()
  | _ -> failwith "page put: the last put does not read back");
  Unix.close fd;
  Client.quit_server c;
  Client.close c;
  Procs.reap server;
  float_of_int (rounds * in_flight) /. !elapsed

(* Synchronous [Client.put]s of a [size]-byte page, each with one more
   64-byte overwrite: [reps] turns of [puts] puts on a connection with
   Nagle's algorithm on, then [puts] on one with [TCP_NODELAY], the
   setting [Client.connect] makes.  A frame over 64 KiB leaves in several
   writes, and Nagle can hold the last one until the server's delayed ACK
   (~40 ms).  Per setting: the puts that took over 30 ms, and puts/s. *)
let client_puts ~size ~puts ~reps =
  let server = spawn_server () in
  let port = Procs.port server in
  let page = ref (Workload.Text_edit.initial_page ~seed:1L ~size) in
  let edits = ref 0 in
  let totals = Array.make 2 (0, 0.) in
  let turn no_delay =
    let c = Client.connect ~retries:20 ~port () in
    Unix.setsockopt (Client.fd c) Unix.TCP_NODELAY no_delay;
    for _ = 1 to puts do
      incr edits;
      page := edit_page !page !edits;
      let t, (_ : Fbchunk.Cid.t) =
        Bench_util.time_it (fun () -> Client.put c ~key:"page" (Wire.Blob !page))
      in
      let i = Bool.to_int no_delay in
      let stalls, elapsed = totals.(i) in
      totals.(i) <- ((if t > 0.030 then stalls + 1 else stalls), elapsed +. t)
    done;
    Client.close c
  in
  for _ = 1 to reps do
    turn false;
    turn true
  done;
  let c = Client.connect ~retries:20 ~port () in
  Client.quit_server c;
  Client.close c;
  Procs.reap server;
  let per_setting (stalls, elapsed) = (stalls, float_of_int (reps * puts) /. elapsed) in
  (per_setting totals.(0), per_setting totals.(1))

(* Major-heap bytes one served page get allocates, response frame
   included: measured in process over the handler and the frame encoder. *)
let page_get_major_bytes () =
  let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
  let page = Workload.Text_edit.initial_page ~seed:1L ~size:65536 in
  let (_ : Fbchunk.Cid.t) =
    Forkbase.Db.put_blob db ~key:"page" ~pos:0 ~len:(String.length page) page
  in
  let buf = Buffer.create 16 in
  let get () =
    Wire.response_frame buf (Server.handle db (Wire.Get { key = "page"; branch = "master" }))
  in
  ignore (get ());
  let gets = 50 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to gets do
    ignore (Sys.opaque_identity (get ()))
  done;
  ((Gc.quick_stat ()).Gc.major_words -. before)
  *. float_of_int (Sys.word_size / 8) /. float_of_int gets

let page_gets scale =
  Bench_util.section "Remote serving: pipelined 64 KiB page reads (one connection)";
  let rounds = Bench_util.pick scale 16 64 and in_flight = 256 in
  let tput = page_reads ~rounds ~in_flight in
  let major = page_get_major_bytes () in
  Bench_json.metric ~name:"pipelined_page_gets_per_s" ~value:tput ~unit:"gets/s";
  Bench_json.metric ~name:"page_get_major_bytes" ~value:major ~unit:"B";
  Bench_util.row_header [ "rounds"; "in flight"; "gets/s"; "major B/get" ];
  Bench_util.row
    [ string_of_int rounds; string_of_int in_flight; Printf.sprintf "%.0f" tput;
      Printf.sprintf "%.0f" major ]

let page_puts_row scale =
  Bench_util.section "Remote serving: pipelined 64 KiB page puts, 64-byte edits (one connection)";
  let rounds = Bench_util.pick scale 4 16 and in_flight = 256 in
  let tput = page_puts ~rounds ~in_flight in
  Bench_json.metric ~name:"pipelined_page_puts_per_s" ~value:tput ~unit:"puts/s";
  Bench_util.row_header [ "rounds"; "in flight"; "puts/s" ];
  Bench_util.row [ string_of_int rounds; string_of_int in_flight; Printf.sprintf "%.0f" tput ]

let client_puts_row scale =
  Bench_util.section
    "Remote serving: synchronous client puts of a 1 MB page, Nagle vs TCP_NODELAY";
  let size = 1_000_000 and puts = Bench_util.pick scale 100 200 in
  let reps = Bench_util.pick scale 3 5 in
  let nagle, no_delay = client_puts ~size ~puts ~reps in
  Bench_util.row_header [ "client socket"; "puts"; "puts > 30 ms"; "puts/s" ];
  List.iter
    (fun (name, tag, (stalls, tput)) ->
      Bench_json.metric ~name:("client_put_stalls_" ^ tag) ~value:(float_of_int stalls)
        ~unit:"puts";
      Bench_json.metric ~name:("client_puts_per_s_" ^ tag) ~value:tput ~unit:"puts/s";
      Bench_util.row
        [ name; string_of_int (reps * puts); string_of_int stalls; Printf.sprintf "%.0f" tput ])
    [ ("Nagle", "nagle", nagle); ("TCP_NODELAY", "nodelay", no_delay) ]

let remote scale =
  Bench_util.section
    "Remote serving: multi-client throughput (select event loop)";
  let total_ops = Bench_util.pick scale 8_000 80_000 in
  let value_size = 128 and runs = Bench_util.pick scale 5 3 in
  Bench_util.row_header
    [ "#clients"; "ops"; "runs"; "median(Kops/s)"; "frames_in"; "closed_err" ];
  List.iter
    (fun clients ->
      (* the one-client figure swings ~2x from run to run on a 2-core
         host, so each row is a median *)
      let results = List.init runs (fun _ -> run_experiment ~clients ~total_ops ~value_size) in
      let throughput = Bench_util.percentile (Bench_util.sorted_of_list (List.map fst results)) 0.5 in
      let s = snd (List.hd results) in
      let closed_err = List.fold_left (fun n (_, s) -> n + s.Wire.closed_err) 0 results in
      Bench_json.metric
        ~name:(Printf.sprintf "in_memory_%d_clients_tput" clients)
        ~value:throughput ~unit:"ops/s";
      Bench_util.row
        [
          string_of_int clients;
          string_of_int total_ops;
          string_of_int runs;
          Printf.sprintf "%.1f" (throughput /. 1000.0);
          string_of_int s.Wire.frames_in;
          string_of_int closed_err;
        ])
    [ 1; 4; 16 ];
  page_gets scale;
  page_puts_row scale;
  client_puts_row scale
