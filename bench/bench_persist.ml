(* Durability experiments (lib/persist): the cost of journaled puts
   against the in-memory engine, durable read latency warm and right after
   a reopen, recovery (reopen) time with and without a checkpoint, and
   online compaction throughput.  Not a paper figure —
   ForkBase's evaluation runs on a durable store throughout; this isolates
   what that durability costs in our reproduction. *)

module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module U = Bench_util

let put_one db i =
  let (_ : Cid.t) =
    Db.put db
      ~key:(Printf.sprintf "k%d" (i mod 16))
      (Db.str (Printf.sprintf "value-%d" i))
  in
  ()

let fill db n =
  for i = 1 to n do
    put_one db i
  done

(* Journaled puts with one fsync per [batch] of them: deferred sync plus an
   explicit [Persist.sync], the way the server's group commit batches. *)
let fill_synced p ~batch n =
  Persist.set_deferred_sync p true;
  for i = 1 to n do
    put_one (Persist.db p) i;
    if i mod batch = 0 then Persist.sync p
  done

(* Durable reads of a 128-byte value (one meta chunk) and a 64 KiB page
   (meta chunk plus a POS-Tree), warm and as the first read after a reopen,
   i.e. with the chunk log's read cache empty. *)
let durable_gets scale =
  U.section "Durable get latency";
  let rng = Random.State.make [| 14 |] in
  let page = String.init 65536 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let value = String.make 128 'v' in
  U.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let (_ : Cid.t) = Db.put db ~key:"value" (Db.str value) in
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.blob db page) in
  Persist.close p;
  let read_value db =
    match Db.get db ~key:"value" with
    | Ok v when v = Db.str value -> ()
    | _ -> failwith "durable get: wrong value"
  in
  let read_page db =
    match Db.get db ~key:"page" with
    | Ok (Fbtypes.Value.Blob b) when Fbtypes.Fblob.to_string b = page -> ()
    | _ -> failwith "durable get: wrong page"
  in
  U.row_header [ "read"; "warm us/get"; "after reopen us/get" ];
  List.iter
    (fun (label, name, read, runs) ->
      let after_reopen =
        List.init (U.pick scale 20 100) (fun _ ->
            let p = Persist.open_db dir in
            let t, () = U.time_it (fun () -> read (Persist.db p)) in
            Persist.close p;
            t)
      in
      let after_reopen = U.percentile (U.sorted_of_list after_reopen) 0.5 in
      let p = Persist.open_db dir in
      let warm = U.time_avg ~runs (fun () -> read (Persist.db p)) in
      Persist.close p;
      U.row [ label; U.us warm; U.us after_reopen ];
      Bench_json.metric ~name:("durable_get_" ^ name ^ "_warm")
        ~value:(warm *. 1e6) ~unit:"us";
      Bench_json.metric ~name:("durable_get_" ^ name ^ "_after_reopen")
        ~value:(after_reopen *. 1e6) ~unit:"us")
    [
      ("128 B value", "value_128b", read_value, U.pick scale 20_000 200_000);
      ("64 KiB page", "page_64k", read_page, U.pick scale 500 5_000);
    ]

let durability scale =
  let n = U.pick scale 2_000 50_000 in

  U.section "Durable put throughput";
  U.row_header [ "backend"; "puts/s" ];
  let elapsed, () =
    U.time_it (fun () ->
        let db = Db.create (Fbchunk.Chunk_store.mem_store ()) in
        fill db n)
  in
  U.row [ "in-memory"; Printf.sprintf "%.0f" (float_of_int n /. elapsed) ];
  Bench_json.metric ~name:"in_memory_puts_per_sec"
    ~value:(float_of_int n /. elapsed) ~unit:"ops/s";
  List.iter
    (fun (label, metric_name, batch) ->
      U.with_temp_dir @@ fun dir ->
      let p = Persist.open_db dir in
      let elapsed, () = U.time_it (fun () -> fill_synced p ~batch n) in
      U.row [ label; Printf.sprintf "%.0f" (float_of_int n /. elapsed) ];
      Bench_json.metric ~name:metric_name
        ~value:(float_of_int n /. elapsed) ~unit:"ops/s";
      Persist.close p)
    [
      ("journal, fsync per op", "journal_fsync_per_op_puts_per_sec", 1);
      ("journal, fsync per 64 ops", "journal_fsync_per_64_puts_per_sec", 64);
    ];

  durable_gets scale;

  U.section "Recovery time (reopen + journal replay)";
  U.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  fill_synced p ~batch:64 n;
  Persist.close p;
  U.row_header [ "journal"; "entry bytes"; "reopen" ];
  let t_replay, p2 = U.time_it (fun () -> Persist.open_db dir) in
  U.row
    [
      Printf.sprintf "%d entries" n;
      U.human_bytes (Persist.journal_bytes p2);
      U.ms t_replay ^ "ms";
    ];
  Bench_json.metric ~name:"reopen_replay" ~value:(t_replay *. 1000.) ~unit:"ms";
  Bench_json.metric ~name:"journal_bytes"
    ~value:(float_of_int (Persist.journal_bytes p2))
    ~unit:"bytes";
  Persist.checkpoint p2;
  Persist.close p2;
  let t_ckpt, p3 = U.time_it (fun () -> Persist.open_db dir) in
  U.row
    [
      "checkpointed";
      U.human_bytes (Persist.journal_bytes p3);
      U.ms t_ckpt ^ "ms";
    ];
  Bench_json.metric ~name:"reopen_after_checkpoint" ~value:(t_ckpt *. 1000.)
    ~unit:"ms";

  U.section "Online compaction";
  (* orphan value trees (aborted operations) to create garbage *)
  let db = Persist.db p3 in
  for i = 1 to U.pick scale 50 500 do
    let (_ : Fbtypes.Value.t) = Db.blob db (String.make 8192 (Char.chr (i land 0xff))) in
    ()
  done;
  let garbage_chunks, garbage_bytes = Persist.garbage_stats p3 in
  let log_before = Persist.log_size p3 in
  let t_compact, (reclaimed_chunks, reclaimed_bytes) =
    U.time_it (fun () -> Persist.compact p3)
  in
  U.row_header
    [ "garbage"; "reclaimed"; "log before"; "log after"; "compact" ];
  U.row
    [
      Printf.sprintf "%d chunks (%s)" garbage_chunks (U.human_bytes garbage_bytes);
      Printf.sprintf "%d chunks (%s)" reclaimed_chunks (U.human_bytes reclaimed_bytes);
      U.human_bytes log_before;
      U.human_bytes (Persist.log_size p3);
      U.ms t_compact ^ "ms";
    ];
  Bench_json.metric ~name:"compact_time" ~value:(t_compact *. 1000.) ~unit:"ms";
  Bench_json.metric ~name:"compact_reclaimed_bytes"
    ~value:(float_of_int reclaimed_bytes) ~unit:"bytes";
  Persist.close p3
