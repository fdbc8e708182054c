(* Table 3 (operation throughput/latency) and Table 4 (Put cost
   breakdown). *)

module Db = Forkbase.Db
module Store = Fbchunk.Chunk_store
module Cid = Fbchunk.Cid
module Value = Fbtypes.Value

let payload seed size = Workload.Text_edit.initial_page ~seed ~size

(* Table 3: 9 ForkBase operations at two request sizes.  Latencies come
   from Bechamel OLS estimates on the real embedded-storage code path;
   throughput is the single-executor-thread rate (the paper's servlets are
   configured with one execution thread, §6). *)
let table3 _scale =
  Bench_util.section "Table 3: Performance of ForkBase Operations";
  let sizes = [ ("1KB", 1024); ("20KB", 20 * 1024) ] in
  let results =
    List.map
      (fun (label, size) ->
        let db = Db.create (Store.mem_store ()) in
        let content = payload 1L size in
        let counter = ref 0 in
        let fresh_key prefix =
          incr counter;
          Printf.sprintf "%s-%d" prefix !counter
        in
        (* Pre-populate objects used by Get/Track/Fork. *)
        let (_ : Cid.t) = Db.put db ~key:"get-str" (Db.str content) in
        let (_ : Cid.t) = Db.put db ~key:"get-blob" (Db.blob db content) in
        let map_kvs =
          List.init (max 1 (size / 128)) (fun i ->
              (Printf.sprintf "field%05d" i, String.make 100 'v'))
        in
        let (_ : Cid.t) = Db.put db ~key:"get-map" (Db.map db map_kvs) in
        for i = 0 to 9 do
          let (_ : Cid.t) =
            Db.put db ~key:"tracked" (Db.str (content ^ string_of_int i))
          in
          ()
        done;
        let ops =
          [
            ("Put-String", fun () -> ignore (Db.put db ~key:(fresh_key "ps") (Db.str content)));
            ("Put-Blob", fun () -> ignore (Db.put db ~key:(fresh_key "pb") (Db.blob db content)));
            ("Put-Map", fun () -> ignore (Db.put db ~key:(fresh_key "pm") (Db.map db map_kvs)));
            ("Get-String", fun () -> ignore (Db.get db ~key:"get-str"));
            ( "Get-Blob-Meta",
              fun () ->
                (* returns only the handler; data fetched on demand *)
                ignore (Db.get db ~key:"get-blob") );
            ( "Get-Blob-Full",
              fun () ->
                match Db.get db ~key:"get-blob" with
                | Ok (Value.Blob b) -> ignore (Fbtypes.Fblob.to_string b)
                | _ -> assert false );
            ( "Get-Map-Full",
              fun () ->
                match Db.get db ~key:"get-map" with
                | Ok (Value.Map m) -> ignore (Fbtypes.Fmap.bindings m)
                | _ -> assert false );
            ( "Track",
              fun () -> ignore (Db.track db ~key:"tracked" ~dist_range:(0, 5)) );
            ( "Fork",
              fun () ->
                ignore
                  (Db.fork db ~key:"get-str" ~from_branch:"master"
                     ~new_branch:(fresh_key "branch")) );
          ]
        in
        (label, Bench_util.bechamel_ns ops))
      sizes
  in
  Bench_util.row_header
    [ "op"; "tput-1KB(Kops/s)"; "tput-20KB(Kops/s)"; "lat-1KB(ms)"; "lat-20KB(ms)" ];
  List.iter
    (fun op ->
      let find label = List.assoc op (List.assoc label results) in
      let ns1 = find "1KB" and ns20 = find "20KB" in
      Bench_json.metric ~name:(op ^ "_1KB_latency") ~value:(ns1 /. 1e3)
        ~unit:"us";
      Bench_json.metric ~name:(op ^ "_20KB_latency") ~value:(ns20 /. 1e3)
        ~unit:"us";
      Bench_util.row
        [
          op;
          Printf.sprintf "%.1f" (1e6 /. ns1);
          Printf.sprintf "%.1f" (1e6 /. ns20);
          Printf.sprintf "%.4f" (ns1 /. 1e6);
          Printf.sprintf "%.4f" (ns20 /. 1e6);
        ])
    [
      "Put-String"; "Put-Blob"; "Put-Map"; "Get-String"; "Get-Blob-Meta";
      "Get-Blob-Full"; "Get-Map-Full"; "Track"; "Fork";
    ]

(* A served page put in process: the put's frame as the event loop holds
   it, decoded where it lies, handled on a durable store and answered with
   a response frame, with one group-commit sync per [pages] puts; the
   socket is all it leaves out.  [pages] 64 KiB pages are put once
   (untimed); then each put overwrites 64 bytes of its page in place in
   the page's frame buffer, as a read overwrites the server's read
   buffer, so the loop allocates nothing of its own beyond the edit.
   Returns CPU us and major-heap words per put; the word count repeats
   exactly for a fixed seed. *)
let served_page_put ~pages ~batches =
  Bench_util.with_temp_dir @@ fun dir ->
  let module Persist = Fbpersist.Persist in
  let module Wire = Fbremote.Wire in
  let module Server = Fbremote.Server in
  let p = Persist.open_db dir in
  Persist.set_deferred_sync p true;
  let db = Persist.db p in
  let page_bytes = 65536 in
  let frames =
    Array.init pages (fun i ->
        Bytes.of_string
          (Wire.encode_frame
             (Wire.encode_request
                (Wire.Put
                   { key = Printf.sprintf "page%02d" i; branch = "master"; context = "";
                     value = Wire.Blob (payload (Int64.of_int (100 + i)) page_bytes) }))))
  in
  let out = Buffer.create 256 in
  let serve frame =
    let frame = Bytes.unsafe_to_string frame in
    let len = String.length frame - Wire.header_bytes in
    ignore
      (Sys.opaque_identity
         (Wire.response_frame out
            (Server.handle_incoming db
               (Server.decode_incoming frame ~pos:Wire.header_bytes ~len))))
  in
  Array.iter serve frames;
  Persist.sync p;
  let rng = Fbutil.Splitmix.create 12L in
  (* an empty minor heap, whatever ran before, so the count repeats *)
  Gc.full_major ();
  let w0 = (Gc.quick_stat ()).Gc.major_words and t0 = Sys.time () in
  for _ = 1 to batches do
    Array.iter
      (fun frame ->
        (* the page is the frame's last [page_bytes] bytes *)
        let at = Bytes.length frame - page_bytes + Fbutil.Splitmix.int rng (page_bytes - 64) in
        Bytes.blit_string (Fbutil.Splitmix.alphanum rng 64) 0 frame at 64;
        serve frame)
      frames;
    Persist.sync p
  done;
  let cpu = Sys.time () -. t0 and words = (Gc.quick_stat ()).Gc.major_words -. w0 in
  Persist.close p;
  let puts = float_of_int (pages * batches) in
  (cpu *. 1e6 /. puts, words /. puts)

(* Table 4: cost breakdown of a Put, excluding network. *)
let table4 scale =
  Bench_util.section "Table 4: Breakdown of Put Operation (us)";
  let cfg = Fbtree.Tree_config.default in
  let components (label, size) =
    let content = payload 2L size in
    let store = Store.mem_store () in
    let blob = Fbtypes.Fblob.create store cfg content in
    let obj =
      Forkbase.Fobject.of_value ~key:"k" ~bases:[] (Value.Blob blob)
    in
    let meta_chunk = Forkbase.Fobject.to_chunk obj in
    let encoded = Fbchunk.Chunk.encode meta_chunk in
    let str_obj = Forkbase.Fobject.of_value ~key:"k" ~bases:[] (Value.Prim (Fbtypes.Prim.Str content)) in
    let str_encoded = Fbchunk.Chunk.encode (Forkbase.Fobject.to_chunk str_obj) in
    let log_path = Filename.temp_file "fbbench" ".log" in
    let log = Fbchunk.Log_store.open_ log_path in
    let log_store = Fbchunk.Log_store.store log in
    let roll = Fbhash.Rolling.Cyclic.create ~window:cfg.Fbtree.Tree_config.window in
    let salt = ref 0 in
    let tests =
      [
        ( "Serialization",
          fun () -> ignore (Fbchunk.Chunk.encode meta_chunk) );
        ( "Deserialization",
          fun () ->
            ignore (Forkbase.Fobject.of_chunk (Fbchunk.Chunk.decode str_encoded)) );
        ("CryptoHash", fun () -> ignore (Fbhash.Sha256.digest content));
        ( "CryptoHashOCaml",
          fun () -> ignore (Fbhash.Sha256.Reference.digest content) );
        ( "RollingHash",
          fun () -> String.iter (Fbhash.Rolling.Cyclic.roll roll) content );
        ( "Persistence",
          fun () ->
            (* distinct chunks so dedup does not skip the append *)
            incr salt;
            let chunk =
              Fbchunk.Chunk.v Fbchunk.Chunk.Blob (string_of_int !salt ^ content)
            in
            ignore (log_store.Store.put chunk) );
      ]
    in
    let res = Bench_util.bechamel_ns tests in
    Fbchunk.Log_store.close log;
    Sys.remove log_path;
    ignore encoded;
    (label, res)
  in
  let results = List.map components [ ("1KB", 1024); ("20KB", 20 * 1024) ] in
  Bench_util.row_header [ "component"; "1KB(us)"; "20KB(us)" ];
  List.iter
    (fun comp ->
      let find label = List.assoc comp (List.assoc label results) in
      Bench_json.metric ~name:(comp ^ "_1KB") ~value:(find "1KB" /. 1000.0)
        ~unit:"us";
      Bench_json.metric ~name:(comp ^ "_20KB") ~value:(find "20KB" /. 1000.0)
        ~unit:"us";
      Bench_util.row
        [
          comp;
          Printf.sprintf "%.2f" (find "1KB" /. 1000.0);
          Printf.sprintf "%.2f" (find "20KB" /. 1000.0);
        ])
    [
      "Serialization";
      "Deserialization";
      "CryptoHash";
      "CryptoHashOCaml";
      "RollingHash";
      "Persistence";
    ];
  Printf.printf
    "(CryptoHash is the %s kernel; CryptoHashOCaml the pure-OCaml reference.\n\
    \ RollingHash applies only to chunkable types; String puts skip it.)\n%!"
    Fbhash.Sha256.kernel;
  let pages = 32 and batches = Bench_util.pick scale 8 64 in
  let cpu_us, words = served_page_put ~pages ~batches in
  Bench_json.metric ~name:"served_page_put_cpu_us" ~value:cpu_us ~unit:"us";
  Bench_json.metric ~name:"served_page_put_major_words" ~value:words ~unit:"words";
  Bench_util.subsection
    "Served page put in process: decode + handle + response, durable store";
  Bench_util.row_header [ "pages"; "puts"; "cpu us/put"; "major words/put" ];
  Bench_util.row
    [ string_of_int pages; string_of_int (pages * batches);
      Printf.sprintf "%.1f" cpu_us; Printf.sprintf "%.0f" words ]
