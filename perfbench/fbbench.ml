(* The repo benchmark: one workload, one seed, one run.

   Starts a durable server child configured as [forkbase serve] runs it,
   preloads it, times pipelined put batches, drives it with a closed loop
   over at most two connections, checks every answer, and writes the run's
   metrics as JSON to [--out].  With [--trace] it runs the workload twice on
   the same seed, untraced and then traced, and reports the traced run's
   per-layer split next to both runs' end-to-end numbers; a traced kv run
   ends with a follower catch-up round.  See README.md for the workloads
   and the metrics. *)

module Wire = Fbremote.Wire
module Procs = Fbremote.Procs
module Persist = Fbpersist.Persist
module Replica = Fbreplica.Replica
module Store = Fbchunk.Chunk_store
module Rng = Fbutil.Splitmix
module Zipf = Workload.Zipf
module Text_edit = Workload.Text_edit

let now = Fbremote.Clock.monotonic
let conns = 2
let value_bytes = 128
let edit_bytes = 64
let setups = 3

(* A bulk get round sends this many times the requests of a put round, so
   that both take a similar time. *)
let gets_per_put = 3

type sizes = {
  kv_keys : int;  (** per connection *)
  kv_barrier : int;  (** requests per connection before the count barrier *)
  wiki_pages : int;  (** per connection *)
  wiki_page_bytes : int;
  wiki_barrier : int;
  cu_keys : int;  (** per connection *)
  cu_pages : int;  (** per connection *)
  cu_page_bytes : int;
  cu_ops : int;  (** read-modify-writes *)
  bulk_rounds : int;  (** of each kind, puts and gets *)
  bulk_kv : int;  (** puts per bulk put round *)
  bulk_wiki : int;  (** page puts per bulk put round *)
}

let full =
  {
    kv_keys = 5000;
    kv_barrier = 20_000;
    wiki_pages = 32;
    wiki_page_bytes = 65536;
    wiki_barrier = 600;
    cu_keys = 500;
    cu_pages = 16;
    cu_page_bytes = 32768;
    cu_ops = 4000;
    bulk_rounds = 20;
    bulk_kv = 20_000;
    bulk_wiki = 256;
  }

let quick =
  {
    kv_keys = 500;
    kv_barrier = 1000;
    wiki_pages = 4;
    wiki_page_bytes = 16384;
    wiki_barrier = 40;
    cu_keys = 100;
    cu_pages = 4;
    cu_page_bytes = 8192;
    cu_ops = 400;
    bulk_rounds = 3;
    bulk_kv = 500;
    bulk_wiki = 16;
  }

let rng_for seed salt =
  Rng.create
    (Int64.add
       (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
       (Int64.of_int (salt + 1)))

(* ---------- the server child ---------- *)

type server = {
  proc : Procs.t;
  dir : string;
  out : string;
  fds : Unix.file_descr array;
}

(* Every child started, killed at exit if a failure left it running. *)
let live : Procs.t list ref = ref []
let () = at_exit (fun () -> List.iter Procs.kill !live)

let start ~dir ~trace =
  Unix.mkdir dir 0o755;
  let out = dir ^ ".trace" in
  let proc = Procs.spawn (Probe.serve_child ~dir ~trace ~out) in
  live := proc :: !live;
  let fds = Array.init conns (fun _ -> Loop.connect (Procs.port proc)) in
  { proc; dir; out; fds }

(* Quit, wait for the child, and read what it wrote on its way out. *)
let stop s =
  (match Loop.call s.fds.(0) Wire.Quit with
  | Wire.Ok_unit -> ()
  | _ -> failwith "server refused Quit");
  Array.iter Unix.close s.fds;
  Procs.reap s.proc;
  if not (Sys.file_exists s.out) then failwith "server child did not exit cleanly";
  let tr = Probe.read_trace s.out in
  Sys.remove s.out;
  tr

let stats fd =
  match Loop.call fd Wire.Stats with
  | Wire.Stats_r s -> s
  | _ -> failwith "server refused Stats"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------- requests and their checks ---------- *)

let describe = function
  | Wire.Value _ -> "a different value"
  | Wire.Error m -> "error " ^ m
  | _ -> "an unexpected response"

(* A request whose answer must satisfy [accept]; [accept] also advances
   the script's shadow state when it does. *)
let op ?(user_bytes = 0) kind req ~what ~accept =
  {
    Loop.kind;
    req;
    user_bytes;
    check =
      (fun r ->
        if accept r then Ok () else Error (Printf.sprintf "%s returned %s" what (describe r)));
  }

let get_op ?(branch = "master") key expect =
  op Loop.Get (Wire.Get { key; branch }) ~what:("get " ^ key ^ "@" ^ branch)
    ~accept:(function
      | Wire.Value (Wire.Str v | Wire.Blob v) -> String.equal v (expect ())
      | _ -> false)

let put_req ?(branch = "master") key value =
  Wire.Put { key; branch; context = ""; value }

let put_op ?branch key value ~on_ack =
  let user_bytes = match value with Wire.Str s | Wire.Blob s -> String.length s | _ -> 0 in
  op ~user_bytes Loop.Put (put_req ?branch key value) ~what:("put " ^ key)
    ~accept:(function
      | Wire.Uid _ ->
          on_ack ();
          true
      | _ -> false)

let edit rng page =
  Text_edit.apply page
    (Text_edit.random_edit rng ~page_len:(String.length page) ~update_ratio:0.8
       ~edit_size:edit_bytes)

(* A script that runs queued steps; [refill] queues the next task's steps
   (or none, when the script is done).  Steps are thunks so each request
   is built from the shadow state as the previous answers left it. *)
let queued refill =
  let q : (unit -> Loop.op) Queue.t = Queue.create () in
  fun () ->
    if Queue.is_empty q then refill q;
    Option.map (fun f -> f ()) (Queue.take_opt q)

(* Reading a page, editing it and putting it back: the wiki edit and the
   page half of the catch-up round's writes. *)
let page_edit rng q ~key shadow =
  Queue.push (fun () -> get_op key (fun () -> !shadow)) q;
  Queue.push
    (fun () ->
      let text = edit rng !shadow in
      put_op key (Wire.Blob text) ~on_ack:(fun () -> shadow := text))
    q

(* ---------- workloads ---------- *)

type state = {
  preload_bytes : int;
  scripts : (unit -> Loop.op option) array;
  barrier : int option;
  bulk_put : int -> int * Loop.op list;
      (** put round [k] and the connection that pipelines it, values
          computed before the round is timed *)
  bulk_get : int -> int * Loop.op list;  (** get round [k], likewise *)
}

let no_bulk _ = (0, [])

(* Preload puts, pipelined on the first connection; any refusal ends the
   run, since every check after it would compare against a wrong shadow. *)
let preload s puts =
  let b = Loop.bulk s.fds.(0) (List.map (fun (key, v) -> put_op key v ~on_ack:ignore) puts) in
  if b.Loop.bulk_failed > 0 || b.Loop.bulk_mismatches <> [] then
    failwith "a preload put was refused"

let kv_key c i = Printf.sprintf "kv%d-%05d" c i

(* [n] 128-byte values per connection, put pipelined; the returned
   arrays are the shadow the checks compare against. *)
let preload_values s ~seed ~key ~n =
  let rng = rng_for seed 100 in
  let values =
    Array.init conns (fun _ -> Array.init n (fun _ -> Rng.alphanum rng value_bytes))
  in
  preload s
    (List.concat
       (List.init conns (fun c -> List.init n (fun i -> (key c i, Wire.Str values.(c).(i))))));
  values

let kv_setup sz ~seed s =
  let values = preload_values s ~seed ~key:kv_key ~n:sz.kv_keys in
  let script c =
    let rng = rng_for seed c in
    let zipf = Zipf.create ~n:sz.kv_keys ~theta:0.99 in
    fun () ->
      let i = Zipf.sample zipf rng in
      let key = kv_key c i in
      if Rng.float rng < 0.1 then begin
        let v = Rng.alphanum rng value_bytes in
        Some (put_op key (Wire.Str v) ~on_ack:(fun () -> values.(c).(i) <- v))
      end
      else Some (get_op key (fun () -> values.(c).(i)))
  in
  (* Bulk round [k]: connection [k mod 2] rewrites, then reads,
     uniformly chosen keys of its own. *)
  let bulk_put k =
    let c = k mod conns and rng = rng_for seed (300 + k) in
    ( c,
      List.init sz.bulk_kv (fun _ ->
          let i = Rng.int rng sz.kv_keys in
          let v = Rng.alphanum rng value_bytes in
          put_op (kv_key c i) (Wire.Str v) ~on_ack:(fun () -> values.(c).(i) <- v)) )
  in
  let bulk_get k =
    let c = k mod conns and rng = rng_for seed (500 + k) in
    ( c,
      List.init (gets_per_put * sz.bulk_kv) (fun _ ->
          let i = Rng.int rng sz.kv_keys in
          get_op (kv_key c i) (fun () -> values.(c).(i))) )
  in
  {
    preload_bytes = conns * sz.kv_keys * value_bytes;
    scripts = Array.init conns script;
    barrier = Some sz.kv_barrier;
    bulk_put;
    bulk_get;
  }

let wiki_key c i = Printf.sprintf "page%d-%02d" c i

let preload_pages s ~seed ~salt ~key ~pages ~bytes =
  let texts =
    Array.init conns (fun c ->
        Array.init pages (fun i ->
            ref
              (Text_edit.initial_page
                 ~seed:(Rng.next (rng_for seed (salt + (c * pages) + i)))
                 ~size:bytes)))
  in
  preload s
    (List.concat
       (List.init conns (fun c ->
            List.init pages (fun i -> (key c i, Wire.Blob !(texts.(c).(i)))))));
  texts

(* Every 20th edit of a page goes through a draft branch: fork, edit the
   draft only, merge it back, and read master, which must now hold the
   draft's text. *)
let wiki_setup sz ~seed s =
  let pages =
    preload_pages s ~seed ~salt:1000 ~key:wiki_key ~pages:sz.wiki_pages
      ~bytes:sz.wiki_page_bytes
  in
  let script c =
    let rng = rng_for seed c in
    let zipf = Zipf.create ~n:sz.wiki_pages ~theta:0.8 in
    let edits = Array.make sz.wiki_pages 0 in
    let drafts = ref 0 in
    queued (fun q ->
        let i = Zipf.sample zipf rng in
        let key = wiki_key c i in
        let shadow = pages.(c).(i) in
        edits.(i) <- edits.(i) + 1;
        if edits.(i) mod 20 <> 0 then page_edit rng q ~key shadow
        else begin
          incr drafts;
          let branch = Printf.sprintf "draft%d" !drafts in
          let draft = ref "" in
          Queue.push
            (fun () ->
              op Loop.Fork
                (Wire.Fork { key; from_branch = "master"; new_branch = branch })
                ~what:("fork " ^ key)
                ~accept:(function
                  | Wire.Ok_unit ->
                      draft := !shadow;
                      true
                  | _ -> false))
            q;
          Queue.push (fun () -> get_op ~branch key (fun () -> !draft)) q;
          Queue.push
            (fun () ->
              let text = edit rng !draft in
              put_op ~branch key (Wire.Blob text) ~on_ack:(fun () -> draft := text))
            q;
          Queue.push
            (fun () ->
              op Loop.Merge
                (Wire.Merge { key; target = "master"; ref_branch = branch; resolver = "" })
                ~what:("merge " ^ key)
                ~accept:(function
                  | Wire.Uid _ ->
                      shadow := !draft;
                      true
                  | _ -> false))
            q;
          Queue.push (fun () -> get_op key (fun () -> !shadow)) q
        end)
  in
  (* Bulk round [k]: connection [k mod 2] edits its pages in turn, each
     put a whole page whose text is the previous version of that page with
     one edit applied; then it reads its pages in turn. *)
  let bulk_put k =
    let c = k mod conns and rng = rng_for seed (400 + k) in
    let texts = Array.map (fun r -> !r) pages.(c) in
    ( c,
      List.init sz.bulk_wiki (fun j ->
          let i = j mod sz.wiki_pages in
          let text = edit rng texts.(i) in
          texts.(i) <- text;
          put_op (wiki_key c i) (Wire.Blob text) ~on_ack:(fun () -> pages.(c).(i) := text)) )
  in
  let bulk_get k =
    let c = k mod conns in
    ( c,
      List.init (gets_per_put * sz.bulk_wiki) (fun j ->
          let i = j mod sz.wiki_pages in
          get_op (wiki_key c i) (fun () -> !(pages.(c).(i)))) )
  in
  {
    preload_bytes = conns * sz.wiki_pages * sz.wiki_page_bytes;
    scripts = Array.init conns script;
    barrier = Some sz.wiki_barrier;
    bulk_put;
    bulk_get;
  }

let cu_key c i = Printf.sprintf "ck%d-%04d" c i
let cu_page c i = Printf.sprintf "cp%d-%02d" c i

(* The writes a follower later replays: a fixed number of read-modify-
   writes, every tenth of a page (chosen uniformly, so the space a seed
   costs does not hinge on a few hot pages) and the rest of a 128-byte
   value.  One connection writes them all: the journal order is then fixed,
   and its reads never queue behind another connection's fsync. *)
let catchup_setup sz ~seed s =
  let values = preload_values s ~seed ~key:cu_key ~n:sz.cu_keys in
  let pages =
    preload_pages s ~seed ~salt:2000 ~key:cu_page ~pages:sz.cu_pages
      ~bytes:sz.cu_page_bytes
  in
  let script =
    let rng = rng_for seed 0 in
    let zipf = Zipf.create ~n:(conns * sz.cu_keys) ~theta:0.99 in
    let n = ref 0 in
    queued (fun q ->
        if !n < sz.cu_ops then begin
          incr n;
          if !n mod 10 = 0 then begin
            let j = Rng.int rng (conns * sz.cu_pages) in
            let c = j / sz.cu_pages and i = j mod sz.cu_pages in
            page_edit rng q ~key:(cu_page c i) pages.(c).(i)
          end
          else begin
            let j = Zipf.sample zipf rng in
            let c = j / sz.cu_keys and i = j mod sz.cu_keys in
            let key = cu_key c i in
            Queue.push (fun () -> get_op key (fun () -> values.(c).(i))) q;
            Queue.push
              (fun () ->
                let v = Rng.alphanum rng value_bytes in
                put_op key (Wire.Str v) ~on_ack:(fun () -> values.(c).(i) <- v))
              q
          end
        end)
  in
  {
    preload_bytes = conns * ((sz.cu_keys * value_bytes) + (sz.cu_pages * sz.cu_page_bytes));
    scripts = [| script |];
    barrier = None;
    bulk_put = no_bulk;
    bulk_get = no_bulk;
  }

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 0) name unit_ value =
  { name; value = (if Float.is_finite value then value else 0.); unit_; samples }

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let ms x = x *. 1000.
let us x = x *. 1e6

(* Everything one phase (untraced or traced) measured. *)
type phase = {
  lat : Stat.t array;  (** seconds, per {!Loop.kind_index}, every request *)
  ops : int;
  failed : int;
  setup_s : float list;
  rate : float;  (** closed-loop requests/s *)
  bulk_put_rates : float list;  (** pipelined puts/s of each bulk round *)
  bulk_get_rates : float list;  (** pipelined gets/s of each bulk round *)
  stored_per_user : float;
  layers : metric list;  (** the per-layer split, traced phases only *)
  failures : string list;
}

let latency ph name kind p =
  let s = ph.lat.(Loop.kind_index kind) in
  m ~samples:(Stat.count s) name "ms" (ms (Stat.percentile s p))

(* The end-to-end metrics the gate holds to a bound (BENCHMARK.json). *)
let gated ph =
  [
    m ~samples:(List.length ph.bulk_get_rates) "bulk_gets_per_s" "gets/s"
      (Stat.median_of_list ph.bulk_get_rates);
    m ~samples:(List.length ph.bulk_put_rates) "bulk_puts_per_s" "puts/s"
      (Stat.median_of_list ph.bulk_put_rates);
    m "stored_bytes_per_user_byte" "ratio" ph.stored_per_user;
    m ~samples:(List.length ph.setup_s) "setup_s" "s" (Stat.median_of_list ph.setup_s);
  ]

(* End-to-end metrics that are printed and recorded but not gated: on a
   shared 2-core host their run-to-run spread is wider than any bound the
   gate allows (README.md, "Steadiness"). *)
let ungated ph =
  [
    m "ops_per_s" "ops/s" ph.rate;
    latency ph "get_p50_ms" Loop.Get 0.5;
    latency ph "put_p50_ms" Loop.Put 0.5;
    latency ph "get_p99_ms" Loop.Get 0.99;
    latency ph "put_p99_ms" Loop.Put 0.99;
    latency ph "merge_p50_ms" Loop.Merge 0.5;
    m ~samples:ph.ops "failed_share" "ratio" (div (fi ph.failed) (fi ph.ops));
  ]

(* The request-path split of one traced closed-loop phase.  [lo, hi] is
   the phase; [pre_hi] closes the pre-barrier part the counts are taken
   over. *)
let request_layers (r : Loop.result) (tr : Probe.server_trace) ~(s0 : Wire.stats)
    ~(s1 : Wire.stats) ~reopen_s =
  let lo = r.Loop.t_start and hi = r.Loop.t_stop and pre_hi = r.Loop.t_release in
  let ops = fi r.Loop.ops and pre = fi r.Loop.ops_pre in
  let cpu = Probe.cpu_between tr ~lo ~hi in
  let sync = Stat.within ~stamps:tr.Probe.sync_end ~lo ~hi tr.Probe.sync_dur in
  let sync_cpu = Stat.sum_within ~stamps:tr.Probe.sync_end ~lo ~hi tr.Probe.sync_cpu in
  let busy = cpu +. Stat.sum sync -. sync_cpu in
  let st = tr.Probe.store in
  let puts = Stat.count_within ~stamps:st.Probe.put_end ~lo ~hi:pre_hi in
  let put_sum v = Stat.sum_within ~stamps:st.Probe.put_end ~lo ~hi:pre_hi v in
  let dedups =
    let n = ref 0 in
    for i = 0 to Stat.count st.Probe.put_end - 1 do
      let e = Stat.get st.Probe.put_end i in
      if e >= lo && e <= pre_hi && Stat.get st.Probe.put_new i = 0. then incr n
    done;
    !n
  in
  let gets = Stat.count_within ~stamps:st.Probe.get_end ~lo ~hi:pre_hi in
  let writes =
    fi
      (Stat.count r.Loop.lat.(Loop.kind_index Loop.Put)
      + Stat.count r.Loop.lat.(Loop.kind_index Loop.Fork)
      + Stat.count r.Loop.lat.(Loop.kind_index Loop.Merge))
  in
  let rt_mean = Stat.mean r.Loop.rt in
  [
    m "wire.encode_us" "us" (us (Stat.mean r.Loop.enc));
    m "wire.decode_us" "us" (us (Stat.mean r.Loop.dec));
    m ~samples:(Stat.count r.Loop.rt) "wire.round_trip_p50_us" "us"
      (us (Stat.percentile r.Loop.rt 0.5));
    m ~samples:(Stat.count r.Loop.rt) "wire.round_trip_p99_us" "us"
      (us (Stat.percentile r.Loop.rt 0.99));
    m "wire.transport_us" "us" (us (rt_mean -. div busy ops));
    m "wire.client_gap_us" "us"
      (us
         (div
            (Array.fold_left (fun acc s -> acc +. Stat.sum s) 0. r.Loop.lat)
            ops
         -. (Stat.mean r.Loop.enc +. rt_mean +. Stat.mean r.Loop.dec)));
    m "wire.bytes_per_op" "B" (div (fi r.Loop.bytes_pre) pre);
    m "server.cpu_us_per_op" "us" (us (div cpu ops));
    m "server.busy_us_per_op" "us" (us (div busy ops));
    m "server.acks_per_fsync" "ratio"
      (div
         (fi (s1.Wire.acks_released - s0.Wire.acks_released))
         (fi (s1.Wire.group_commits - s0.Wire.group_commits)));
    m "server.closed_err" "count" (fi (s1.Wire.closed_err - s0.Wire.closed_err));
    m ~samples:(Stat.count sync) "persist.sync_p50_us" "us" (us (Stat.percentile sync 0.5));
    m ~samples:(Stat.count sync) "persist.sync_p99_us" "us" (us (Stat.percentile sync 0.99));
    m "persist.sync_share" "ratio" (div (Stat.sum sync) (hi -. lo));
    m "persist.journal_bytes_per_put" "B"
      (div (fi (s1.Wire.journal_bytes - s0.Wire.journal_bytes)) writes);
    m "persist.reopen_ms" "ms" (ms reopen_s);
    m "chunk.puts_per_op" "count" (div (fi puts) pre);
    m "chunk.dedup_ratio" "ratio" (div (fi dedups) (fi puts));
    m "chunk.put_bytes_per_op" "B" (div (put_sum st.Probe.put_bytes) pre);
    m "chunk.stored_bytes_per_op" "B" (div (put_sum st.Probe.put_new) pre);
    m "chunk.put_us_per_op" "us" (us (div (put_sum st.Probe.put_dur) pre));
    m "chunk.gets_per_op" "count" (div (fi gets) pre);
    m "chunk.get_us_per_op" "us"
      (us
         (div
            (Stat.sum_within ~stamps:st.Probe.get_end ~lo ~hi:pre_hi st.Probe.get_dur)
            pre));
  ]

(* Rebuild each page version the connections put before the barrier with
   [Fblob.create] over a timed in-memory store: the POS-Tree build the
   server ran for it, net of store time. *)
let postree_layers (r : Loop.result) =
  let log = Probe.fresh_store_log () in
  let store = Probe.timing_store log (Store.mem_store ()) in
  let build = Stat.create () and chunks = Stat.create () and height = Stat.create () in
  Array.iter
    (List.iter (fun text ->
         let p0 = Stat.count log.Probe.put_end and s0 = Stat.sum log.Probe.put_dur in
         let t0 = now () in
         let b = Fbtypes.Fblob.create store Fbtree.Tree_config.default text in
         let t1 = now () in
         Stat.add build (t1 -. t0 -. (Stat.sum log.Probe.put_dur -. s0));
         Stat.add chunks (fi (Stat.count log.Probe.put_end - p0));
         Stat.add height (fi (Fbtypes.Fblob.height b))))
    r.Loop.pages_pre;
  [
    m ~samples:(Stat.count build) "postree.build_us_per_put" "us" (us (Stat.mean build));
    m "postree.chunks_per_put" "count" (Stat.mean chunks);
    m "postree.height" "levels" (Stat.mean height);
  ]

(* What a traced follower measured, turned into metrics once the primary's
   trace (its CPU over the same window) is read. *)
type follower_run = {
  w0 : float;
  w1 : float;
  entries : float;
  steps : Stat.t;
  counters : Replica.counters;
  fetches : int;  (** primary request frames other than pulls *)
  put_s : float;  (** follower chunk-store put time *)
}

let replica_layers fr (tr : Probe.server_trace) =
  let per_entry x = us (div x fr.entries) in
  let primary_cpu = Probe.cpu_between tr ~lo:fr.w0 ~hi:fr.w1 in
  [
    m "replica.entries_per_s" "entries/s" (div fr.entries (fr.w1 -. fr.w0));
    m ~samples:(Stat.count fr.steps) "replica.sync_step_ms" "ms"
      (ms (Stat.percentile fr.steps 0.5));
    m "replica.entries_per_pull" "count" (div fr.entries (fi fr.counters.Replica.pulls));
    m "replica.chunks_fetched_per_entry" "count"
      (div (fi fr.counters.Replica.chunks_fetched) fr.entries);
    m "replica.fetch_calls_per_entry" "count" (div (fi fr.fetches) fr.entries);
    m "replica.primary_cpu_us_per_entry" "us" (per_entry primary_cpu);
    m "replica.follower_chunk_put_us_per_entry" "us" (per_entry fr.put_s);
    m "replica.residual_us_per_entry" "us"
      (per_entry (fr.w1 -. fr.w0 -. primary_cpu -. fr.put_s));
  ]

(* wiki runs no follower; its replica metrics read 0, so every run
   reports the same names. *)
let no_replica =
  List.map
    (fun (n, u) -> m n u 0.)
    [
      ("replica.entries_per_s", "entries/s");
      ("replica.sync_step_ms", "ms");
      ("replica.entries_per_pull", "count");
      ("replica.chunks_fetched_per_entry", "count");
      ("replica.fetch_calls_per_entry", "count");
      ("replica.primary_cpu_us_per_entry", "us");
      ("replica.follower_chunk_put_us_per_entry", "us");
      ("replica.residual_us_per_entry", "us");
    ]

(* ---------- running one phase ---------- *)

type cfg = { workload : string; seed : int; sz : sizes; root : string }

let setup_fn cfg =
  match cfg.workload with
  | "kv" -> kv_setup cfg.sz ~seed:cfg.seed
  | "wiki" -> wiki_setup cfg.sz ~seed:cfg.seed
  | w -> invalid_arg ("unknown workload " ^ w)

let counter = ref 0

let fresh_dir cfg prefix =
  incr counter;
  Filename.concat cfg.root (Printf.sprintf "%s%d" prefix !counter)

(* Server start + preload, timed; [n] times, keeping the last server. *)
let set_up cfg ~setup ~trace ~n =
  let rec go k times =
    let t0 = now () in
    let s = start ~dir:(fresh_dir cfg "srv") ~trace in
    let st = setup s in
    let dt = now () -. t0 in
    if k <= 1 then (s, st, List.rev (dt :: times))
    else begin
      ignore (stop s : Probe.server_trace option);
      rm_rf s.dir;
      go (k - 1) (dt :: times)
    end
  in
  go n []

(* Stop the server and time a cold [Persist.open_db] of what it left. *)
let stop_and_reopen s =
  let tr = stop s in
  let t0 = now () in
  let p = Persist.open_db s.dir in
  (tr, p, now () -. t0)

let expect_trace = function
  | Some tr -> tr
  | None -> failwith "traced server wrote no trace"

(* The bulk rounds, a put round then a get round, each timed alone.
   Returns the put and get rates, the requests sent, the refusals, the
   mismatches and the value bytes the puts wrote. *)
let run_bulk sz s (st : state) =
  (* Each round's requests are dropped once it has run: a wiki round
     carries 16 MiB of page text. *)
  let timed (c, ops) =
    let b = Loop.bulk s.fds.(c) ops in
    (b, List.fold_left (fun acc (op : Loop.op) -> acc + op.Loop.user_bytes) 0 ops)
  in
  let rounds = List.init sz.bulk_rounds (fun k -> (timed (st.bulk_put k), timed (st.bulk_get k))) in
  let all = List.concat_map (fun (p, g) -> [ fst p; fst g ]) rounds in
  let rate ((b : Loop.bulk), _) = div (fi b.Loop.n) b.Loop.secs in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 all in
  ( List.map (fun (p, _) -> rate p) rounds,
    List.map (fun (_, g) -> rate g) rounds,
    sum (fun b -> b.Loop.n),
    sum (fun b -> b.Loop.bulk_failed),
    List.concat_map (fun b -> b.Loop.bulk_mismatches) all,
    List.fold_left (fun acc ((_, bytes), _) -> acc + bytes) 0 rounds )

(* One catchup round on a fresh primary: set up, write, then a cold
   follower replays the primary's whole journal and is checked against it
   (heads equal, follower store fsck-clean).  Returns the replica split,
   the write phase's request and refusal counts, and any failures. *)
let catchup_round cfg =
  let s, st, _ = set_up cfg ~setup:(catchup_setup cfg.sz ~seed:cfg.seed) ~trace:true ~n:1 in
  let r = Loop.run (Array.mapi (fun c next -> (s.fds.(c), next)) st.scripts) in
  let s1 = stats s.fds.(0) in
  let fdir = fresh_dir cfg "follower" in
  let log = Probe.fresh_store_log () in
  let f =
    Replica.open_follower ~wrap_store:(Probe.timing_store log) ~dir:fdir ~host:"127.0.0.1"
      ~port:(Procs.port s.proc) ()
  in
  let steps = Stat.create () in
  let w0 = now () in
  let rec sync () =
    let a = now () in
    match Replica.sync_step f with
    | Replica.Applied _ ->
        Stat.add steps (now () -. a);
        sync ()
    | Replica.Caught_up -> ()
    | Replica.Primary_gone -> failwith "primary went away during catch-up"
  in
  sync ();
  let w1 = now () in
  let s2 = stats s.fds.(0) in
  let counters = Replica.counters f in
  let follower_heads = Fbcheck.Convergence.of_db (Replica.db f) in
  Replica.close f;
  let tr, p, _ = stop_and_reopen s in
  let diverged =
    Fbcheck.Convergence.diff ~left_name:"primary" ~right_name:"follower"
      ~left:(Fbcheck.Convergence.of_db (Persist.db p))
      ~right:follower_heads
  in
  Persist.close p;
  let fsck_ok = Fbcheck.Fsck.ok (Fbcheck.Fsck.check_dir fdir) in
  let fr =
    {
      w0;
      w1;
      entries = fi counters.Replica.entries_applied;
      steps;
      counters;
      (* the Stats request closing the window is itself one frame *)
      fetches = s2.Wire.frames_in - s1.Wire.frames_in - 1 - counters.Replica.pulls;
      put_s = Stat.sum log.Probe.put_dur;
    }
  in
  let layers = replica_layers fr (expect_trace tr) in
  rm_rf fdir;
  rm_rf s.dir;
  ( layers,
    r.Loop.ops,
    r.Loop.failed,
    r.Loop.mismatches
    @ List.map (fun d -> "follower diverged: " ^ d) diverged
    @ if fsck_ok then [] else [ "follower store fails fsck" ] )

(* Set up (timed, [n_setups] times), run the bulk rounds, then the closed
   loop for what is left of [seconds].  A traced kv phase ends with a
   catch-up round, the replica layer's split. *)
let run_phase cfg ~trace ~seconds =
  let s, st, setup_s =
    set_up cfg ~setup:(setup_fn cfg) ~trace ~n:(if trace then 1 else setups)
  in
  let t_begin = now () in
  let bulk_put_rates, bulk_get_rates, bulk_n, bulk_failed, bulk_mismatches, bulk_user_bytes =
    run_bulk cfg.sz s st
  in
  let s0 = stats s.fds.(0) in
  let at_barrier = ref s0 in
  let deadline = Float.max (now () +. 1.) (t_begin +. seconds) in
  let r =
    Loop.run ~trace ?barrier:st.barrier ~deadline
      ~on_barrier:(fun () -> at_barrier := stats s.fds.(0))
      (Array.mapi (fun c next -> (s.fds.(c), next)) st.scripts)
  in
  let s1 = stats s.fds.(0) in
  let tr, p, reopen_s = stop_and_reopen s in
  Persist.close p;
  rm_rf s.dir;
  let replica, cu_ops, cu_failed, replica_failures =
    match cfg.workload with
    | "kv" when trace -> catchup_round cfg
    | _ -> (no_replica, 0, 0, [])
  in
  let layers =
    if not trace then []
    else request_layers r (expect_trace tr) ~s0 ~s1 ~reopen_s @ postree_layers r @ replica
  in
  {
    lat = r.Loop.lat;
    ops = r.Loop.ops + bulk_n + cu_ops;
    failed = r.Loop.failed + bulk_failed + cu_failed;
    setup_s;
    rate = Loop.throughput r;
    bulk_put_rates;
    bulk_get_rates;
    stored_per_user =
      div (fi !at_barrier.Wire.bytes)
        (fi (st.preload_bytes + bulk_user_bytes + r.Loop.user_bytes_pre));
    layers;
    failures = bulk_mismatches @ r.Loop.mismatches @ replica_failures;
  }

(* ---------- output ---------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms_ =
  "{"
  ^ String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s, \"samples\": %d}"
             (json_string mt.name) mt.value (json_string mt.unit_) mt.samples)
         ms_)
  ^ "}"

let print_metrics title ms_ =
  Printf.printf "%s\n" title;
  List.iter
    (fun mt ->
      Printf.printf "  %-40s %14.4f %-7s%s\n" mt.name mt.value mt.unit_
        (if mt.samples > 0 then Printf.sprintf " (n=%d)" mt.samples else ""))
    ms_

let find name l = List.find (fun mt -> String.equal mt.name name) l

(* The traced phase's split, plus both phases' end-to-end numbers side by
   side: their difference is what tracing costs. *)
let trace_report ~untraced ~traced =
  let all ph = gated ph @ ungated ph in
  let u = all untraced and t = all traced in
  let pair n = [ { (find n u) with name = "untraced." ^ n }; { (find n t) with name = "traced." ^ n } ] in
  let slower n ~higher_better =
    let a = (find n u).value and b = (find n t).value in
    m ("overhead." ^ n ^ "_pct") "%" (100. *. div (if higher_better then a -. b else b -. a) a)
  in
  traced.layers
  @ List.concat_map pair
      [
        "bulk_gets_per_s";
        "bulk_puts_per_s";
        "ops_per_s";
        "get_p50_ms";
        "get_p99_ms";
        "put_p50_ms";
        "put_p99_ms";
      ]
  @ [
      slower "bulk_gets_per_s" ~higher_better:true;
      slower "bulk_puts_per_s" ~higher_better:true;
      slower "ops_per_s" ~higher_better:true;
      slower "get_p50_ms" ~higher_better:false;
      slower "put_p50_ms" ~higher_better:false;
      { (find "merge_p50_ms" u) with name = "untraced.merge_p50_ms" };
      { (find "failed_share" u) with name = "untraced.failed_share" };
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and root = ref "" and out = ref "" and small = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "kv | wiki");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "timed length of the run");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0 | 1");
      ("--dir", Arg.Set_string root, "scratch directory (created, must not exist)");
      ("--out", Arg.Set_string out, "result JSON file");
      ("--quick", Arg.Set small, "small sizes (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fbbench --workload W --seed N --seconds S --trace 0|1 --dir D --out F";
  if !root = "" || !out = "" then begin
    prerr_endline "fbbench: --dir and --out are required";
    exit 2
  end;
  Unix.mkdir !root 0o755;
  let sz = if !small then quick else full in
  let cfg = { workload = !workload; seed = !seed; sz; root = !root } in
  (* A traced run measures both phases in the time of one. *)
  let phase_s = if !trace then !seconds /. 2. else !seconds in
  let untraced = run_phase cfg ~trace:false ~seconds:phase_s in
  let traced = if !trace then Some (run_phase cfg ~trace:true ~seconds:phase_s) else None in
  let layers =
    match traced with None -> [] | Some traced -> trace_report ~untraced ~traced
  in
  let failures = untraced.failures @ Option.fold ~none:[] ~some:(fun t -> t.failures) traced in
  let correct = failures = [] in
  print_metrics
    (Printf.sprintf "%s seed=%d end-to-end, gated:" cfg.workload cfg.seed)
    (gated untraced);
  print_metrics "end-to-end, recorded:" (ungated untraced);
  if layers <> [] then print_metrics "per-layer (traced run):" layers;
  List.iter (fun f -> Printf.printf "MISMATCH %s\n" f) failures;
  let facts =
    [
      ("workload", json_string cfg.workload);
      ("seed", string_of_int cfg.seed);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("quick", string_of_bool !small);
      ("ocaml", json_string Sys.ocaml_version);
      ("connections", string_of_int conns);
      ("load", json_string "closed loop, one request in flight per connection");
      ( "flush_policy",
        json_string
          "Persist.open_db defaults: journal fsync before every ack \
           (journal_sync_every=1), batched by group commit; chunk log fsync every \
           512 chunks" );
      ("value_bytes", string_of_int value_bytes);
      ("page_bytes", string_of_int (if cfg.workload = "wiki" then sz.wiki_page_bytes else 0));
      ("edit_bytes", string_of_int edit_bytes);
      ("bulk_rounds", string_of_int sz.bulk_rounds);
      ("bulk_gets_per_put", string_of_int gets_per_put);
      ( "bulk_puts_per_round",
        string_of_int (if cfg.workload = "wiki" then sz.bulk_wiki else sz.bulk_kv) );
      ( "catchup_round",
        json_string
          (if cfg.workload = "kv" && !trace then
             Printf.sprintf "traced run only: %d values of %d B and %d pages of %d B, %d writes"
               (conns * sz.cu_keys) value_bytes (conns * sz.cu_pages) sz.cu_page_bytes sz.cu_ops
           else "none") );
      ("setups", string_of_int (List.length untraced.setup_s));
    ]
  in
  let oc = open_out !out in
  Printf.fprintf oc
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"mismatches\": [%s],\n\
     \"facts\": {%s},\n\"end_to_end\": %s,\n\"recorded\": %s,\n\"per_layer\": %s}\n"
    correct untraced.ops untraced.failed
    (String.concat ", " (List.map json_string failures))
    (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) facts))
    (json_metrics (gated untraced))
    (json_metrics (ungated untraced))
    (json_metrics layers);
  close_out oc;
  rm_rf !root;
  exit (if correct then 0 else 1)
