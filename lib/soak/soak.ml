module Splitmix = Fbutil.Splitmix
module Client = Fbremote.Client
module Procs = Fbremote.Procs
module Proc = Fbreplica.Proc
module Replica = Fbreplica.Replica
module Wire = Fbremote.Wire
module Shard = Fbshard.Shard
module Shard_map = Fbshard.Shard_map
module Dispatch = Fbshard.Dispatch
module Failpoint = Fbcheck.Failpoint
module Fsck = Fbcheck.Fsck
module Convergence = Fbcheck.Convergence

(* ------------------------------------------------------------------ *)
(* configuration *)

type config = {
  seed : int64;
  total_ops : int;
  followers : int;
  chaos_events : int;
  sync_every : int;
  verify_every : int;
  kv_keys : int;
  wiki_pages : int;
  accounts : int;
  theta : float;
  page_bytes : int;
  value_bytes : int;
  deadline : float option;
  sabotage_at : int option;
  scratch : string option;
  keep_scratch : bool;
  log : string -> unit;
}

let short_config ?(seed = 0x50AC_2026L) ?(ops = 400) ?(log = ignore) () =
  {
    seed;
    total_ops = ops;
    followers = 2;
    chaos_events = 5;
    sync_every = 8;
    verify_every = max 40 (ops / 3);
    kv_keys = 160;
    wiki_pages = 24;
    accounts = 32;
    theta = 0.7;
    page_bytes = 600;
    value_bytes = 40;
    deadline = None;
    sabotage_at = None;
    scratch = None;
    keep_scratch = false;
    log;
  }

let long_config ?(seed = 0x50AC_2026L) ?(seconds = 60.) ?(ops = 50_000)
    ?(log = ignore) () =
  {
    (short_config ~seed ~ops ~log ()) with
    followers = 2;
    chaos_events = max 8 (ops / 2_000);
    verify_every = max 500 (ops / 20);
    kv_keys = 2_000;
    wiki_pages = 200;
    accounts = 400;
    page_bytes = 2_000;
    value_bytes = 120;
    deadline = Some seconds;
  }

(* ------------------------------------------------------------------ *)
(* outcome and failure *)

type outcome = {
  ops_done : int;
  events_fired : (string * int) list;
  inline_checks : int;
  full_verifies : int;
  stores_fscked : int;
  convergence_checks : int;
  model_checks : int;
  faults_injected : int;
  ops_by_app : (string * int) list;
  timed_out : bool;
}

type failure = {
  f_seed : int64;
  f_at_op : int;
  f_what : string;
  f_detail : string list;
  f_schedule : string list;
  f_fired : string list;
  f_scratch : string;
  f_replay : string;
}

exception Soak_failed of failure

let failure_report f =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "SOAK FAILURE at op %d (seed 0x%Lx): %s\n" f.f_at_op
       f.f_seed f.f_what);
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) f.f_detail;
  Buffer.add_string b "chaos schedule:\n";
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) f.f_schedule;
  Buffer.add_string b
    (Printf.sprintf "events fired before the failure: %d\n"
       (List.length f.f_fired));
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) f.f_fired;
  Buffer.add_string b ("stores kept for post-mortem: " ^ f.f_scratch ^ "\n");
  Buffer.add_string b ("replay: " ^ f.f_replay ^ "\n");
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Soak_failed f -> Some (failure_report f)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* scratch directories *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_scratch cfg =
  match cfg.scratch with
  | Some d ->
      (try Unix.mkdir d 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      d
  | None ->
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "forkbase-soak-%d-%Lx" (Unix.getpid ()) cfg.seed)
      in
      rm_rf d;
      Unix.mkdir d 0o755;
      d

(* ------------------------------------------------------------------ *)
(* the driver's state, shared by both topologies *)

type driver = {
  cfg : config;
  schedule : Chaos.scheduled list;
  replay : string;
  scratch : string;
  mutable op : int;
  mutable full_verifies : int;
  mutable stores_fscked : int;
  mutable convergence_checks : int;
  mutable model_checks : int;
  mutable faults_injected : int;
}

(* Slots are distinct and fire in order, so the events fired so far are
   the schedule's prefix up to the current op. *)
let fired d = List.filter (fun { Chaos.at; _ } -> at <= d.op) d.schedule

let fail d ~what ~detail =
  raise
    (Soak_failed
       {
         f_seed = d.cfg.seed;
         f_at_op = d.op;
         f_what = what;
         f_detail = detail;
         f_schedule = List.map Chaos.scheduled_to_string d.schedule;
         f_fired = List.map Chaos.scheduled_to_string (fired d);
         f_scratch = d.scratch;
         f_replay = d.replay;
       })

(* The command that reruns [cfg]: a deadline means the long profile. *)
let replay_command cfg ~shards =
  Printf.sprintf "forkbase soak --profile %s%s --ops %d --seed 0x%Lx"
    (match cfg.deadline with
    | None -> "short"
    | Some s -> Printf.sprintf "long --seconds %g" s)
    (match shards with None -> "" | Some n -> Printf.sprintf " --shards %d" n)
    cfg.total_ops cfg.seed

let fsck_dir_clean d ~ctx dir =
  let report = Fsck.check_dir dir in
  d.stores_fscked <- d.stores_fscked + 1;
  if not (Fsck.ok report) then
    fail d
      ~what:(Printf.sprintf "fsck violations in %s (%s)" dir ctx)
      ~detail:(List.map Fsck.violation_to_string report.Fsck.violations)

(* What a topology contributes to a run; [drive] owns the rest. *)
type topology = {
  fire : Chaos.event -> unit;  (* one scheduled chaos event, at [d.op] *)
  step : unit -> unit;  (* one workload operation, at [d.op] *)
  verify : string -> unit;  (* quiesce and assert every invariant *)
  shutdown : unit -> (string * string) list;
      (* stop gracefully; every store to fsck, as (context, dir) *)
  teardown : unit -> unit;  (* release what is left, failed or not *)
  inline_checks : unit -> int;
  ops_by_app : unit -> (string * int) list;
}

let not_in_topology ev =
  invalid_arg ("Soak: no " ^ Chaos.kind_name ev ^ " event in this topology")

(* ------------------------------------------------------------------ *)
(* replicated topology: a primary process plus in-process followers *)

type fnode = {
  mutable rep : Replica.t;
  mutable fdir : string;
  mutable fp : Failpoint.t;  (* current fault plan (disarmed = clean) *)
}

type st = {
  d : driver;
  apps : Apps.t;
  port : int;  (* stable across restarts and promotions *)
  mutable primary : Procs.t;
  mutable pdir : string;
  mutable client : Client.t;
  fols : fnode array;
  mutable fault_until : int option;
}

(* Connect to the respawned primary, then close the old socket: the
   client is always one open connection, which teardown closes. *)
let reconnect st =
  let old = st.client in
  st.client <- Client.connect ~retries:100 ~port:st.port ();
  Client.close old

let open_fnode st fn =
  fn.rep <-
    Replica.open_follower
      ~wrap_store:(Failpoint.store fn.fp)
      ~retries:10 ~dir:fn.fdir ~host:"127.0.0.1" ~port:st.port ()

(* A plan's [Failpoint.injected] counts every fault that fired (dropped
   reads included, which never raise); fold it into the run total when
   the plan is retired. *)
let retire_fp st fn next =
  st.d.faults_injected <- st.d.faults_injected + Failpoint.injected fn.fp;
  fn.fp <- next

let sync_once fn =
  match Replica.sync_step fn.rep with
  | (_ : Replica.progress) -> ()
  | exception Fbchunk.Chunk_store.Injected_fault _ ->
      (* an injected backfill failure; the next sync round retries *)
      ()

let catch_up st fn ~who =
  let gone = ref 0 in
  let rec go budget =
    if budget = 0 then
      fail st.d ~what:(who ^ " failed to catch up")
        ~detail:
          [
            Printf.sprintf "lag still %d after sync budget exhausted"
              (Replica.lag fn.rep);
          ]
    else
      match Replica.sync_step fn.rep with
      | exception Fbchunk.Chunk_store.Injected_fault _ -> go (budget - 1)
      | Replica.Caught_up when Replica.lag fn.rep = 0 -> ()
      | Replica.Primary_gone ->
          incr gone;
          if !gone > 5 then
            fail st.d ~what:(who ^ ": primary unreachable during catch-up")
              ~detail:[ Printf.sprintf "%d consecutive failed pulls" !gone ]
          else go (budget - 1)
      | (_ : Replica.progress) ->
          gone := 0;
          go (budget - 1)
  in
  go 5_000

let with_faults_paused st f =
  let armed = st.fault_until <> None in
  if armed then Array.iter (fun fn -> Failpoint.disarm fn.fp) st.fols;
  Fun.protect
    ~finally:(fun () ->
      if armed then Array.iter (fun fn -> Failpoint.arm fn.fp) st.fols)
    f

let disarm_all st =
  Array.iter (fun fn -> Failpoint.disarm fn.fp) st.fols;
  st.fault_until <- None

let client_heads c =
  Convergence.normalize
    (List.map
       (fun key ->
         ( key,
           List.map
             (fun (b, cid) -> (b, Fbchunk.Cid.to_hex cid))
             (Client.list_branches c ~key) ))
       (Client.list_keys c))

(* Quiesce and assert everything: followers caught up, heads converged,
   application state model-consistent on every store, follower stores
   fsck-clean. *)
let verify_all st ~reason =
  let d = st.d in
  with_faults_paused st @@ fun () ->
  Array.iteri
    (fun i fn -> catch_up st fn ~who:(Printf.sprintf "follower %d" i))
    st.fols;
  let primary_heads = client_heads st.client in
  Array.iteri
    (fun i fn ->
      let fh = Convergence.of_db (Replica.db fn.rep) in
      d.convergence_checks <- d.convergence_checks + 1;
      let diverged =
        Convergence.diff ~left_name:"primary"
          ~right_name:(Printf.sprintf "follower %d" i)
          ~left:primary_heads ~right:fh
      in
      if diverged <> [] then
        fail d
          ~what:(Printf.sprintf "replication diverged (%s)" reason)
          ~detail:diverged)
    st.fols;
  let model_diff = Apps.check_client st.apps st.client in
  d.model_checks <- d.model_checks + 1;
  if model_diff <> [] then
    fail d
      ~what:(Printf.sprintf "primary state diverged from the model (%s)" reason)
      ~detail:model_diff;
  Array.iteri
    (fun i fn ->
      let diff = Apps.check_db st.apps (Replica.db fn.rep) in
      d.model_checks <- d.model_checks + 1;
      if diff <> [] then
        fail d
          ~what:
            (Printf.sprintf "follower %d state diverged from the model (%s)" i
               reason)
          ~detail:diff;
      let report = Fsck.check_db (Replica.db fn.rep) in
      d.stores_fscked <- d.stores_fscked + 1;
      if not (Fsck.ok report) then
        fail d
          ~what:(Printf.sprintf "fsck violations on follower %d (%s)" i reason)
          ~detail:(List.map Fsck.violation_to_string report.Fsck.violations))
    st.fols;
  d.full_verifies <- d.full_verifies + 1;
  d.cfg.log
    (Printf.sprintf "[op %d] verify ok (%s): %d keys converged on %d followers"
       d.op reason (List.length primary_heads) (Array.length st.fols))

let fire st = function
  | Chaos.Fault_followers { fp_seed; arm_ops } ->
      (* fresh per-follower fault plans from the event's seed; reopening
         the follower (a crash-recoverable restart in itself) is what
         threads the plan into its store *)
      let s = Splitmix.create fp_seed in
      Array.iter
        (fun fn ->
          Replica.close fn.rep;
          retire_fp st fn
            (Failpoint.random ~seed:(Splitmix.next s) ~ops:4096 ~put_fail:0.15
               ~get_drop:0.15 ());
          (* the store must reopen (recovery reads its own files) before
             the plan starts firing *)
          Failpoint.disarm fn.fp;
          open_fnode st fn;
          Failpoint.arm fn.fp)
        st.fols;
      st.fault_until <- Some (st.d.op + arm_ops)
  | Chaos.Kill_restart_primary ->
      Procs.kill st.primary;
      fsck_dir_clean st.d ~ctx:"primary store after SIGKILL" st.pdir;
      st.primary <- Proc.spawn_primary ~port:st.port ~dir:st.pdir ();
      reconnect st;
      verify_all st ~reason:"after kill-restart"
  | Chaos.Force_compaction ->
      let chunks, bytes = Client.checkpoint st.client in
      st.d.cfg.log
        (Printf.sprintf "[op %d] compaction reclaimed %d chunks, %d bytes"
           st.d.op chunks bytes);
      (* let the followers race the fresh snapshot right away *)
      Array.iter sync_once st.fols;
      verify_all st ~reason:"after forced compaction"
  | Chaos.Promote_follower ->
      (* quiesce, then fail over to follower 0's store on the same port *)
      disarm_all st;
      Array.iteri
        (fun i fn -> catch_up st fn ~who:(Printf.sprintf "follower %d" i))
        st.fols;
      Procs.kill st.primary;
      fsck_dir_clean st.d ~ctx:"old primary after SIGKILL" st.pdir;
      let fn0 = st.fols.(0) in
      Replica.close fn0.rep;
      fsck_dir_clean st.d ~ctx:"follower store about to be promoted" fn0.fdir;
      let old_pdir = st.pdir in
      st.pdir <- fn0.fdir;
      st.primary <- Proc.spawn_primary ~port:st.port ~dir:st.pdir ();
      (* recycle the old primary's store as a fresh follower: it is a
         complete durable store, so it bootstraps by journal pull *)
      fn0.fdir <- old_pdir;
      retire_fp st fn0 (Failpoint.none ());
      open_fnode st fn0;
      reconnect st;
      verify_all st ~reason:"after promotion"
  | (Chaos.Kill_restart_shard _ | Chaos.Add_shard) as ev -> not_in_topology ev

(* the deliberate-corruption hook: prove a damaged store cannot pass *)
let sabotage st =
  let fn0 = st.fols.(0) in
  Replica.close fn0.rep;
  let path = Filename.concat fn0.fdir "chunks.log" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let i = ref (len / 2) in
  while !i < len do
    Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0x55));
    i := !i + 131
  done;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  st.d.cfg.log
    (Printf.sprintf "[op %d] sabotage: corrupted %s from byte %d" st.d.op path
       (len / 2));
  let report = Fsck.check_dir fn0.fdir in
  st.d.stores_fscked <- st.d.stores_fscked + 1;
  if Fsck.ok report then
    fail st.d ~what:"sabotaged store passed fsck"
      ~detail:[ "corruption was injected but no violation was reported" ]
  else
    fail st.d ~what:"fsck violations on follower 0 (sabotaged store)"
      ~detail:(List.map Fsck.violation_to_string report.Fsck.violations)

let replicated d =
  let cfg = d.cfg in
  let store i = Filename.concat d.scratch (Printf.sprintf "store-%d" i) in
  let primary = Proc.spawn_primary ~dir:(store 0) () in
  let port = Procs.port primary in
  let fols =
    Array.init cfg.followers (fun i ->
        {
          rep =
            Replica.open_follower ~retries:10 ~dir:(store (i + 1))
              ~host:"127.0.0.1" ~port ();
          fdir = store (i + 1);
          fp = Failpoint.none ();
        })
  in
  let st =
    {
      d;
      apps =
        Apps.create ~seed:cfg.seed ~kv_keys:cfg.kv_keys
          ~wiki_pages:cfg.wiki_pages ~accounts:cfg.accounts ~theta:cfg.theta
          ~page_bytes:cfg.page_bytes ~value_bytes:cfg.value_bytes;
      port;
      primary;
      pdir = store 0;
      client = Client.connect ~retries:100 ~port ();
      fols;
      fault_until = None;
    }
  in
  {
    fire = fire st;
    step =
      (fun () ->
        (match cfg.sabotage_at with
        | Some n when n = d.op -> sabotage st
        | _ -> ());
        (* fault window closing? heal, then verify everything *)
        (match st.fault_until with
        | Some u when d.op >= u ->
            disarm_all st;
            verify_all st ~reason:"after fault window"
        | _ -> ());
        Apps.step st.apps st.client ~op:d.op;
        if d.op mod cfg.sync_every = 0 then Array.iter sync_once st.fols);
    verify = (fun reason -> verify_all st ~reason);
    shutdown =
      (fun () ->
        disarm_all st;
        (try Client.quit_server st.client
         with Client.Disconnected | Unix.Unix_error _ ->
           (* the server may already be draining *)
           ());
        Procs.reap st.primary;
        Array.iter
          (fun fn ->
            Replica.close fn.rep;
            retire_fp st fn (Failpoint.none ()))
          st.fols;
        ("primary store after shutdown", st.pdir)
        :: List.mapi
             (fun i fn ->
               (Printf.sprintf "follower %d store after shutdown" i, fn.fdir))
             (Array.to_list st.fols));
    teardown =
      (fun () ->
        Client.close st.client;
        Procs.kill st.primary;
        (* a no-op on the stores shutdown already closed *)
        Array.iter (fun fn -> Replica.crash fn.rep) st.fols);
    inline_checks = (fun () -> Apps.inline_checks st.apps);
    ops_by_app = (fun () -> Apps.ops_by_app st.apps);
  }

(* ------------------------------------------------------------------ *)
(* sharded topology: a dispatcher over N shard processes *)

let sharded ~shards d =
  let cfg = d.cfg in
  let shard_dir i = Filename.concat d.scratch (Printf.sprintf "shard-%d" i) in
  let procs, map =
    Shard.spawn_cluster ~dirs:(List.init shards shard_dir) ()
  in
  let procs = ref procs in
  let disp = Dispatch.of_map map in
  let rng = Splitmix.create cfg.seed in
  let zipf = Workload.Zipf.create ~n:cfg.kv_keys ~theta:cfg.theta in
  (* the oracle: last acknowledged value per key; an acknowledged write
     that later reads differently is a lost write *)
  let acked : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let inline_checks = ref 0 in
  let puts = ref 0 and gets = ref 0 and branch_ops = ref 0 in
  let check_key key =
    match Hashtbl.find_opt acked key with
    | None -> ()
    | Some expect -> (
        incr inline_checks;
        match Dispatch.get disp ~key with
        | Wire.Str got when got = expect -> ()
        | Wire.Str got ->
            fail d ~what:"acknowledged write lost"
              ~detail:
                [ Printf.sprintf "%s: expected %S got %S" key expect got ]
        | _ -> fail d ~what:"value shape changed" ~detail:[ key ]
        | exception e ->
            fail d ~what:("read failed: " ^ Printexc.to_string e) ~detail:[ key ])
  in
  let value () =
    Printf.sprintf "op%d:%s" d.op (Splitmix.alphanum rng cfg.value_bytes)
  in
  let step () =
    let key = Printf.sprintf "kv-%d" (Workload.Zipf.sample zipf rng) in
    let roll = Splitmix.int rng 10 in
    if roll < 6 then begin
      incr puts;
      let v = value () in
      let (_ : Fbchunk.Cid.t) = Dispatch.put disp ~key (Wire.Str v) in
      Hashtbl.replace acked key v
    end
    else if roll < 9 then begin
      incr gets;
      check_key key
    end
    else begin
      (* exercise the versioned ops across the wire: fork a branch, write
         it, merge it back — the merged value becomes the acknowledged
         head *)
      incr branch_ops;
      if Hashtbl.mem acked key then begin
        let b = Printf.sprintf "soak-%d" d.op in
        Dispatch.fork disp ~key ~from_branch:"master" ~new_branch:b;
        let v = value () in
        let (_ : Fbchunk.Cid.t) = Dispatch.put disp ~branch:b ~key (Wire.Str v) in
        let (_ : Fbchunk.Cid.t) =
          Dispatch.merge disp ~key ~target:"master" ~ref_branch:b
        in
        Hashtbl.replace acked key v
      end
    end
  in
  let fire = function
    | Chaos.Kill_restart_shard i ->
        procs :=
          List.mapi
            (fun j p ->
              if j <> i then p
              else begin
                Procs.kill p;
                Shard.spawn ~port:(Procs.port p) ~dir:(shard_dir j) ~self:j
                  ~map:(Dispatch.map disp) ()
              end)
            !procs
    | Chaos.Add_shard ->
        let self = Shard_map.n (Dispatch.map disp) in
        let p =
          Shard.spawn ~dir:(shard_dir self) ~self ~map:(Dispatch.map disp) ()
        in
        procs := !procs @ [ p ];
        let moved =
          Dispatch.add_shard disp ~host:"127.0.0.1" ~port:(Procs.port p)
        in
        cfg.log
          (Printf.sprintf "[op %d] rebalance moved %d keys to shard %d" d.op
             moved self)
    | ( Chaos.Fault_followers _ | Chaos.Kill_restart_primary
      | Chaos.Force_compaction | Chaos.Promote_follower ) as ev ->
        not_in_topology ev
  in
  {
    fire;
    step;
    (* every oracle entry must read back: whatever shard a key lives on
       after kills and rebalances, its head is the last acknowledged
       write *)
    verify =
      (fun reason ->
        d.full_verifies <- d.full_verifies + 1;
        Hashtbl.iter (fun key _ -> check_key key) acked;
        d.convergence_checks <- d.convergence_checks + 1;
        cfg.log
          (Printf.sprintf "[op %d] verify ok (%s): %d acked keys read back"
             d.op reason (Hashtbl.length acked)));
    shutdown =
      (fun () ->
        Dispatch.quit_all disp;
        List.iter Procs.reap !procs;
        List.mapi
          (fun i _ ->
            (Printf.sprintf "shard %d store after shutdown" i, shard_dir i))
          !procs);
    teardown =
      (fun () ->
        List.iter Procs.kill !procs;
        Dispatch.close disp);
    inline_checks = (fun () -> !inline_checks);
    ops_by_app =
      (fun () -> [ ("put", !puts); ("get", !gets); ("branch", !branch_ops) ]);
  }

(* ------------------------------------------------------------------ *)
(* the run *)

let drive cfg ~shards ~schedule ~kinds topology =
  if cfg.total_ops < 10 then invalid_arg "Soak: need at least 10 ops";
  let scratch = fresh_scratch cfg in
  List.iter (fun s -> cfg.log ("scheduled " ^ Chaos.scheduled_to_string s))
    schedule;
  let d =
    {
      cfg;
      schedule;
      replay = replay_command cfg ~shards;
      scratch;
      op = 0;
      full_verifies = 0;
      stores_fscked = 0;
      convergence_checks = 0;
      model_checks = 0;
      faults_injected = 0;
    }
  in
  let t = topology d in
  let started =
    match cfg.deadline with None -> 0. | Some _ -> Unix.gettimeofday ()
  in
  let over_deadline () =
    match cfg.deadline with
    | None -> false
    | Some s -> Unix.gettimeofday () -. started > s
  in
  let failed = ref true in
  Fun.protect
    ~finally:(fun () ->
      t.teardown ();
      if (not !failed) && not cfg.keep_scratch then rm_rf scratch)
  @@ fun () ->
  let result =
    try
      let timed_out = ref false in
      while (not !timed_out) && d.op < cfg.total_ops do
        d.op <- d.op + 1;
        List.iter
          (fun ({ Chaos.at; event } as s) ->
            if at = d.op then begin
              cfg.log ("chaos " ^ Chaos.scheduled_to_string s);
              t.fire event
            end)
          schedule;
        t.step ();
        if d.op mod cfg.verify_every = 0 then t.verify "periodic";
        if d.op land 63 = 0 && over_deadline () then timed_out := true
      done;
      t.verify "final";
      (* graceful shutdown, then fsck every store from its directory *)
      List.iter (fun (ctx, dir) -> fsck_dir_clean d ~ctx dir) (t.shutdown ());
      let fired_kinds =
        List.map (fun { Chaos.event; _ } -> Chaos.kind_name event) (fired d)
      in
      {
        ops_done = d.op;
        events_fired =
          List.map
            (fun k -> (k, List.length (List.filter (String.equal k) fired_kinds)))
            kinds;
        inline_checks = t.inline_checks ();
        full_verifies = d.full_verifies;
        stores_fscked = d.stores_fscked;
        convergence_checks = d.convergence_checks;
        model_checks = d.model_checks;
        faults_injected = d.faults_injected;
        ops_by_app = t.ops_by_app ();
        timed_out = !timed_out;
      }
    with
    | Soak_failed _ as e -> raise e
    | Apps.Mismatch lines ->
        fail d ~what:"inline read-back diverged from the model" ~detail:lines
    | e ->
        fail d
          ~what:("unexpected exception: " ^ Printexc.to_string e)
          ~detail:(String.split_on_char '\n' (Printexc.get_backtrace ()))
  in
  failed := false;
  result

let run cfg =
  if cfg.followers < 1 then invalid_arg "Soak.run: need at least one follower";
  drive cfg ~shards:None ~kinds:Chaos.all_kind_names
    ~schedule:
      (Chaos.schedule ~seed:cfg.seed ~total_ops:cfg.total_ops
         ~events:cfg.chaos_events)
    replicated

let run_sharded ~shards cfg =
  if shards < 2 then invalid_arg "Soak.run_sharded: need at least 2 shards";
  drive cfg ~shards:(Some shards) ~kinds:Chaos.shard_kind_names
    ~schedule:(Chaos.shard_schedule ~total_ops:cfg.total_ops)
    (sharded ~shards)
