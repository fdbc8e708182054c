module Db = Forkbase.Db
module Value = Fbtypes.Value

let listen ?(backlog = 16) ~port () =
  Wire.ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd backlog;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.bound_port: not a TCP socket"

let to_wire_value value =
  match value with
  | Value.Prim p -> Wire.Str (Fbtypes.Prim.to_string p)
  | Value.Blob b -> Wire.Blob (Fbtypes.Fblob.to_string b)
  | Value.List l -> Wire.List (Fbtypes.Flist.to_list l)
  | Value.Map m -> Wire.Map (Fbtypes.Fmap.bindings m)
  | Value.Set s -> Wire.Set (Fbtypes.Fset.elements s)

let of_wire_value db = function
  | Wire.Str s -> Db.str s
  | Wire.Blob b -> Db.blob db b
  | Wire.List l -> Db.list db l
  | Wire.Map kvs -> Db.map db kvs
  | Wire.Set ms -> Db.set db ms

let resolver_of_string = function
  | "" | "manual" -> Ok Forkbase.Merge.Manual
  | "left" -> Ok Forkbase.Merge.Choose_left
  | "right" -> Ok Forkbase.Merge.Choose_right
  | "append" -> Ok Forkbase.Merge.Append
  | "aggregate" -> Ok Forkbase.Merge.Aggregate
  | r -> Error (Printf.sprintf "unknown resolver %S" r)

let of_db_result to_resp = function
  | Ok v -> to_resp v
  | Error e -> Wire.Error (Db.error_to_string e)

let stats_of_db db =
  let s = (Db.store db).Fbchunk.Chunk_store.stats () in
  let keys = Db.list_keys db in
  {
    Wire.chunks = s.Fbchunk.Chunk_store.chunks;
    bytes = s.Fbchunk.Chunk_store.bytes;
    puts = s.Fbchunk.Chunk_store.puts;
    dedup_hits = s.Fbchunk.Chunk_store.dedup_hits;
    gets = s.Fbchunk.Chunk_store.gets;
    misses = s.Fbchunk.Chunk_store.misses;
    keys = List.length keys;
    branches =
      List.fold_left
        (fun n key -> n + List.length (Db.list_tagged_branches db ~key))
        0 keys;
    journal_seq = 0;
    journal_bytes = 0;
    accepted = 0;
    active = 0;
    closed_ok = 0;
    closed_err = 0;
    frames_in = 0;
    frames_out = 0;
    timeouts = 0;
    group_commits = 0;
    acks_released = 0;
    shard_index = -1;
    map_version = 0;
  }

(* Sharded serving (lib/shard): the server owns the slice of the keyspace
   that [route] maps to [self] under the installed partition map, redirects
   everything else to its home shard, and fences keys that are mid-rebalance
   ([pending] in the map) with Retry.  [route] is injected (rather than
   calling Fbcluster.Partition directly) to keep fbremote free of a
   dependency on fbcluster. *)
type shard_role = {
  mutable smap : Wire.shard_map;
  mutable fenced : (string, unit) Hashtbl.t;
  self : int;
  route : servlets:int -> string -> int;
  persist_map : Wire.shard_map -> unit;
}

let fence_table pending =
  let t = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace t k ()) pending;
  t

let shard_role ~self ~route ~persist_map map =
  { smap = map; fenced = fence_table map.Wire.pending; self; route; persist_map }

(* Journal access for replication, provided when the db is backed by a
   journaled durable store (lib/persist; constructed by
   Fbreplica.Replica.journal_hooks). *)
type journal_hooks = {
  j_seq : unit -> int;
  j_bytes : unit -> int;
  j_pull : from_seq:int -> string list;
      (* encoded entries after from_seq, batch-bounded by the provider *)
}

let max_fetch_chunks = 512

(* A request as the event loop holds it: decoded, or a page put whose
   page is still a span of the connection's read buffer.  The span lives
   only as long as the buffer's bytes do, so nothing may keep it past
   [handle_incoming]. *)
type incoming = Request of Wire.request | Page_put of Wire.page_put

let decode_incoming src ~pos ~len =
  match Wire.decode_page_put src ~pos ~len with
  | Some put -> Page_put put
  | None -> Request (Wire.decode_request_sub src ~pos ~len)

(* [checkpoint] is provided when the db is backed by a durable store
   (lib/persist): it runs checkpoint + compaction and returns the
   reclaimed (chunks, bytes).  [journal] makes the server a replication
   source (Pull_journal).  [redirect] puts the server in follower mode:
   write requests are answered with the primary's address instead of
   executing. *)
let handle_incoming ?checkpoint ?journal ?redirect ?shard db incoming :
    Wire.response =
  let write k =
    match redirect with
    | Some (host, port) -> Wire.Redirect { host; port }
    | None -> k ()
  in
  (* Ownership gate for key-addressed client requests on a shard.  Admin /
     replication requests (Fetch_chunks, Push_chunks, Restore_branch,
     Export_key, Pull_journal, map exchange) bypass it: the rebalance
     driver must read from the losing shard and write to the gaining one
     while neither "owns" the key for clients. *)
  let owned key k =
    match shard with
    | None -> k ()
    | Some r ->
        let n = Array.length r.smap.Wire.shards in
        if n = 0 then Wire.Retry { reason = "shard: no partition map installed" }
        else
          let owner = r.route ~servlets:n key in
          if owner <> r.self then
            let host, port = r.smap.Wire.shards.(owner) in
            Wire.Redirect { host; port }
          else if Hashtbl.mem r.fenced key then
            Wire.Retry { reason = "shard: key is migrating" }
          else k ()
  in
  (* The Put case, whichever way the put was decoded: a page goes to
     [Db.put_blob] as a span, any other value is built first. *)
  let put key store = owned key @@ fun () -> write @@ fun () -> Wire.Uid (store ()) in
  let put_page { Wire.key; branch; context; src; pos; len } =
    put key (fun () -> Db.put_blob ~branch ~context db ~key ~pos ~len src)
  in
  match incoming with
  | Page_put page -> put_page page
  | Request req ->
  match req with
  | Wire.Put { key; branch; context; value = Wire.Blob src } ->
      put_page { key; branch; context; src; pos = 0; len = String.length src }
  | Wire.Put { key; branch; context; value } ->
      put key (fun () -> Db.put ~branch ~context db ~key (of_wire_value db value))
  | Wire.Get { key; branch } ->
      owned key @@ fun () ->
      of_db_result (fun v -> Wire.Value (to_wire_value v)) (Db.get ~branch db ~key)
  | Wire.Get_version { uid } ->
      of_db_result (fun v -> Wire.Value (to_wire_value v)) (Db.get_version db uid)
  | Wire.Fork { key; from_branch; new_branch } ->
      owned key @@ fun () ->
      write @@ fun () ->
      of_db_result (fun () -> Wire.Ok_unit) (Db.fork db ~key ~from_branch ~new_branch)
  | Wire.Merge { key; target; ref_branch; resolver } -> (
      owned key @@ fun () ->
      write @@ fun () ->
      match resolver_of_string resolver with
      | Error msg -> Wire.Error msg
      | Ok resolver ->
          of_db_result
            (fun uid -> Wire.Uid uid)
            (Db.merge ~resolver db ~key ~target ~ref_:(`Branch ref_branch)))
  | Wire.Track { key; branch; lo; hi } ->
      owned key @@ fun () ->
      of_db_result
        (fun history -> Wire.History (List.map (fun (d, uid, _) -> (d, uid)) history))
        (Db.track ~branch db ~key ~dist_range:(lo, hi))
  | Wire.List_keys -> Wire.Keys (Db.list_keys db)
  | Wire.List_branches { key } ->
      owned key @@ fun () -> Wire.Branches (Db.list_tagged_branches db ~key)
  | Wire.Verify { uid } -> Wire.Bool (Db.verify_version db uid)
  | Wire.Stats ->
      let s = stats_of_db db in
      let s =
        match journal with
        | None -> s
        | Some j ->
            { s with Wire.journal_seq = j.j_seq (); journal_bytes = j.j_bytes () }
      in
      Wire.Stats_r
        (match shard with
        | None -> s
        | Some r ->
            { s with Wire.shard_index = r.self;
              map_version = r.smap.Wire.version })
  | Wire.Checkpoint -> (
      write @@ fun () ->
      match checkpoint with
      | None -> Wire.Error "checkpoint: server store is not durable"
      | Some run ->
          let chunks, bytes = run () in
          Wire.Reclaimed { chunks; bytes })
  | Wire.Pull_journal { from_seq } -> (
      match journal with
      | None -> Wire.Error "pull_journal: server store is not journaled"
      | Some j ->
          Wire.Journal_batch
            { primary_seq = j.j_seq (); entries = j.j_pull ~from_seq })
  | Wire.Fetch_chunks { cids } ->
      (* Answer with what the store holds; absent cids are silently
         omitted (they may have been compacted away — the puller re-pulls
         and bootstraps from the checkpoint instead).  The request size is
         capped to keep the response under the frame limit. *)
      if List.length cids > max_fetch_chunks then
        Wire.Error
          (Printf.sprintf "fetch_chunks: at most %d cids per request"
             max_fetch_chunks)
      else
        let store = Db.store db in
        Wire.Chunks
          (List.filter_map
             (fun cid ->
               Option.map Fbchunk.Chunk.encode (store.Fbchunk.Chunk_store.get cid))
             cids)
  | Wire.Get_map -> (
      match shard with
      | None -> Wire.Error "get_map: server is not a shard"
      | Some r -> Wire.Map_r r.smap)
  | Wire.Set_map { map } -> (
      match shard with
      | None -> Wire.Error "set_map: server is not a shard"
      | Some r ->
          if map.Wire.version <= r.smap.Wire.version then
            Wire.Error
              (Printf.sprintf "set_map: stale version %d (installed %d)"
                 map.Wire.version r.smap.Wire.version)
          else begin
            r.smap <- map;
            r.fenced <- fence_table map.Wire.pending;
            r.persist_map map;
            Wire.Ok_unit
          end)
  | Wire.Push_chunks { chunks } ->
      write @@ fun () ->
      if List.length chunks > max_fetch_chunks then
        Wire.Error
          (Printf.sprintf "push_chunks: at most %d chunks per request"
             max_fetch_chunks)
      else begin
        let store = Db.store db in
        match
          List.iter
            (fun enc ->
              ignore (store.Fbchunk.Chunk_store.put (Fbchunk.Chunk.decode enc)))
            chunks
        with
        | () -> Wire.Ok_unit
        | exception Fbutil.Codec.Corrupt msg ->
            Wire.Error ("push_chunks: " ^ msg)
      end
  | Wire.Restore_branch { key; branch; uid } ->
      write @@ fun () ->
      of_db_result (fun () -> Wire.Ok_unit) (Db.restore_branch db ~key ~branch uid)
  | Wire.Export_key { key } -> Wire.Branches (Db.list_tagged_branches db ~key)
  | Wire.Quit -> Wire.Ok_unit

let handle ?checkpoint ?journal ?redirect ?shard db req =
  handle_incoming ?checkpoint ?journal ?redirect ?shard db (Request req)

(* --- the event loop --- *)

type counters = {
  mutable accepted : int;
  mutable active : int;
  mutable closed_ok : int;
  mutable closed_err : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable timeouts : int;
  mutable group_commits : int;
  mutable acks_released : int;
  mutable out_peak : int;
}

let fresh_counters () =
  {
    accepted = 0;
    active = 0;
    closed_ok = 0;
    closed_err = 0;
    frames_in = 0;
    frames_out = 0;
    timeouts = 0;
    group_commits = 0;
    acks_released = 0;
    out_peak = 0;
  }

type config = {
  max_conns : int;
  idle_timeout : float;  (* seconds; <= 0. disables the reaper *)
  max_frame_bytes : int;
  drain_timeout : float;  (* grace for flushing responses at shutdown *)
}

let default_config =
  {
    max_conns = 64;
    idle_timeout = 0.;
    max_frame_bytes = Wire.default_max_frame_bytes;
    drain_timeout = 5.;
  }

(* What a finished connection should be counted as. *)
type close_reason = Ok_close | Err_close | Timeout_close

(* One client connection.  The socket is read straight into [rbuf], whose
   bytes [rpos .. rlen) are received and not yet parsed (frames are
   reassembled across partial reads, and decoded where they lie); [wcur]/
   [wpos] plus [wqueue] hold encoded response frames awaiting the socket,
   resumed across partial writes.  [queued] counts the bytes of every
   response produced and not yet written, parked ones included.  A
   [draining] connection takes no further input and is closed — counted
   as [drain_reason] — once its queued output is flushed.  After [eof]
   the peer sends nothing more, but the complete frames it sent are still
   answered. *)
type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  wqueue : string Queue.t;
  mutable wcur : string;
  mutable wpos : int;
  mutable queued : int;
  mutable last_active : float;
  mutable draining : bool;
  mutable drain_reason : close_reason;
  mutable eof : bool;
  mutable holding : bool;
      (* a response of this connection sits in the group-commit pending
         queue this round; later responses must queue behind it to keep
         per-connection request/response order *)
}

let has_output c = c.wpos < String.length c.wcur || not (Queue.is_empty c.wqueue)

let drain c reason =
  c.draining <- true;
  c.drain_reason <- reason

(* Is this request a durable write whose acknowledgement group commit may
   hold back until the batched fsync? *)
let durable_write = function
  | Page_put _
  | Request
      ( Wire.Put _ | Wire.Fork _ | Wire.Merge _ | Wire.Push_chunks _
      | Wire.Restore_branch _ ) ->
      true
  | Request _ -> false

(* Per-round I/O bounds: bytes read from one connection per round (no
   client starves the rest), and the largest write small response
   frames are joined into.  Per connection, parsing pauses once
   [out_budget] bytes of answers wait for the socket, so a deep pipeline
   of page reads is answered in slices the client decodes while the
   server encodes the next. *)
let read_budget = 1 lsl 20
let join_cap = 65536
let out_budget = 256 * 1024

(* The least free space a connection's read buffer offers each read. *)
let read_room = 65536

(* What a connection's unparsed input starting at [at] holds first. *)
type next_frame =
  | Frame of int  (* a complete frame, its body that many bytes *)
  | Oversized of string  (* a header announcing more than the limit *)
  | Partial  (* the start of a frame, or nothing *)

let frame_at ~max_frame_bytes c at =
  let avail = c.rlen - at in
  if avail < Wire.header_bytes then Partial
  else
    let byte i = Bytes.get c.rbuf (at + i) in
    let n = Wire.frame_length (byte 0) (byte 1) (byte 2) (byte 3) in
    match Wire.check_frame_length ~max_frame_bytes n with
    | exception Fbutil.Codec.Corrupt msg -> Oversized msg
    | () -> if avail < Wire.header_bytes + n then Partial else Frame n

let serve ?checkpoint ?journal ?redirect ?shard ?group_commit ?tick
    ?(tick_every = 0.05) ?(now = Clock.monotonic) ?(config = default_config)
    db listen_fd =
  Wire.ignore_sigpipe ();
  Unix.set_nonblock listen_fd;
  (* Periodic work multiplexed into the event loop (a follower's
     replication sync step runs here, between request rounds, so reads
     never observe a half-applied journal entry). *)
  let next_tick =
    ref (match tick with None -> infinity | Some _ -> now ())
  in
  let k = fresh_counters () in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let shutting_down = ref false in
  let shutdown_deadline = ref infinity in
  let close_conn c reason =
    (match reason with
    | Ok_close -> k.closed_ok <- k.closed_ok + 1
    | Err_close -> k.closed_err <- k.closed_err + 1
    | Timeout_close ->
        k.timeouts <- k.timeouts + 1;
        k.closed_ok <- k.closed_ok + 1);
    k.active <- k.active - 1;
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let frame_at = frame_at ~max_frame_bytes:config.max_frame_bytes in
  (* Every response frame is built in this one buffer and copied out
     once. *)
  let out = Buffer.create join_cap in
  let enqueue c frame =
    k.frames_out <- k.frames_out + 1;
    Queue.push frame c.wqueue
  in
  (* Group commit: responses to durable writes are parked here instead of
     being queued on their sockets; once per event-loop round a single
     [group_commit] fsync makes the whole batch durable and every parked
     acknowledgement is released at once.  N concurrent writers pay one
     fsync per round instead of one each, with unchanged per-ack
     durability (no ack leaves before its entry is on disk).  Each parked
     frame says whether it acknowledges a durable write: answers parked
     only to stay behind one ([holding]) are not counted as acks. *)
  let pending : (conn * string * bool) Queue.t = Queue.create () in
  let release_pending () =
    if not (Queue.is_empty pending) then begin
      (match group_commit with Some sync -> sync () | None -> ());
      k.group_commits <- k.group_commits + 1;
      Queue.iter
        (fun ((c : conn), frame, ack) ->
          if ack then k.acks_released <- k.acks_released + 1;
          c.holding <- false;
          (* The connection may have died between park and release (reaped,
             faulted on its write side); only enqueue on the live struct
             still registered under this fd, not a successor that reused
             the descriptor number. *)
          match Hashtbl.find_opt conns c.fd with
          | Some c' when c' == c -> enqueue c frame
          | Some _ | None -> ())
        pending;
      Queue.clear pending
    end
  in
  let park_or_respond c ~ack resp =
    let frame = Wire.response_frame out resp in
    c.queued <- c.queued + String.length frame;
    if c.queued > k.out_peak then k.out_peak <- c.queued;
    if ack || c.holding then begin
      c.holding <- true;
      Queue.push (c, frame, ack) pending
    end
    else enqueue c frame
  in
  (* A [Stats] answer carries the live connection counters alongside the
     db-level ones. *)
  let with_counters = function
    | Wire.Stats_r s ->
        Wire.Stats_r
          {
            s with
            Wire.accepted = k.accepted;
            active = k.active;
            closed_ok = k.closed_ok;
            closed_err = k.closed_err;
            frames_in = k.frames_in;
            frames_out = k.frames_out;
            timeouts = k.timeouts;
            group_commits = k.group_commits;
            acks_released = k.acks_released;
          }
    | resp -> resp
  in
  let begin_shutdown () =
    if not !shutting_down then begin
      shutting_down := true;
      shutdown_deadline := now () +. config.drain_timeout;
      (* stop taking input everywhere; in-flight responses still flush *)
      Hashtbl.iter (fun _ c -> if not c.draining then drain c Ok_close) conns
    end
  in
  (* Parse the complete frames in [c.rbuf], until the connection's
     unwritten output reaches [out_budget]; the rest wait for a later
     round.  A request is decoded where it lies.  The decoder copies every
     string it returns, except the page of a page put: that stays a span
     of [rbuf], which later reads overwrite, so it is handled before the
     next frame is parsed and nothing keeps it. *)
  let process_frames c =
    let continue = ref true in
    while !continue && (not c.draining) && c.queued < out_budget do
      match frame_at c c.rpos with
      | Partial -> continue := false
      | Oversized msg ->
          (* Protocol violation.  Reply with an error (never allocating
             the announced body) and drop the connection — the stream
             position is unrecoverable. *)
          park_or_respond c ~ack:false (Wire.Error ("bad request: " ^ msg));
          drain c Err_close
      | Frame n ->
          let body = c.rpos + Wire.header_bytes in
          c.rpos <- body + n;
          k.frames_in <- k.frames_in + 1;
          let ack, response =
            match
              decode_incoming (Bytes.unsafe_to_string c.rbuf) ~pos:body ~len:n
            with
            | exception Fbutil.Codec.Corrupt msg ->
                (* The frame boundary held but the body is not a request:
                   the same protocol violation as an oversized frame —
                   answer, then drop the connection. *)
                drain c Err_close;
                (false, Wire.Error ("bad request: " ^ msg))
            | Request Wire.Quit ->
                drain c Ok_close;
                begin_shutdown ();
                (false, Wire.Ok_unit)
            | req ->
                (* A durable write's ack waits for the round's commit.
                   Once one response of this connection is parked, every
                   later one this round queues behind it, whatever its
                   request type, to preserve response order. *)
                ( Option.is_some group_commit
                  && Option.is_none redirect && durable_write req,
                  try
                    with_counters
                      (handle_incoming ?checkpoint ?journal ?redirect ?shard db req)
                  with e -> Wire.Error (Printexc.to_string e) )
          in
          park_or_respond c ~ack response
    done;
    (* Everything read is parsed: the next read starts at the front.
       Unparsed bytes stay where they are until a read needs their room
       ([reserve]), so a paused pipeline parsed in many slices does not
       move its tail after each. *)
    if c.rpos = c.rlen then begin
      c.rpos <- 0;
      c.rlen <- 0
    end;
    (* the peer is gone and every frame it sent is answered *)
    if c.eof && c.rpos = c.rlen && not c.draining then
      drain c Ok_close
  in
  (* Parsing paused at the budget resumes once enough output is written:
     the connection is back under it and holds a frame to act on. *)
  let resumable c =
    (not c.draining) && c.queued < out_budget
    && match frame_at c c.rpos with Partial -> false | Frame _ | Oversized _ -> true
  in
  (* Does the unparsed input end inside a frame?  Complete frames held
     back by the budget are pending work; only a frame cut short means the
     peer vanished mid-request. *)
  let ends_mid_frame c =
    let rec walk at =
      at < c.rlen
      &&
      match frame_at c at with
      | Partial -> true
      | Oversized _ -> false
      | Frame n -> walk (at + Wire.header_bytes + n)
    in
    walk c.rpos
  in
  (* Make [read_room] bytes free after [rlen]: move the unparsed bytes
     to the front, into a larger buffer if they need one.  This is the
     only place they move. *)
  let reserve c =
    let size = Bytes.length c.rbuf in
    if size - c.rlen < read_room then begin
      let live = c.rlen - c.rpos in
      let buf =
        if live + read_room <= size then c.rbuf
        else Bytes.create (max (2 * size) (live + read_room))
      in
      Bytes.blit c.rbuf c.rpos buf 0 live;
      c.rbuf <- buf;
      c.rlen <- live;
      c.rpos <- 0
    end
  in
  (* Drain the socket, then parse every complete frame at once, so the
     round's one group commit covers all of them.  The budget bounds
     bytes read, not bytes buffered: a frame of exactly [max_frame_bytes]
     still completes over several rounds. *)
  let handle_readable c =
    let rec fill got =
      if got >= read_budget then `Open
      else begin
        reserve c;
        match
          Wire.read_nb c.fd c.rbuf ~pos:c.rlen ~len:(Bytes.length c.rbuf - c.rlen)
        with
        | Wire.Nb_nothing -> `Open
        | Wire.Nb_read_error -> `Error
        | Wire.Nb_eof -> `Eof
        | Wire.Nb_read n ->
            c.last_active <- now ();
            c.rlen <- c.rlen + n;
            fill (got + n)
      end
    in
    let ended = fill 0 in
    if ended = `Eof then c.eof <- true;
    process_frames c;
    match ended with
    | `Open -> None
    | `Error -> Some Err_close
    | `Eof when (not c.draining) && ends_mid_frame c ->
        (* the peer closed inside a frame: it vanished mid-request *)
        Some Err_close
    | `Eof ->
        (* Peer closed.  Every complete frame it sent is still answered,
           those waiting for the output budget too, and answers queued or
           parked for group commit get a flush attempt; then the
           connection closes as [process_frames] or a Quit or protocol
           violation decided. *)
        None
  in
  (* The next string to put on the socket: a run of small frames joined
     into one write of at most [join_cap] bytes, or a frame too large to
     join as it stands, uncopied. *)
  let join = Buffer.create join_cap in
  let next_output c =
    let joins size =
      match Queue.peek_opt c.wqueue with
      | Some f -> size + String.length f <= join_cap
      | None -> false
    in
    match Queue.take_opt c.wqueue with
    | Some frame when joins (String.length frame) ->
        Buffer.clear join;
        Buffer.add_string join frame;
        while joins (Buffer.length join) do
          Buffer.add_string join (Queue.take c.wqueue)
        done;
        Some (Buffer.contents join)
    | next -> next
  in
  let handle_writable c =
    let result = ref None in
    let continue = ref true in
    while !continue do
      if c.wpos >= String.length c.wcur then
        match next_output c with
        | None ->
            continue := false;
            if c.draining then result := Some c.drain_reason
        | Some out ->
            c.wcur <- out;
            c.wpos <- 0
      else
        match
          Wire.write_nb c.fd c.wcur ~pos:c.wpos
            ~len:(String.length c.wcur - c.wpos)
        with
        | Wire.Nb_wrote n ->
            c.wpos <- c.wpos + n;
            c.queued <- c.queued - n;
            c.last_active <- now ()
        | Wire.Nb_blocked -> continue := false
        | Wire.Nb_write_error ->
            continue := false;
            result := Some Err_close
    done;
    !result
  in
  let accept_new () =
    let continue = ref true in
    while !continue && (not !shutting_down) && k.active < config.max_conns do
      match Wire.accept_nb listen_fd with
      | None -> continue := false
      | Some (fd, _peer) ->
          Unix.set_nonblock fd;
          k.accepted <- k.accepted + 1;
          k.active <- k.active + 1;
          Hashtbl.replace conns fd
            {
              fd;
              rbuf = Bytes.empty;
              rpos = 0;
              rlen = 0;
              wqueue = Queue.create ();
              wcur = "";
              wpos = 0;
              queued = 0;
              last_active = now ();
              draining = false;
              drain_reason = Ok_close;
              eof = false;
              holding = false;
            }
    done
  in
  let finished () =
    !shutting_down
    && (Hashtbl.length conns = 0 || now () > !shutdown_deadline)
  in
  while not (finished ()) do
    (* A draining connection with nothing left to flush is done — close
       it now rather than waiting out the drain deadline.  (No answer is
       parked here: every round ends by releasing them.) *)
    let done_ =
      Hashtbl.fold
        (fun _ c acc -> if c.draining && not (has_output c) then c :: acc else acc)
        conns []
    in
    List.iter (fun c -> close_conn c c.drain_reason) done_;
    let t_now = now () in
    (* While shutting down or at the connection cap, leave the listener out
       of the read set: new clients wait in the backlog instead of being
       multiplexed. *)
    let accepting = (not !shutting_down) && k.active < config.max_conns in
    let read_fds = ref (if accepting then [ listen_fd ] else []) in
    let write_fds = ref [] in
    Hashtbl.iter
      (fun fd c ->
        if not (c.draining || c.eof) then read_fds := fd :: !read_fds;
        if has_output c then write_fds := fd :: !write_fds)
      conns;
    let timeout =
      let idle =
        if config.idle_timeout <= 0. then infinity
        else
          Hashtbl.fold
            (fun _ c acc ->
              Float.min acc (c.last_active +. config.idle_timeout -. t_now))
            conns infinity
      in
      let drain =
        if !shutting_down then !shutdown_deadline -. t_now else infinity
      in
      let tick_in =
        if !shutting_down then infinity else !next_tick -. t_now
      in
      match Float.min (Float.min idle drain) tick_in with
      | _ when Hashtbl.fold (fun _ c acc -> acc || resumable c) conns false ->
          0. (* parsing to resume: poll, then get on with it *)
      | t when t = infinity -> -1. (* block until a descriptor is ready *)
      | t -> Float.max 0.01 t
    in
    match Wire.select_nb !read_fds !write_fds timeout with
    | readable, writable ->
        (* Each connection's events are fault-isolated: any error closes
           that connection only and lands in the counters. *)
        let write_out fds =
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                  match handle_writable c with
                  | Some reason -> close_conn c reason
                  | None -> ()))
            fds
        in
        (* A connection with answers queued and no new input has a client
           waiting on them: flush it before this round's reads drain and
           run page puts from other connections.  One that is still
           sending is written after the round's commit instead, so it has
           nothing queued at the next [select] and a streaming client's
           acks leave every other round; pipelined page puts ran faster
           this way than with every write before the reads
           (EXPERIMENTS.md). *)
        let sending, waiting =
          List.partition (fun fd -> List.exists (fun r -> r = fd) readable) writable
        in
        write_out waiting;
        List.iter
          (fun fd ->
            if fd = listen_fd then accept_new ()
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                  match handle_readable c with
                  | Some reason -> close_conn c reason
                  | None -> ()))
          readable;
        (* Connections whose written output took them back under the
           budget parse their next slice, in this round's commit. *)
        Hashtbl.iter (fun _ c -> if resumable c then process_frames c) conns;
        (* All of this round's requests are handled: one fsync commits the
           round's durable writes and releases every parked ack, before
           the still-sending connections' write pass so their freshly
           released answers go out with anything already queued. *)
        release_pending ();
        write_out sending;
        if config.idle_timeout > 0. then begin
          let t_now = now () in
          let stale =
            Hashtbl.fold
              (fun _ c acc ->
                if t_now -. c.last_active > config.idle_timeout then c :: acc
                else acc)
              conns []
          in
          List.iter (fun c -> close_conn c Timeout_close) stale
        end;
        (match tick with
        | Some f when (not !shutting_down) && now () >= !next_tick ->
            (* A tick failure (e.g. the replication primary vanished) must
               not take the read path down with it. *)
            (try f () with _ -> ()) (* lint: allow no-swallow *);
            next_tick := now () +. tick_every
        | _ -> ())
  done;
  (* Drain deadline passed or every response flushed: whatever remains is
     force-closed in an orderly way. *)
  Hashtbl.fold (fun _ c acc -> c :: acc) conns []
  |> List.iter (fun c -> close_conn c Ok_close);
  Unix.close listen_fd;
  k
