(* [cached] holds the decoded chunk while it is resident in the read
   cache.  Chunks are immutable and content-addressed, so a resident copy
   can never go stale. *)
type slot = { off : int; len : int; mutable cached : Chunk.t option }

let cache_budget = 32 * 1024 * 1024
let entry_tag = 'J'
let entry_prefix = String.make 1 entry_tag

type t = {
  file : string;
  oc : out_channel;
  ic : in_channel;
  index : slot Cid.Tbl.t;
  resident : slot Queue.t; (* cached slots, oldest insertion first *)
  mutable cached_bytes : int; (* sum of [len] over [resident] *)
  stats : Chunk_store.stats;
  mutable entry_bytes : int;
  mutable tail : int; (* logical end of log *)
}

exception
  Corrupt_log of { file : string; off : int; reason : string }

(* Read one record length; None at EOF, including EOF inside the header
   (a torn tail).  Bounded like {!Fbutil.Codec.read_varint}: a header
   whose continuation bits run past shift 56, or that decodes negative,
   cannot be a record length — without the bound a corrupt header can
   decode to a negative length that slips past the torn-tail guard and
   crashes [Bytes.create] with [Invalid_argument] instead of reporting
   corruption. *)
let read_length ic =
  let rec loop shift acc =
    match input_char ic with
    | exception End_of_file -> None
    | c ->
        let b = Char.code c in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then
          if acc < 0 then raise (Fbutil.Codec.Corrupt "negative record length")
          else Some acc
        else if shift >= 56 then
          raise (Fbutil.Codec.Corrupt "record length varint too long")
        else loop (shift + 7) acc
  in
  loop 0 0

(* The one framed-record reader.  Calls [f ~off ~data body] for every
   complete record of [ic] from offset 0 ([off]: record start, [data]:
   body start) and returns the offset just past the last complete one —
   the torn-tail truncation point.  A length overrunning the file is a
   torn tail; checking before reading also keeps a corrupt (huge) length
   from forcing a giant allocation.  An implausible header, or a body [f]
   rejects, is bit rot mid-log: fail loudly and name the spot instead of
   silently dropping the record and everything after it. *)
let fold_records ~file ic f =
  seek_in ic 0;
  let file_len = in_channel_length ic in
  let rec go () =
    let off = pos_in ic in
    match read_length ic with
    | exception Fbutil.Codec.Corrupt reason ->
        raise (Corrupt_log { file; off; reason })
    | None -> off
    | Some len when len > file_len - pos_in ic -> off
    | Some len ->
        let data = pos_in ic in
        let body = really_input_string ic len in
        (try f ~off ~data body
         with Fbutil.Codec.Corrupt reason ->
           raise (Corrupt_log { file; off; reason }));
        go ()
  in
  go ()

let records path =
  In_channel.with_open_bin path @@ fun ic ->
  let acc = ref [] in
  let (_ : int) =
    fold_records ~file:path ic (fun ~off ~data:_ body ->
        acc := (off, body) :: !acc)
  in
  List.rev !acc

let payload body = String.sub body 1 (String.length body - 1)

let replay t on_entry =
  t.tail <-
    fold_records ~file:t.file t.ic (fun ~off ~data body ->
        let len = String.length body in
        if String.starts_with ~prefix:entry_prefix body then begin
          on_entry off (payload body);
          t.entry_bytes <- t.entry_bytes + data + len - off
        end
        else begin
          let (_ : Chunk.t) = Chunk.decode body in
          let cid = Cid.digest body in
          if not (Cid.Tbl.mem t.index cid) then begin
            t.stats.chunks <- t.stats.chunks + 1;
            t.stats.bytes <- t.stats.bytes + len
          end;
          Cid.Tbl.replace t.index cid { off = data; len; cached = None }
        end)

let open_ ?(on_entry = fun _ _ -> ()) file =
  (* Ensure the file exists before opening the read side. *)
  let oc0 = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 file in
  close_out oc0;
  let ic = open_in_gen [ Open_rdonly; Open_binary ] 0o644 file in
  let t =
    {
      file;
      oc = stdout (* replaced below, after the torn tail is dropped *);
      ic;
      index = Cid.Tbl.create 4096;
      resident = Queue.create ();
      cached_bytes = 0;
      stats = Chunk_store.fresh_stats ();
      entry_bytes = 0;
      tail = 0;
    }
  in
  (try replay t on_entry
   with e ->
     close_in ic;
     raise e);
  (* A crash mid-append can leave a torn record after [tail]; truncate it
     so new appends continue from the last complete record.  The read
     channel may still buffer bytes from the dropped tail, so reopen it:
     a [seek_in] landing inside that buffer would otherwise serve stale
     bytes where freshly appended records now live. *)
  if t.tail < in_channel_length t.ic then Unix.truncate file t.tail;
  close_in ic;
  let ic = open_in_gen [ Open_rdonly; Open_binary ] 0o644 file in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 file in
  { t with ic; oc }

let flush t = Stdlib.flush t.oc

(* Durability point: push buffered appends to the OS and then to the device.
   [flush] alone survives a process crash; [sync] also survives power loss. *)
let sync t =
  Stdlib.flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc)

let close t =
  sync t;
  close_out t.oc;
  close_in t.ic

(* Simulated crash: release the file without the close-time fsync or any
   other graceful-shutdown work.  The write path flushes to the OS at every
   operation boundary, so this leaves on disk exactly what a SIGKILL
   between operations would — deterministically, and inside one process. *)
let crash t =
  Stdlib.flush t.oc;
  close_out_noerr t.oc;
  close_in_noerr t.ic

let path t = t.file
let file_size t = t.tail
let entry_bytes t = t.entry_bytes
let cached_bytes t = t.cached_bytes

(* Make [e]'s chunk resident, evicting the oldest insertions until it fits
   in [cache_budget]. *)
let cache t e chunk =
  if e.len <= cache_budget then begin
    while t.cached_bytes + e.len > cache_budget do
      let victim = Queue.pop t.resident in
      victim.cached <- None;
      t.cached_bytes <- t.cached_bytes - victim.len
    done;
    e.cached <- Some chunk;
    t.cached_bytes <- t.cached_bytes + e.len;
    Queue.push e t.resident
  end

(* Start a record of [len] body bytes at the end of the log (buffered):
   write its length header, and return where the body will start.  The
   caller writes exactly [len] bytes next. *)
let begin_record t len =
  let header = Buffer.create 4 in
  Fbutil.Codec.varint header len;
  Buffer.output_buffer t.oc header;
  let data = t.tail + Buffer.length header in
  t.tail <- data + len;
  data

(* Frame [body] at the end of the log (buffered); returns the record's
   offset. *)
let append t body =
  let off = t.tail in
  let (_ : int) = begin_record t (String.length body) in
  output_string t.oc body;
  off

let append_entry t payload =
  let off = append t (entry_prefix ^ payload) in
  t.entry_bytes <- t.entry_bytes + t.tail - off;
  off

let read_entry t off =
  (* The write channel may still buffer the record. *)
  Stdlib.flush t.oc;
  seek_in t.ic off;
  let body =
    match read_length t.ic with
    | Some len -> really_input_string t.ic len
    | None -> ""
  in
  if String.starts_with ~prefix:entry_prefix body then payload body
  else raise (Corrupt_log { file = t.file; off; reason = "not an entry record" })

let put t chunk =
  let cid = Chunk.cid chunk in
  t.stats.puts <- t.stats.puts + 1;
  (if Cid.Tbl.mem t.index cid then t.stats.dedup_hits <- t.stats.dedup_hits + 1
   else begin
     (* the record [append t (Chunk.encode chunk)] writes, without the
        copy *)
     let len = Chunk.byte_size chunk in
     let off = begin_record t len in
     Chunk.output t.oc chunk;
     let e = { off; len; cached = None } in
     Cid.Tbl.replace t.index cid e;
     cache t e chunk;
     t.stats.chunks <- t.stats.chunks + 1;
     t.stats.bytes <- t.stats.bytes + len
   end);
  cid

let get t cid =
  t.stats.gets <- t.stats.gets + 1;
  match Cid.Tbl.find_opt t.index cid with
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None
  | Some { cached = Some _ as hit; _ } -> hit
  | Some e ->
      (* The write channel may still buffer the record. *)
      Stdlib.flush t.oc;
      seek_in t.ic e.off;
      let body = Bytes.create e.len in
      really_input t.ic body 0 e.len;
      let chunk = Chunk.decode (Bytes.unsafe_to_string body) in
      cache t e chunk;
      Some chunk

let store t =
  {
    Chunk_store.put = put t;
    get = get t;
    mem = Cid.Tbl.mem t.index;
    stats = (fun () -> t.stats);
  }
