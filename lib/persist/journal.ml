(* Write-ahead journal for branch-table state.

   The file format mirrors Log_store: a sequence of entries, each a varint
   length followed by the entry body.  An entry carries every record of one
   logical operation and is written with a single buffered write, so a
   crash can only tear the final entry; recovery drops a torn tail and
   keeps exactly the committed prefix.  Decode failures anywhere before
   the tail are real corruption and raise {!Fbutil.Codec.Corrupt}. *)

module C = Fbutil.Codec
module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Branch_table = Forkbase.Branch_table

type record =
  | Mutation of Db.mutation
  | Checkpoint of (string * Branch_table.snapshot) list

type t = { file : string; oc : out_channel }

(* Each record kind is one case: tag byte, field layout and constructor
   stated once (see {!Fbutil.Codec.variant}). *)
let record =
  let cases = C.cases "journal record" in
  let case tag arg inj = C.case cases tag arg inj in
  let set_head = case 'H' C.(triple str str Cid.codec) (fun (key, branch, uid) ->
      Mutation (Db.Set_head { key; branch; uid })) in
  let record_object = case 'O' C.(triple str Cid.codec (seq Cid.codec)) (fun (key, uid, b) ->
      Mutation (Db.Record_object { key; uid; bases = b })) in
  let rename = case 'N' C.(triple str str str) (fun (key, old_name, new_name) ->
      Mutation (Db.Rename { key; old_name; new_name })) in
  let remove_branch = case 'D' C.(pair str str) (fun (key, branch) ->
      Mutation (Db.Remove_branch { key; branch })) in
  let replace_untagged = case 'U' C.(triple str (seq Cid.codec) Cid.codec) (fun (key, d, a) ->
      Mutation (Db.Replace_untagged { key; drop = d; add = a })) in
  let snapshot =
    C.conv
      (fun (key, s) -> Branch_table.(key, s.snap_tagged, s.snap_untagged, s.snap_known))
      (fun (key, snap_tagged, snap_untagged, snap_known) ->
        (key, { Branch_table.snap_tagged; snap_untagged; snap_known }))
      C.(quad str (seq (pair str Cid.codec)) (seq Cid.codec) (seq Cid.codec))
  in
  let checkpoint = case 'C' (C.seq snapshot) (fun snaps -> Checkpoint snaps) in
  C.variant cases (function
    | Mutation (Db.Set_head { key; branch; uid }) -> set_head (key, branch, uid)
    | Mutation (Db.Record_object { key; uid; bases }) -> record_object (key, uid, bases)
    | Mutation (Db.Rename { key; old_name; new_name }) -> rename (key, old_name, new_name)
    | Mutation (Db.Remove_branch { key; branch }) -> remove_branch (key, branch)
    | Mutation (Db.Replace_untagged { key; drop; add }) -> replace_untagged (key, drop, add)
    | Checkpoint snaps -> checkpoint snaps)

(* Entry body: the writer-assigned sequence number, then the records.
   Shipping this exact encoding over the wire keeps primary and follower
   journal files byte-identical for shared entries. *)
let entry = C.(pair uint (seq record))
let encode_entry ~seq records = C.encode ~size:256 entry (seq, records)
let decode_entry = C.decode entry

let frame ~seq records =
  let body = encode_entry ~seq records in
  let buf = Buffer.create (String.length body + 4) in
  C.varint buf (String.length body);
  Buffer.add_string buf body;
  Buffer.contents buf

(* Read one varint from [ic]; None at (possibly torn) EOF.  Bounded like
   {!Fbutil.Codec.read_varint}: continuation bits running past shift 56,
   or a negative decode, cannot be an entry length — unbounded, a corrupt
   header decodes to a negative length that crashes [Bytes.create] with
   [Invalid_argument] instead of raising typed corruption. *)
let read_varint_opt ic =
  match input_char ic with
  | exception End_of_file -> None
  | c0 -> (
      let rec loop shift acc b =
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then
          if acc < 0 then raise (C.Corrupt "journal: negative entry length")
          else Some acc
        else if shift >= 56 then
          raise (C.Corrupt "journal: entry length varint too long")
        else
          match input_char ic with
          | exception End_of_file -> None
          | c -> loop (shift + 7) acc (Char.code c)
      in
      loop 0 0 (Char.code c0))

(* Entries of a complete prefix of the file, plus the offset where the
   committed prefix ends (the torn-tail truncation point). *)
let scan path =
  let ic = open_in_gen [ Open_rdonly; Open_binary ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let entries = ref [] in
  let tail = ref 0 in
  let continue = ref true in
  while !continue do
    let start = pos_in ic in
    match read_varint_opt ic with
    | None ->
        tail := start;
        continue := false
    | Some len ->
        (* A length overrunning the file is a torn tail; checking before
           allocating also keeps a corrupt (huge) length from forcing a
           giant [Bytes.create]. *)
        if len > in_channel_length ic - pos_in ic then begin
          tail := start;
          continue := false
        end
        else begin
          let body = Bytes.create len in
          really_input ic body 0 len;
          entries := decode_entry (Bytes.unsafe_to_string body) :: !entries;
          tail := pos_in ic
        end
  done;
  (List.rev !entries, !tail)

let open_ path =
  let oc0 = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  close_out oc0;
  let entries, tail = scan path in
  if tail < (Unix.stat path).Unix.st_size then Unix.truncate path tail;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  ({ file = path; oc }, entries)

(* Read-only tail scan for replication pulls: committed entries after
   [from_seq], leaving any torn tail alone (only [open_] truncates). *)
let entries_from path ~from_seq ~max_entries =
  let entries, _tail = scan path in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | (seq, _) :: rest when seq <= from_seq -> take n rest
    | e :: rest -> e :: take (n - 1) rest
  in
  take max_entries entries

let append t ~seq records =
  output_string t.oc (frame ~seq records);
  (* One flush per entry: the whole batch reaches the OS (or none of it,
     modulo a torn tail) before the operation is acknowledged. *)
  Stdlib.flush t.oc

let sync t =
  Stdlib.flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc)

let close t =
  sync t;
  close_out t.oc

(* Simulated crash: release the file without syncing.  [append] flushes per
   entry, so the file holds exactly the committed prefix a SIGKILL between
   operations would leave. *)
let crash t =
  Stdlib.flush t.oc;
  close_out_noerr t.oc

let path t = t.file
let file_size t = (Unix.stat t.file).Unix.st_size

(* Fresh journal containing exactly [entries], fsynced.  Checkpoint
   rotation writes this beside the live journal and renames over it. *)
let write_fresh path entries =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  List.iter (fun (seq, records) -> output_string oc (frame ~seq records)) entries;
  Stdlib.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc
