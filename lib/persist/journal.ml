(* Branch-table journal entries: the record codec and the entry body.
   Entries live as entry records in the chunk log (lib/persist), which
   frames, appends and recovers them. *)

module C = Fbutil.Codec
module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Branch_table = Forkbase.Branch_table

type record =
  | Mutation of Db.mutation
  | Checkpoint of (string * Branch_table.snapshot) list

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
   entry records byte-identical for shared entries. *)
let entry = C.(pair uint (seq record))
let encode_entry ~seq records = C.encode ~size:256 entry (seq, records)
let decode_entry = C.decode entry
