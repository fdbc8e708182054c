module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Codec = Fbutil.Codec
module Rolling = Fbhash.Rolling
module Tree_config = Fbtree.Tree_config
module Index = Fbtree.Pos_tree.Index
module Value = Fbtypes.Value
module Prim = Fbtypes.Prim
module Db = Forkbase.Db
module Fobject = Forkbase.Fobject
module Persist = Fbpersist.Persist

type violation =
  | Missing_chunk of { cid : Cid.t; context : string }
  | Hash_mismatch of { cid : Cid.t; actual : Cid.t; context : string }
  | Undecodable of { cid : Cid.t; context : string; reason : string }
  | Structure of { cid : Cid.t; context : string; reason : string }
  | Split_violation of { cid : Cid.t; context : string; reason : string }
  | Order_violation of { cid : Cid.t; context : string; reason : string }
  | Bad_head of {
      key : string;
      branch : string option;
      uid : Cid.t;
      reason : string;
    }
  | Bad_store of { reason : string }

type report = {
  keys : int;
  versions : int;
  trees : int;
  chunks : int;
  violations : violation list;
}

let ok r = r.violations = []

let violation_cid = function
  | Missing_chunk { cid; _ }
  | Hash_mismatch { cid; _ }
  | Undecodable { cid; _ }
  | Structure { cid; _ }
  | Split_violation { cid; _ }
  | Order_violation { cid; _ } ->
      Some cid
  | Bad_head { uid; _ } -> Some uid
  | Bad_store _ -> None

let pp_violation ppf = function
  | Missing_chunk { cid; context } ->
      Format.fprintf ppf "missing chunk %s (%s)" (Cid.short_hex cid) context
  | Hash_mismatch { cid; actual; context } ->
      Format.fprintf ppf "hash mismatch: chunk %s re-hashes to %s (%s)"
        (Cid.short_hex cid) (Cid.short_hex actual) context
  | Undecodable { cid; context; reason } ->
      Format.fprintf ppf "undecodable chunk %s: %s (%s)" (Cid.short_hex cid)
        reason context
  | Structure { cid; context; reason } ->
      Format.fprintf ppf "structure: %s in chunk %s (%s)" reason
        (Cid.short_hex cid) context
  | Split_violation { cid; context; reason } ->
      Format.fprintf ppf "split violation: %s in chunk %s (%s)" reason
        (Cid.short_hex cid) context
  | Order_violation { cid; context; reason } ->
      Format.fprintf ppf "order violation: %s in chunk %s (%s)" reason
        (Cid.short_hex cid) context
  | Bad_head { key; branch; uid; reason } ->
      Format.fprintf ppf "bad head %s of key %S%s: %s" (Cid.short_hex uid) key
        (match branch with
        | Some b -> Printf.sprintf " branch %S" b
        | None -> " (untagged)")
        reason
  | Bad_store { reason } -> Format.fprintf ppf "bad store: %s" reason

let violation_to_string v = Format.asprintf "%a" pp_violation v

let pp_report ppf r =
  Format.fprintf ppf "@[<v>checked %d keys, %d versions, %d trees, %d chunks"
    r.keys r.versions r.trees r.chunks;
  (match r.violations with
  | [] -> Format.fprintf ppf "@,clean: all invariants hold"
  | vs ->
      Format.fprintf ppf "@,%d violation%s:" (List.length vs)
        (if List.length vs = 1 then "" else "s");
      List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) vs);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Walk state                                                          *)

type ctx = {
  store : Store.t;
  cfg : Tree_config.t;
  mutable violations : violation list; (* reversed *)
  rendered : (string, unit) Hashtbl.t; (* dedup key: rendered violation *)
  fetched : unit Cid.Tbl.t;
  checked_trees : unit Cid.Tbl.t;
  version_memo : int option Cid.Tbl.t;
      (* uid -> Some depth when the meta chunk verified; None binding also
         doubles as the in-progress marker, so a hash cycle terminates *)
  mutable keys : int;
  mutable versions : int;
  mutable trees : int;
}

let make_ctx store cfg =
  {
    store;
    cfg;
    violations = [];
    rendered = Hashtbl.create 16;
    fetched = Cid.Tbl.create 256;
    checked_trees = Cid.Tbl.create 64;
    version_memo = Cid.Tbl.create 64;
    keys = 0;
    versions = 0;
    trees = 0;
  }

let add ctx v =
  let s = violation_to_string v in
  if not (Hashtbl.mem ctx.rendered s) then begin
    Hashtbl.replace ctx.rendered s ();
    ctx.violations <- v :: ctx.violations
  end

let report_of ctx =
  {
    keys = ctx.keys;
    versions = ctx.versions;
    trees = ctx.trees;
    chunks = Cid.Tbl.length ctx.fetched;
    violations = List.rev ctx.violations;
  }

(* Fetch and re-hash; any failure becomes a violation and [None], so a
   damaged chunk is reported once and then treated as opaque — no
   structural checks, no descent, no cascading noise. *)
let fetch ctx ~context cid =
  Cid.Tbl.replace ctx.fetched cid ();
  match ctx.store.Store.get cid with
  | None ->
      add ctx (Missing_chunk { cid; context });
      None
  | exception Store.Missing_chunk _ ->
      add ctx (Missing_chunk { cid; context });
      None
  | exception Store.Corrupt_chunk _ ->
      add ctx
        (Undecodable
           { cid; context; reason = "store-level corruption (failed re-hash)" });
      None
  | exception Codec.Corrupt reason ->
      add ctx (Undecodable { cid; context; reason = "chunk record: " ^ reason });
      None
  | Some chunk ->
      let actual = Chunk.cid chunk in
      if Cid.equal actual cid then Some chunk
      else begin
        add ctx (Hash_mismatch { cid; actual; context });
        None
      end

(* ------------------------------------------------------------------ *)
(* POS-Tree node formats, per value kind                               *)

type shape = {
  leaf_tag : Chunk.tag;
  index_tag : Chunk.tag;
  sorted : bool;
  read_elem : Codec.reader -> string; (* consume one element, return its key *)
  kind_name : string;
}

let shape_of_kind = function
  | Value.Kprim -> None
  | Value.Kblob ->
      Some
        {
          leaf_tag = Chunk.Blob;
          index_tag = Chunk.UIndex;
          sorted = false;
          read_elem =
            (fun r ->
              ignore (Codec.read_byte r);
              "");
          kind_name = "blob";
        }
  | Value.Klist ->
      Some
        {
          leaf_tag = Chunk.List;
          index_tag = Chunk.UIndex;
          sorted = false;
          read_elem =
            (fun r ->
              ignore (Codec.read_string r);
              "");
          kind_name = "list";
        }
  | Value.Kmap ->
      Some
        {
          leaf_tag = Chunk.Map;
          index_tag = Chunk.SIndex;
          sorted = true;
          read_elem =
            (fun r ->
              let k = Codec.read_string r in
              ignore (Codec.read_string r);
              k);
          kind_name = "map";
        }
  | Value.Kset ->
      Some
        {
          leaf_tag = Chunk.Set;
          index_tag = Chunk.SIndex;
          sorted = true;
          read_elem = Codec.read_string;
          kind_name = "set";
        }

type leaf = {
  l_keys : string array; (* per element; "" for positional containers *)
  l_ends : int array; (* body offset just after element i *)
  l_body : string; (* element bytes, count header excluded *)
}

let parse_leaf shape payload =
  let r = Codec.reader payload in
  let n = Codec.read_varint r in
  (* every element costs at least one byte, so a count beyond the payload
     size is corrupt — refuse before allocating the arrays it claims *)
  if n < 0 || n > String.length payload then
    raise (Codec.Corrupt "implausible leaf element count");
  let body_start = Codec.pos r in
  let keys = Array.make n "" and ends = Array.make n 0 in
  for i = 0 to n - 1 do
    keys.(i) <- shape.read_elem r;
    ends.(i) <- Codec.pos r - body_start
  done;
  Codec.expect_end r;
  {
    l_keys = keys;
    l_ends = ends;
    l_body =
      String.sub payload body_start (String.length payload - body_start);
  }

(* ------------------------------------------------------------------ *)
(* Split-pattern re-checks.

   Both builders reset their split state at every cut (pos_tree.ml), so a
   node's boundary is a pure function of that node's own content and each
   node can be re-checked in isolation:
   - no boundary (pattern fire, or size >= max) may occur strictly inside
     the node — the builder would have cut there;
   - every node except the last of its level must end on a boundary; the
     last one is the residual cut forced by the end of the stream. *)

let check_leaf_split ctx shape ~cid ~context ~is_final leaf =
  let cfg = ctx.cfg in
  let n = Array.length leaf.l_ends in
  if n > 0 then begin
    let mask = (1 lsl cfg.Tree_config.leaf_bits) - 1 in
    let roll =
      Rolling.any cfg.Tree_config.rolling ~window:cfg.Tree_config.window
    in
    if shape.leaf_tag = Chunk.Blob then begin
      (* byte-granular fast path, exactly mirroring [of_bytes] *)
      let len = String.length leaf.l_body in
      match
        Rolling.any_find_boundary roll leaf.l_body ~off:0 ~chunk_size_before:0
          ~min_size:cfg.Tree_config.min_leaf_bytes
          ~max_size:cfg.Tree_config.max_leaf_bytes ~mask
      with
      | Some consumed when consumed < len ->
          add ctx
            (Split_violation
               {
                 cid;
                 context;
                 reason =
                   Printf.sprintf "boundary fires at byte %d of %d" consumed
                     len;
               })
      | Some _ -> ()
      | None ->
          if not is_final then
            add ctx
              (Split_violation
                 {
                   cid;
                   context;
                   reason =
                     "unterminated leaf: last node of its level only may end \
                      without a boundary";
                 })
    end
    else begin
      let start = ref 0 in
      try
        for i = 0 to n - 1 do
          let stop = leaf.l_ends.(i) in
          let piece = String.sub leaf.l_body !start (stop - !start) in
          let fired =
            Rolling.any_feed_detect roll piece ~chunk_size_before:!start
              ~min_size:cfg.Tree_config.min_leaf_bytes ~mask
          in
          let closes = fired || stop >= cfg.Tree_config.max_leaf_bytes in
          if i < n - 1 then begin
            if closes then begin
              add ctx
                (Split_violation
                   {
                     cid;
                     context;
                     reason =
                       Printf.sprintf "boundary fires after element %d of %d" i
                         n;
                   });
              raise Exit
            end
          end
          else if (not closes) && not is_final then
            add ctx
              (Split_violation
                 {
                   cid;
                   context;
                   reason =
                     "unterminated leaf: last node of its level only may end \
                      without a boundary";
                 });
          start := stop
        done
      with Exit -> ()
    end
  end

let check_index_split ctx ~cid ~context ~is_final (entries : Index.entry array) =
  let cfg = ctx.cfg in
  let imask = (1 lsl cfg.Tree_config.index_bits) - 1 in
  let n = Array.length entries in
  if n > 0 then begin
    if n > cfg.Tree_config.max_index_entries then
      add ctx
        (Split_violation
           {
             cid;
             context;
             reason =
               Printf.sprintf "%d entries exceed max_index_entries %d" n
                 cfg.Tree_config.max_index_entries;
           });
    (try
       for i = 0 to n - 2 do
         if Cid.low_bits entries.(i).cid land imask = 0 then begin
           add ctx
             (Split_violation
                {
                  cid;
                  context;
                  reason =
                    Printf.sprintf "index boundary fires at entry %d of %d" i n;
                });
           raise Exit
         end
       done
     with Exit -> ());
    if not is_final then begin
      let last = entries.(n - 1) in
      if
        not
          (n >= cfg.Tree_config.max_index_entries
          || Cid.low_bits last.cid land imask = 0)
      then
        add ctx
          (Split_violation
             {
               cid;
               context;
               reason =
                 "unterminated index node: last node of its level only may \
                  end without a boundary";
             })
    end
  end

(* ------------------------------------------------------------------ *)
(* Tree walk: top-down, level by level, checking parent claims against
   children as we descend.                                             *)

type node_state = P_opaque | P_leaf of leaf | P_index of Index.entry array

let walk_tree ctx shape root =
  if not (Cid.Tbl.mem ctx.checked_trees root) then begin
    Cid.Tbl.replace ctx.checked_trees root ();
    ctx.trees <- ctx.trees + 1;
    let root_hex = Cid.short_hex root in
    let rec level depth nodes =
      if depth > 64 then
        add ctx
          (Structure
             {
               cid = root;
               context = Printf.sprintf "%s tree %s" shape.kind_name root_hex;
               reason = "deeper than 64 levels";
             })
      else begin
        let width = Array.length nodes in
        let parsed =
          Array.mapi
            (fun i (cid, claim) ->
              let context =
                Printf.sprintf "%s tree %s, level %d, node %d" shape.kind_name
                  root_hex depth i
              in
              let state =
                match fetch ctx ~context cid with
                | None -> P_opaque
                | Some chunk ->
                    if chunk.Chunk.tag = shape.leaf_tag then (
                      match parse_leaf shape chunk.Chunk.payload with
                      | l -> P_leaf l
                      | exception Codec.Corrupt reason ->
                          add ctx (Undecodable { cid; context; reason });
                          P_opaque)
                    else if chunk.Chunk.tag = shape.index_tag then (
                      match Codec.decode Index.codec chunk.Chunk.payload with
                      | e -> P_index (Array.of_list e)
                      | exception Codec.Corrupt reason ->
                          add ctx (Undecodable { cid; context; reason });
                          P_opaque)
                    else begin
                      add ctx
                        (Structure
                           {
                             cid;
                             context;
                             reason =
                               Printf.sprintf "unexpected %s chunk in a %s tree"
                                 (Chunk.tag_to_string chunk.Chunk.tag)
                                 shape.kind_name;
                           });
                      P_opaque
                    end
              in
              (cid, claim, context, state))
            nodes
        in
        let count p =
          Array.fold_left (fun acc (_, _, _, s) -> if p s then acc + 1 else acc) 0 parsed
        in
        let leaves = count (function P_leaf _ -> true | _ -> false) in
        let indexes = count (function P_index _ -> true | _ -> false) in
        if leaves > 0 && indexes > 0 then
          add ctx
            (Structure
               {
                 cid = root;
                 context =
                   Printf.sprintf "%s tree %s, level %d" shape.kind_name
                     root_hex depth;
                 reason = "mixed leaf and index nodes in one level";
               });
        (* the largest key seen so far at this level, for the cross-node
           strict ordering of sorted containers *)
        let prev_key = ref None in
        let order_violation cid context what k =
          add ctx
            (Order_violation
               {
                 cid;
                 context;
                 reason =
                   Printf.sprintf "%s %d key not strictly increasing" what k;
               })
        in
        Array.iteri
          (fun i (cid, claim, context, state) ->
            let is_final = i = width - 1 in
            match state with
            | P_opaque ->
                (* keep the ordering chain honest across the unreadable gap *)
                if shape.sorted then (
                  match (claim : Index.entry option) with
                  | Some c -> prev_key := Some c.last_key
                  | None -> ())
            | P_leaf leaf ->
                let n = Array.length leaf.l_keys in
                (match claim with
                | Some c ->
                    if c.count <> n || c.span <> n then
                      add ctx
                        (Structure
                           {
                             cid;
                             context;
                             reason =
                               Printf.sprintf
                                 "parent claims count=%d span=%d but leaf \
                                  holds %d elements"
                                 c.count c.span n;
                           });
                    let actual_last =
                      if shape.sorted && n > 0 then leaf.l_keys.(n - 1) else ""
                    in
                    if not (String.equal c.last_key actual_last) then
                      add ctx
                        (Structure
                           {
                             cid;
                             context;
                             reason =
                               Printf.sprintf
                                 "parent claims last_key %S but leaf ends at %S"
                                 c.last_key actual_last;
                           })
                | None -> ());
                if n = 0 && not (claim = None && width = 1) then
                  add ctx
                    (Structure
                       {
                         cid;
                         context;
                         reason = "empty leaf in a non-trivial tree";
                       });
                if shape.sorted then begin
                  (try
                     for k = 0 to n - 1 do
                       let key = leaf.l_keys.(k) in
                       (match !prev_key with
                       | Some p when String.compare p key >= 0 ->
                           order_violation cid context "element" k;
                           raise Exit
                       | _ -> ());
                       prev_key := Some key
                     done
                   with Exit -> ());
                  if n > 0 then prev_key := Some leaf.l_keys.(n - 1)
                end;
                check_leaf_split ctx shape ~cid ~context ~is_final leaf
            | P_index entries ->
                let n = Array.length entries in
                let total =
                  Array.fold_left
                    (fun s (e : Index.entry) -> s + e.count)
                    0 entries
                in
                (match claim with
                | Some c ->
                    if c.count <> total || c.span <> n then
                      add ctx
                        (Structure
                           {
                             cid;
                             context;
                             reason =
                               Printf.sprintf
                                 "parent claims count=%d span=%d but node \
                                  sums count=%d span=%d"
                                 c.count c.span total n;
                           });
                    let actual_last =
                      if n > 0 then entries.(n - 1).last_key else ""
                    in
                    if not (String.equal c.last_key actual_last) then
                      add ctx
                        (Structure
                           {
                             cid;
                             context;
                             reason =
                               Printf.sprintf
                                 "parent claims last_key %S but node ends at \
                                  %S"
                                 c.last_key actual_last;
                           })
                | None -> ());
                if n = 0 then
                  add ctx
                    (Structure { cid; context; reason = "empty index node" });
                (try
                   Array.iteri
                     (fun k (e : Index.entry) ->
                       if shape.sorted then begin
                         (match !prev_key with
                         | Some p when String.compare p e.last_key >= 0 ->
                             order_violation cid context "entry" k;
                             raise Exit
                         | _ -> ());
                         prev_key := Some e.last_key
                       end
                       else if e.last_key <> "" then begin
                         add ctx
                           (Structure
                              {
                                cid;
                                context;
                                reason =
                                  Printf.sprintf
                                    "entry %d carries a key in a positional \
                                     tree"
                                    k;
                              });
                         raise Exit
                       end)
                     entries
                 with Exit ->
                   if shape.sorted && n > 0 then
                     prev_key := Some entries.(n - 1).last_key);
                check_index_split ctx ~cid ~context ~is_final entries)
          parsed;
        if indexes > 0 then begin
          let children =
            Array.of_list
              (List.concat_map
                 (function
                   | _, _, _, P_index entries ->
                       Array.to_list
                         (Array.map
                            (fun (e : Index.entry) -> (e.cid, Some e))
                            entries)
                   | _ -> [])
                 (Array.to_list parsed))
          in
          if Array.length children > 0 then level (depth + 1) children
        end
      end
    in
    level 0 [| (root, None) |]
  end

(* ------------------------------------------------------------------ *)
(* Derivation graph walk                                               *)

let rec check_version ctx ~key uid =
  match Cid.Tbl.find_opt ctx.version_memo uid with
  | Some d -> d
  | None ->
      Cid.Tbl.replace ctx.version_memo uid None;
      ctx.versions <- ctx.versions + 1;
      let context = Printf.sprintf "version of key %S" key in
      let depth =
        match fetch ctx ~context uid with
        | None -> None
        | Some chunk when chunk.Chunk.tag <> Chunk.Meta ->
            add ctx
              (Structure
                 {
                   cid = uid;
                   context;
                   reason =
                     Printf.sprintf "version resolves to a %s chunk, not Meta"
                       (Chunk.tag_to_string chunk.Chunk.tag);
                 });
            None
        | Some chunk -> (
            match Fobject.of_chunk chunk with
            | exception Codec.Corrupt reason ->
                add ctx (Undecodable { cid = uid; context; reason });
                None
            | obj ->
                if not (String.equal obj.Fobject.key key) then
                  add ctx
                    (Structure
                       {
                         cid = uid;
                         context;
                         reason =
                           Printf.sprintf "FObject key is %S" obj.Fobject.key;
                       });
                let base_depths =
                  List.map (fun b -> check_version ctx ~key b) obj.Fobject.bases
                in
                (* depth is checkable only when every base verified *)
                if List.for_all Option.is_some base_depths then begin
                  let expected =
                    1
                    + List.fold_left
                        (fun m d -> Option.fold ~none:m ~some:(max m) d)
                        (-1) base_depths
                  in
                  if obj.Fobject.depth <> expected then
                    add ctx
                      (Structure
                         {
                           cid = uid;
                           context;
                           reason =
                             Printf.sprintf "depth %d, expected %d"
                               obj.Fobject.depth expected;
                         })
                end;
                (match obj.Fobject.kind with
                | Value.Kprim -> (
                    match
                      let r = Codec.reader obj.Fobject.data in
                      let _ = Prim.decode r in
                      Codec.expect_end r
                    with
                    | () -> ()
                    | exception Codec.Corrupt reason ->
                        add ctx
                          (Undecodable
                             {
                               cid = uid;
                               context;
                               reason = "primitive payload: " ^ reason;
                             }))
                | kind -> (
                    if String.length obj.Fobject.data <> 32 then
                      add ctx
                        (Structure
                           {
                             cid = uid;
                             context;
                             reason =
                               Printf.sprintf
                                 "%s payload is %d bytes, not a 32-byte root \
                                  cid"
                                 (Value.kind_to_string kind)
                                 (String.length obj.Fobject.data);
                           })
                    else
                      match shape_of_kind kind with
                      | None ->
                          (* [kind] is non-Kprim here: the Kprim arm above
                             already matched, and only Kprim lacks a shape. *)
                          invalid_arg "Fsck.check_version: kind has no tree"
                      | Some shape ->
                          walk_tree ctx shape (Cid.of_raw obj.Fobject.data)));
                Some obj.Fobject.depth)
      in
      Cid.Tbl.replace ctx.version_memo uid depth;
      depth

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let check_tree ?(cfg = Tree_config.default) store ~kind root =
  match shape_of_kind kind with
  | None -> invalid_arg "Fsck.check_tree: Kprim values have no tree"
  | Some shape ->
      let ctx = make_ctx store cfg in
      walk_tree ctx shape root;
      List.rev ctx.violations

let check_db db =
  let ctx = make_ctx (Db.store db) (Db.cfg db) in
  List.iter
    (fun key ->
      ctx.keys <- ctx.keys + 1;
      List.iter
        (fun (_branch, uid) -> ignore (check_version ctx ~key uid))
        (Db.list_tagged_branches db ~key);
      List.iter
        (fun uid -> ignore (check_version ctx ~key uid))
        (Db.list_untagged_branches db ~key))
    (Db.list_keys db);
  report_of ctx

let check_dir ?cfg dir =
  match Persist.open_db ?cfg dir with
  | exception Persist.Corrupt_db c ->
      let v =
        match c with
        | Persist.Missing_head { key; branch; uid } ->
            Bad_head
              {
                key;
                branch;
                uid;
                reason = "recovered head missing from chunk store";
              }
        | Persist.Bad_log { path; off; reason } ->
            Bad_store
              {
                reason =
                  Printf.sprintf "log %s at offset %d: %s" path off reason;
              }
      in
      { keys = 0; versions = 0; trees = 0; chunks = 0; violations = [ v ] }
  | p ->
      Fun.protect
        ~finally:(fun () -> Persist.close p)
        (fun () -> check_db (Persist.db p))
