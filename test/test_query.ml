(* View-layer query processor and chunk garbage collection. *)

module Db = Forkbase.Db
module Gc = Forkbase.Gc
module Store = Fbchunk.Chunk_store
module Cid = Fbchunk.Cid
module Dataset = Workload.Dataset
module Row = Tabular.Table_row
module Col = Tabular.Table_col
module Q = Tabular.Query

let fresh_db () = Db.create (Store.mem_store ())
let records n = Dataset.generate ~seed:21L ~n

let setup n =
  let db = fresh_db () in
  let rs = records n in
  let (_ : Cid.t) = Row.import db ~name:"r" rs in
  let (_ : Cid.t) = Col.import db ~name:"c" rs in
  (rs, Option.get (Row.load db ~name:"r"), Option.get (Col.load db ~name:"c"))

(* --- predicates --- *)

let test_pred_eval () =
  let r = (records 1).(0) in
  Alcotest.(check bool) "eq pk" true (Q.matches (Q.Eq ("pk", r.Dataset.pk)) r);
  Alcotest.(check bool) "eq wrong" false (Q.matches (Q.Eq ("pk", "nope")) r);
  Alcotest.(check bool) "gt" true (Q.matches (Q.Gt ("qty", r.Dataset.qty - 1)) r);
  Alcotest.(check bool) "lt" true (Q.matches (Q.Lt ("qty", r.Dataset.qty + 1)) r);
  Alcotest.(check bool) "not" false (Q.matches (Q.Not Q.All) r);
  Alcotest.(check bool) "and" true
    (Q.matches (Q.And (Q.All, Q.Gt ("qty", -1))) r);
  Alcotest.(check bool) "or" true (Q.matches (Q.Or (Q.Not Q.All, Q.All)) r);
  Alcotest.(check bool) "contains" true
    (Q.matches (Q.Contains ("name", "customer")) r);
  Alcotest.(check (list string)) "columns of pred" [ "price"; "qty" ]
    (Q.columns_of_pred (Q.And (Q.Gt ("qty", 1), Q.Lt ("price", 9))))

let test_select_layouts_agree () =
  let rs, row, col = setup 800 in
  let pred = Q.And (Q.Gt ("qty", 500), Q.Lt ("price", 50_000)) in
  let expected = List.filter (Q.matches pred) (Array.to_list rs) in
  let from_rows = Q.select_rows row pred in
  let from_cols = Q.select_cols col pred in
  Alcotest.(check int) "row count" (List.length expected) (List.length from_rows);
  Alcotest.(check bool) "row contents" true
    (List.sort compare from_rows = List.sort compare expected);
  Alcotest.(check bool) "col contents" true
    (List.sort compare from_cols = List.sort compare expected)

let test_aggregates () =
  let rs, row, col = setup 500 in
  let expected_sum =
    Array.fold_left (fun a r -> a +. float_of_int r.Dataset.qty) 0.0 rs
  in
  Alcotest.(check (float 0.001)) "sum rows" expected_sum
    (Q.aggregate_rows row Q.All (Q.Sum "qty"));
  Alcotest.(check (float 0.001)) "sum cols" expected_sum
    (Q.aggregate_cols col Q.All (Q.Sum "qty"));
  Alcotest.(check (float 0.001)) "count" 500.0 (Q.aggregate_rows row Q.All Q.Count);
  let expected_max =
    Array.fold_left (fun a r -> max a (float_of_int r.Dataset.price)) neg_infinity rs
  in
  Alcotest.(check (float 0.001)) "max" expected_max
    (Q.aggregate_cols col Q.All (Q.Max "price"));
  Alcotest.(check (float 0.001))
    "avg = sum/count" (expected_sum /. 500.0)
    (Q.aggregate_rows row Q.All (Q.Avg "qty"));
  (* filtered aggregate agrees across layouts *)
  let pred = Q.Gt ("qty", 900) in
  Alcotest.(check (float 0.001)) "filtered agree"
    (Q.aggregate_rows row pred (Q.Sum "price"))
    (Q.aggregate_cols col pred (Q.Sum "price"))

let test_group_count () =
  let db = fresh_db () in
  let rs = records 50 in
  (* overwrite address so groups are predictable *)
  let rs =
    Array.mapi
      (fun i r -> { r with Dataset.address = if i mod 2 = 0 then "even" else "odd" })
      rs
  in
  let (_ : Cid.t) = Row.import db ~name:"g" rs in
  let table = Option.get (Row.load db ~name:"g") in
  Alcotest.(check (list (pair string int)))
    "group counts" [ ("even", 25); ("odd", 25) ]
    (Q.group_count_rows table Q.All ~by:"address")

let test_empty_results () =
  let _, row, col = setup 100 in
  Alcotest.(check int) "no rows" 0 (List.length (Q.select_rows row (Q.Not Q.All)));
  Alcotest.(check int) "no cols" 0 (List.length (Q.select_cols col (Q.Not Q.All)));
  Alcotest.(check bool) "min of empty is nan" true
    (Float.is_nan (Q.aggregate_rows row (Q.Not Q.All) (Q.Min "qty")))

(* --- garbage collection --- *)

let test_gc_keeps_everything_live () =
  let db = fresh_db () in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.blob db (String.make 20_000 'a')) in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.blob db (String.make 20_000 'b')) in
  let garbage_chunks, _ = Gc.garbage_stats db in
  (* both versions reachable (history), nothing to collect *)
  Alcotest.(check int) "no garbage" 0 garbage_chunks

let test_gc_collects_removed_branch () =
  let db = fresh_db () in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.blob db "base") in
  (match Db.fork db ~key:"k" ~from_branch:"master" ~new_branch:"tmp" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (* the tmp branch grows a large object, then is deleted *)
  let (_ : Cid.t) =
    Db.put ~branch:"tmp" db ~key:"k" (Db.blob db (String.make 100_000 'z'))
  in
  (* the tmp head is also an untagged leaf; merge it away by removing the
     branch and pruning: removing the branch leaves the untagged head, so
     garbage appears only once nothing references the blob.  Overwrite the
     untagged head lineage by merging into master first. *)
  (match Db.merge db ~key:"k" ~target:"master" ~ref_:(`Branch "tmp")
         ~resolver:Forkbase.Merge.Choose_left with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (match Db.remove_branch db ~key:"k" ~target:"tmp" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (* everything still reachable through master's merge history *)
  let garbage_chunks, _ = Gc.garbage_stats db in
  Alcotest.(check int) "merge keeps history alive" 0 garbage_chunks

let test_gc_sweep_preserves_data () =
  let db = fresh_db () in
  let page = Workload.Text_edit.initial_page ~seed:2L ~size:30_000 in
  let v1 = Db.put db ~key:"doc" (Db.blob db page) in
  let (_ : Cid.t) = Db.put db ~key:"doc" (Db.blob db (page ^ "more")) in
  let dest = Store.mem_store () in
  let live_chunks, live_bytes = Gc.sweep db ~into:dest in
  Alcotest.(check bool) "copied something" true (live_chunks > 0 && live_bytes > 0);
  (* the swept store serves both versions *)
  let db2 = Db.create dest in
  (match Db.get_version db2 v1 with
  | Ok (Fbtypes.Value.Blob b) ->
      Alcotest.(check string) "old version intact" page (Fbtypes.Fblob.to_string b)
  | _ -> Alcotest.fail "old version lost in sweep");
  (* source totals match the live set: nothing was garbage here *)
  let src_stats = (Db.store db).Store.stats () in
  Alcotest.(check int) "live = stored" src_stats.Store.chunks live_chunks

let test_gc_orphaned_version_is_garbage () =
  let db = fresh_db () in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "v1") in
  (match Db.fork db ~key:"k" ~from_branch:"master" ~new_branch:"side" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let (_ : Cid.t) =
    Db.put ~branch:"side" db ~key:"k" (Db.blob db (String.make 50_000 'q'))
  in
  (* dropping the branch orphans the blob version: the untagged-head entry
     still references it though, so prune it by merging the untagged heads
     down to master's lineage. *)
  (match Db.remove_branch db ~key:"k" ~target:"side" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let heads = Db.list_untagged_branches db ~key:"k" in
  (match Db.merge_untagged ~resolver:Forkbase.Merge.Choose_left db ~key:"k" heads with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (* still reachable: merge keeps both parents in the DAG *)
  let garbage_chunks, _ = Gc.garbage_stats db in
  Alcotest.(check int) "merge preserved lineage" 0 garbage_chunks

(* A damaged tree keeps its survivors: with one chunk of a version's tree
   missing from the store, a sweep still copies the meta chunk, the root
   and every chunk it can reach around the hole.  [hide] picks the missing
   chunk among the root's children: leaf 0 of a two-level tree, or an
   inner index node of a three-level one. *)
let test_gc_sweep_keeps_damaged_tree () =
  List.iter
    (fun (what, size, child_tag, hide) ->
      let base = Store.mem_store () in
      let hidden = ref None in
      let is_hidden cid =
        Option.fold ~none:false ~some:(Cid.equal cid) !hidden
      in
      let store =
        {
          base with
          Store.get =
            (fun cid -> if is_hidden cid then None else base.Store.get cid);
          mem = (fun cid -> (not (is_hidden cid)) && base.Store.mem cid);
        }
      in
      let db = Db.create store in
      let page = Workload.Text_edit.initial_page ~seed:5L ~size in
      let uid = Db.put db ~key:"doc" (Db.blob db page) in
      let root =
        match Db.get_version db uid with
        | Ok (Fbtypes.Value.Blob b) -> Fbtypes.Fblob.root b
        | _ -> Alcotest.fail "blob version unreadable"
      in
      let chunk cid = Option.get (base.Store.get cid) in
      let kids = Gc.children (chunk root) in
      List.iter
        (fun c ->
          if (chunk c).Fbchunk.Chunk.tag <> child_tag then
            Alcotest.failf "%s: the root's children are not all %s" what
              (Fbchunk.Chunk.tag_to_string child_tag))
        kids;
      let gone = List.nth kids (hide (List.length kids)) in
      hidden := Some gone;
      let survivors =
        List.concat_map
          (fun c -> if Cid.equal c gone then [] else c :: Gc.children (chunk c))
          kids
      in
      let into = Store.mem_store () in
      let live_chunks, _ = Gc.sweep db ~into in
      List.iter
        (fun (name, cid) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s %s kept" what name (Cid.short_hex cid))
            true (into.Store.mem cid))
        ((("meta", uid) :: [ ("root", root) ])
        @ List.map (fun c -> ("chunk", c)) survivors);
      Alcotest.(check int) (what ^ ": live count")
        (2 + List.length survivors) live_chunks)
    [
      ("missing leaf 0", 30_000, Fbchunk.Chunk.Blob, fun _ -> 0);
      ("missing index node", 600_000, Fbchunk.Chunk.UIndex, fun n -> n / 2);
    ]

let () =
  Alcotest.run "query-gc"
    [
      ( "query",
        [
          Alcotest.test_case "predicate eval" `Quick test_pred_eval;
          Alcotest.test_case "select agrees across layouts" `Quick
            test_select_layouts_agree;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "group count" `Quick test_group_count;
          Alcotest.test_case "empty results" `Quick test_empty_results;
        ] );
      ( "gc",
        [
          Alcotest.test_case "history stays live" `Quick test_gc_keeps_everything_live;
          Alcotest.test_case "merged branch stays live" `Quick
            test_gc_collects_removed_branch;
          Alcotest.test_case "sweep preserves data" `Quick test_gc_sweep_preserves_data;
          Alcotest.test_case "sweep keeps a damaged tree's survivors" `Quick
            test_gc_sweep_keeps_damaged_tree;
          Alcotest.test_case "merge preserves lineage" `Quick
            test_gc_orphaned_version_is_garbage;
        ] );
    ]
