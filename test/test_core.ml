(* The ForkBase API: FObjects, branches (FoD + FoC), merge, history,
   tamper evidence. *)

module Store = Fbchunk.Chunk_store
module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Merge = Forkbase.Merge
module Fobject = Forkbase.Fobject
module History = Forkbase.History
module Value = Fbtypes.Value
module Prim = Fbtypes.Prim

let fresh () = Db.create (Store.mem_store ())

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail (Db.error_to_string e)

let expect_error name = function
  | Ok _ -> Alcotest.fail ("expected error: " ^ name)
  | Error _ -> ()

let get_str db ~key ?branch () =
  match (match branch with Some b -> Db.get ~branch:b db ~key | None -> Db.get db ~key) with
  | Ok (Value.Prim (Prim.Str s)) -> s
  | Ok v -> Alcotest.fail ("not a string: " ^ Value.describe v)
  | Error e -> Alcotest.fail (Db.error_to_string e)

(* --- basic put/get --- *)

(* A Blob put splices against a Blob head whose tree is local; a head
   whose tree chunks live elsewhere (as after a scattered put) falls back
   to a fresh build, with the same uid either way. *)
let test_put_blob_head_elsewhere () =
  let page = String.init 20_000 (fun i -> Char.chr (97 + (i * 7 mod 26))) in
  let edited = String.sub page 0 5000 ^ "EDIT" ^ String.sub page 5004 14_996 in
  let full = fresh () in
  let head = Db.put_blob full ~key:"p" ~pos:0 ~len:(String.length page) page in
  let spliced = Db.put_blob full ~key:"p" ~pos:0 ~len:(String.length edited) edited in
  let meta_only = Store.mem_store () in
  let (_ : Cid.t) = meta_only.Store.put (Store.get_exn (Db.store full) head) in
  let db = Db.create meta_only in
  ok (Db.restore_branch db ~key:"p" ~branch:Db.default_branch head);
  Alcotest.(check string) "same uid" (Cid.to_hex spliced)
    (Cid.to_hex (Db.put_blob db ~key:"p" ~pos:0 ~len:(String.length edited) edited))

let test_put_get () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "v1") in
  Alcotest.(check string) "default branch" "v1" (get_str db ~key:"k" ());
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "v2") in
  Alcotest.(check string) "updated" "v2" (get_str db ~key:"k" ());
  expect_error "unknown key" (Db.get db ~key:"missing");
  expect_error "unknown branch" (Db.get ~branch:"nope" db ~key:"k")

let test_key_value_compliance () =
  (* §3.1: with only the default branch, ForkBase behaves as a plain KV
     store. *)
  let db = fresh () in
  for i = 0 to 99 do
    let (_ : Cid.t) = Db.put db ~key:(Printf.sprintf "key%d" i) (Db.str (string_of_int i)) in
    ()
  done;
  for i = 0 to 99 do
    Alcotest.(check string) "kv read" (string_of_int i)
      (get_str db ~key:(Printf.sprintf "key%d" i) ())
  done;
  Alcotest.(check int) "list_keys" 100 (List.length (Db.list_keys db))

let test_uid_content_addressed () =
  (* Same value, same history -> same uid; different history -> different. *)
  let db = fresh () in
  let u1 = Db.put db ~key:"k" (Db.str "a") in
  let u2 = Db.put db ~key:"k" (Db.str "b") in
  let u3 = Db.put db ~key:"k" (Db.str "a") in
  Alcotest.(check bool) "different values differ" false (Cid.equal u1 u2);
  Alcotest.(check bool) "same value different history differs" false
    (Cid.equal u1 u3);
  (* Two independent dbs with identical writes produce identical uids. *)
  let db2 = fresh () in
  let v1 = Db.put db2 ~key:"k" (Db.str "a") in
  Alcotest.(check bool) "deterministic uid" true (Cid.equal u1 v1)

(* --- fork on demand (tagged branches) --- *)

let test_fork_on_demand () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"doc" (Db.str "base") in
  ok (Db.fork db ~key:"doc" ~from_branch:"master" ~new_branch:"dev");
  let (_ : Cid.t) = Db.put ~branch:"dev" db ~key:"doc" (Db.str "dev-edit") in
  Alcotest.(check string) "master isolated" "base" (get_str db ~key:"doc" ());
  Alcotest.(check string) "dev updated" "dev-edit"
    (get_str db ~key:"doc" ~branch:"dev" ());
  let tags = Db.list_tagged_branches db ~key:"doc" in
  Alcotest.(check (list string)) "branches" [ "dev"; "master" ] (List.map fst tags);
  expect_error "existing branch"
    (Db.fork db ~key:"doc" ~from_branch:"master" ~new_branch:"dev")

let test_fork_at_version () =
  let db = fresh () in
  let u1 = Db.put db ~key:"k" (Db.str "v1") in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "v2") in
  (* Make a historical version modifiable by forking there (§3.3). *)
  ok (Db.fork_at db ~key:"k" ~version:u1 ~new_branch:"old");
  Alcotest.(check string) "fork at old version" "v1"
    (get_str db ~key:"k" ~branch:"old" ());
  let (_ : Cid.t) = Db.put ~branch:"old" db ~key:"k" (Db.str "v1b") in
  Alcotest.(check string) "old branch evolves" "v1b"
    (get_str db ~key:"k" ~branch:"old" ());
  Alcotest.(check string) "master untouched" "v2" (get_str db ~key:"k" ())

let test_rename_remove () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "v") in
  ok (Db.fork db ~key:"k" ~from_branch:"master" ~new_branch:"tmp");
  ok (Db.rename_branch db ~key:"k" ~target:"tmp" ~new_name:"feature");
  Alcotest.(check string) "renamed branch readable" "v"
    (get_str db ~key:"k" ~branch:"feature" ());
  expect_error "old name gone" (Db.get ~branch:"tmp" db ~key:"k");
  expect_error "rename to existing"
    (Db.rename_branch db ~key:"k" ~target:"feature" ~new_name:"master");
  ok (Db.remove_branch db ~key:"k" ~target:"feature");
  expect_error "removed branch" (Db.get ~branch:"feature" db ~key:"k");
  expect_error "remove twice" (Db.remove_branch db ~key:"k" ~target:"feature")

let test_guarded_put () =
  let db = fresh () in
  let u1 = Db.put db ~key:"k" (Db.str "v1") in
  (match Db.put_guarded db ~key:"k" ~guard:u1 (Db.str "v2") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (* Stale guard now fails: protects against overwriting others' changes. *)
  match Db.put_guarded db ~key:"k" ~guard:u1 (Db.str "v3") with
  | Error (Db.Guard_failed _) -> ()
  | Ok _ -> Alcotest.fail "stale guard accepted"
  | Error e -> Alcotest.fail (Db.error_to_string e)

(* --- fork on conflict (untagged branches) --- *)

let test_fork_on_conflict () =
  let db = fresh () in
  let u1 = Db.put db ~key:"state" (Db.str "s1") in
  (* Two concurrent updates derive from the same base (Figure 3b). *)
  let u2 = ok (Db.put_at db ~key:"state" ~base:u1 (Db.str "w1")) in
  let u3 = ok (Db.put_at db ~key:"state" ~base:u1 (Db.str "w2")) in
  let heads = Db.list_untagged_branches db ~key:"state" in
  Alcotest.(check int) "two conflicting heads" 2 (List.length heads);
  Alcotest.(check bool) "heads are the new versions" true
    (List.for_all (fun h -> Cid.equal h u2 || Cid.equal h u3) heads);
  (* Merge the untagged heads (M7). *)
  let merged =
    ok (Db.merge_untagged ~resolver:Merge.Choose_left db ~key:"state" heads)
  in
  let heads' = Db.list_untagged_branches db ~key:"state" in
  Alcotest.(check (list string)) "single head after merge"
    [ Cid.to_hex merged ]
    (List.map Cid.to_hex heads');
  match ok (Db.get_version db merged) with
  | Value.Prim (Prim.Str s) ->
      Alcotest.(check bool) "merged kept one side" true (s = "w1" || s = "w2")
  | v -> Alcotest.fail (Value.describe v)

let test_linear_updates_single_untagged_head () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "a") in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "b") in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "c") in
  Alcotest.(check int) "no conflicts -> one leaf" 1
    (List.length (Db.list_untagged_branches db ~key:"k"))

(* --- history: track, LCA, tamper evidence --- *)

let test_track () =
  let db = fresh () in
  let u1 = Db.put db ~key:"k" (Db.str "v1") in
  let u2 = Db.put db ~key:"k" (Db.str "v2") in
  let u3 = Db.put db ~key:"k" (Db.str "v3") in
  let history = ok (Db.track db ~key:"k" ~dist_range:(0, 10)) in
  Alcotest.(check (list string))
    "versions by distance"
    [ Cid.to_hex u3; Cid.to_hex u2; Cid.to_hex u1 ]
    (List.map (fun (_, uid, _) -> Cid.to_hex uid) history);
  let partial = ok (Db.track db ~key:"k" ~dist_range:(1, 1)) in
  Alcotest.(check (list string)) "range [1,1]" [ Cid.to_hex u2 ]
    (List.map (fun (_, uid, _) -> Cid.to_hex uid) partial)

let test_lca () =
  let db = fresh () in
  let base = Db.put db ~key:"k" (Db.str "base") in
  ok (Db.fork db ~key:"k" ~from_branch:"master" ~new_branch:"b1");
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "m1") in
  let m2 = Db.put db ~key:"k" (Db.str "m2") in
  let b1 = Db.put ~branch:"b1" db ~key:"k" (Db.str "b1") in
  Alcotest.(check string) "lca is fork point" (Cid.to_hex base)
    (Cid.to_hex (ok (Db.lca db m2 b1)));
  Alcotest.(check string) "lca with ancestor" (Cid.to_hex base)
    (Cid.to_hex (ok (Db.lca db base b1)))

let test_history_tamper_evidence () =
  let db = fresh () in
  let u1 = Db.put db ~key:"k" (Db.str "v1") in
  let u2 = Db.put db ~key:"k" (Db.str "v2") in
  (* A version on an unrelated key cannot be passed off as history of k. *)
  let foreign = Db.put db ~key:"other" (Db.str "v1") in
  Alcotest.(check bool) "ancestor in history" true
    (Db.history_contains db ~head:u2 u1);
  Alcotest.(check bool) "foreign version rejected" false
    (Db.history_contains db ~head:u2 foreign);
  Alcotest.(check bool) "verify version" true (Db.verify_version db u2)

let test_fobject_roundtrip () =
  let obj =
    Fobject.v ~kind:Value.Kprim ~key:"k" ~data:"payload" ~depth:7
      ~bases:[ Cid.digest "x"; Cid.digest "y" ]
      ~context:"commit message"
  in
  let chunk = Fobject.to_chunk obj in
  let obj' = Fobject.of_chunk chunk in
  Alcotest.(check bool) "roundtrip" true (obj = obj');
  Alcotest.(check bool) "uid = chunk cid" true
    (Cid.equal (Fobject.uid obj) (Fbchunk.Chunk.cid chunk))

let test_context_field () =
  let db = fresh () in
  let uid = Db.put ~context:"initial import" db ~key:"k" (Db.str "v") in
  let obj = ok (Db.get_object db uid) in
  Alcotest.(check string) "context preserved" "initial import" obj.Fobject.context

(* --- merge (M5/M6) --- *)

let test_merge_branches_map () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"m" (Db.map db [ ("a", "1"); ("b", "2") ]) in
  ok (Db.fork db ~key:"m" ~from_branch:"master" ~new_branch:"dev");
  let (_ : Cid.t) = Db.put db ~key:"m" (Db.map db [ ("a", "1"); ("b", "2"); ("c", "3") ]) in
  let (_ : Cid.t) =
    Db.put ~branch:"dev" db ~key:"m" (Db.map db [ ("a", "changed"); ("b", "2") ])
  in
  let (_ : Cid.t) = ok (Db.merge db ~key:"m" ~target:"master" ~ref_:(`Branch "dev")) in
  match ok (Db.get db ~key:"m") with
  | Value.Map m ->
      Alcotest.(check (list (pair string string)))
        "disjoint changes merged"
        [ ("a", "changed"); ("b", "2"); ("c", "3") ]
        (Fbtypes.Fmap.bindings m)
  | v -> Alcotest.fail (Value.describe v)

let test_merge_conflict_and_resolvers () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"m" (Db.map db [ ("x", "0") ]) in
  ok (Db.fork db ~key:"m" ~from_branch:"master" ~new_branch:"dev");
  let (_ : Cid.t) = Db.put db ~key:"m" (Db.map db [ ("x", "left") ]) in
  let (_ : Cid.t) = Db.put ~branch:"dev" db ~key:"m" (Db.map db [ ("x", "right") ]) in
  (* Manual: conflicts reported. *)
  (match Db.merge db ~key:"m" ~target:"master" ~ref_:(`Branch "dev") with
  | Error (Db.Merge_conflicts [ c ]) ->
      Alcotest.(check string) "conflict key" "x" c.Merge.location;
      Alcotest.(check (option string)) "base" (Some "0") c.Merge.base;
      Alcotest.(check (option string)) "left" (Some "left") c.Merge.left;
      Alcotest.(check (option string)) "right" (Some "right") c.Merge.right
  | Error e -> Alcotest.fail (Db.error_to_string e)
  | Ok _ -> Alcotest.fail "expected conflict");
  (* Choose_right resolves. *)
  let (_ : Cid.t) =
    ok
      (Db.merge ~resolver:Merge.Choose_right db ~key:"m" ~target:"master"
         ~ref_:(`Branch "dev"))
  in
  match ok (Db.get db ~key:"m") with
  | Value.Map m ->
      Alcotest.(check (option string)) "right chosen" (Some "right")
        (Fbtypes.Fmap.find m "x")
  | v -> Alcotest.fail (Value.describe v)

let test_merge_aggregate () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"n" (Db.int 100L) in
  ok (Db.fork db ~key:"n" ~from_branch:"master" ~new_branch:"dev");
  let (_ : Cid.t) = Db.put db ~key:"n" (Db.int 110L) in
  let (_ : Cid.t) = Db.put ~branch:"dev" db ~key:"n" (Db.int 105L) in
  let (_ : Cid.t) =
    ok
      (Db.merge ~resolver:Merge.Aggregate db ~key:"n" ~target:"master"
         ~ref_:(`Branch "dev"))
  in
  match ok (Db.get db ~key:"n") with
  | Value.Prim (Prim.Int i) -> Alcotest.(check int64) "100+10+5" 115L i
  | v -> Alcotest.fail (Value.describe v)

let test_merge_blob_disjoint () =
  let db = fresh () in
  let text = String.concat "" (List.init 100 (fun i -> Printf.sprintf "line%03d\n" i)) in
  let (_ : Cid.t) = Db.put db ~key:"b" (Db.blob db text) in
  ok (Db.fork db ~key:"b" ~from_branch:"master" ~new_branch:"dev");
  (* master edits near the start, dev near the end. *)
  let edit_master = String.concat "" [ "MASTER__"; String.sub text 8 (String.length text - 8) ] in
  let edit_dev = String.concat "" [ String.sub text 0 (String.length text - 8); "__DEVDEV" ] in
  let (_ : Cid.t) = Db.put db ~key:"b" (Db.blob db edit_master) in
  let (_ : Cid.t) = Db.put ~branch:"dev" db ~key:"b" (Db.blob db edit_dev) in
  let (_ : Cid.t) = ok (Db.merge db ~key:"b" ~target:"master" ~ref_:(`Branch "dev")) in
  match ok (Db.get db ~key:"b") with
  | Value.Blob b ->
      let merged = Fbtypes.Fblob.to_string b in
      Alcotest.(check bool) "both edits present" true
        (String.length merged = String.length text
        && String.sub merged 0 8 = "MASTER__"
        && String.sub merged (String.length merged - 8) 8 = "__DEVDEV")
  | v -> Alcotest.fail (Value.describe v)

let test_merge_type_mismatch () =
  let db = fresh () in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "s") in
  ok (Db.fork db ~key:"k" ~from_branch:"master" ~new_branch:"dev");
  let (_ : Cid.t) = Db.put ~branch:"dev" db ~key:"k" (Db.int 1L) in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "s2") in
  expect_error "kind mismatch"
    (Db.merge db ~key:"k" ~target:"master" ~ref_:(`Branch "dev"))

(* --- merge properties --- *)

let prop_map_merge_commutes =
  QCheck.Test.make ~name:"disjoint map merges commute" ~count:40
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 30) (pair (int_bound 20) small_string))
        (list_of_size (Gen.int_bound 10) (pair (int_bound 20) small_string))
        (list_of_size (Gen.int_bound 10) (pair (int_bound 20) small_string)))
    (fun (base_kvs, left_ups, right_ups) ->
      let key i = Printf.sprintf "k%02d" i in
      (* make the two sides' changes disjoint by construction: left touches
         even keys, right odd keys *)
      let left_ups = List.map (fun (i, v) -> (key (2 * (i mod 10)), v)) left_ups in
      let right_ups =
        List.map (fun (i, v) -> (key ((2 * (i mod 10)) + 1), v)) right_ups
      in
      let base_kvs = List.map (fun (i, v) -> (key i, v)) base_kvs in
      let merged_content order =
        let db = fresh () in
        let (_ : Cid.t) = Db.put db ~key:"m" (Db.map db base_kvs) in
        ok (Db.fork db ~key:"m" ~from_branch:"master" ~new_branch:"other");
        let update branch ups =
          match ok (Db.get ~branch db ~key:"m") with
          | Value.Map m ->
              let m' = Fbtypes.Fmap.set_many m ups in
              let (_ : Cid.t) = Db.put ~branch db ~key:"m" (Value.Map m') in
              ()
          | v -> Alcotest.fail (Value.describe v)
        in
        let ups1, ups2 =
          match order with `LR -> (left_ups, right_ups) | `RL -> (right_ups, left_ups)
        in
        update "master" ups1;
        update "other" ups2;
        let (_ : Cid.t) = ok (Db.merge db ~key:"m" ~target:"master" ~ref_:(`Branch "other")) in
        match ok (Db.get db ~key:"m") with
        | Value.Map m -> Fbtypes.Fmap.bindings m
        | v -> Alcotest.fail (Value.describe v)
      in
      merged_content `LR = merged_content `RL)

let prop_set_merge_is_model_union =
  QCheck.Test.make ~name:"set merge = model of adds/removes" ~count:40
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 20) (int_bound 30))
        (list_of_size (Gen.int_bound 10) (pair (int_bound 30) bool))
        (list_of_size (Gen.int_bound 10) (pair (int_bound 30) bool)))
    (fun (base, left_ops, right_ops) ->
      let name i = Printf.sprintf "m%02d" i in
      let base = List.sort_uniq compare (List.map name base) in
      let module SS = Set.Make (String) in
      let apply s ops =
        List.fold_left
          (fun s (i, add) -> if add then SS.add (name i) s else SS.remove (name i) s)
          s ops
      in
      (* model: base with left's and right's changes both applied *)
      let base_set = SS.of_list base in
      let left_set = apply base_set left_ops and right_set = apply base_set right_ops in
      let expected =
        SS.union
          (SS.inter left_set right_set)
          (SS.union (SS.diff left_set base_set) (SS.diff right_set base_set))
      in
      let db = fresh () in
      let (_ : Cid.t) = Db.put db ~key:"s" (Db.set db base) in
      ok (Db.fork db ~key:"s" ~from_branch:"master" ~new_branch:"other");
      let (_ : Cid.t) = Db.put db ~key:"s" (Db.set db (SS.elements left_set)) in
      let (_ : Cid.t) = Db.put ~branch:"other" db ~key:"s" (Db.set db (SS.elements right_set)) in
      let (_ : Cid.t) = ok (Db.merge db ~key:"s" ~target:"master" ~ref_:(`Branch "other")) in
      match ok (Db.get db ~key:"s") with
      | Value.Set s -> Fbtypes.Fset.elements s = SS.elements expected
      | v -> Alcotest.fail (Value.describe v))

(* --- access control hook --- *)

let test_acl () =
  let acl ~key ~branch:_ access =
    not (String.equal key "secret" && access = Db.Write)
  in
  let db = Db.create ~acl (Store.mem_store ()) in
  let (_ : Cid.t) = Db.put db ~key:"public" (Db.str "ok") in
  match Db.put_guarded db ~key:"secret" ~guard:Cid.null (Db.str "no") with
  | Error (Db.Permission_denied _) -> ()
  | _ -> Alcotest.fail "expected permission denied"

(* --- persistence via log store --- *)

let test_log_store_persistence () =
  let path = Filename.temp_file "forkbase" ".log" in
  let log = Fbchunk.Log_store.open_ path in
  let db = Db.create (Fbchunk.Log_store.store log) in
  let uid = Db.put db ~key:"k" (Db.blob db (String.make 10_000 'z')) in
  Fbchunk.Log_store.close log;
  (* Re-open: chunks survive; the version is readable by uid. *)
  let log2 = Fbchunk.Log_store.open_ path in
  let db2 = Db.create (Fbchunk.Log_store.store log2) in
  (match Db.get_version db2 uid with
  | Ok (Value.Blob b) ->
      Alcotest.(check int) "blob length" 10_000 (Fbtypes.Fblob.length b)
  | Ok v -> Alcotest.fail (Value.describe v)
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Fbchunk.Log_store.close log2;
  Sys.remove path

let () =
  Alcotest.run "core"
    [
      ( "put-get",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "kv compliance" `Quick test_key_value_compliance;
          Alcotest.test_case "uid content-addressed" `Quick test_uid_content_addressed;
          Alcotest.test_case "fobject roundtrip" `Quick test_fobject_roundtrip;
          Alcotest.test_case "context field" `Quick test_context_field;
          Alcotest.test_case "blob put, head tree elsewhere" `Quick
            test_put_blob_head_elsewhere;
        ] );
      ( "fork-on-demand",
        [
          Alcotest.test_case "fork + isolation" `Quick test_fork_on_demand;
          Alcotest.test_case "fork at version" `Quick test_fork_at_version;
          Alcotest.test_case "rename/remove" `Quick test_rename_remove;
          Alcotest.test_case "guarded put" `Quick test_guarded_put;
        ] );
      ( "fork-on-conflict",
        [
          Alcotest.test_case "conflicting puts" `Quick test_fork_on_conflict;
          Alcotest.test_case "linear single head" `Quick
            test_linear_updates_single_untagged_head;
        ] );
      ( "history",
        [
          Alcotest.test_case "track" `Quick test_track;
          Alcotest.test_case "lca" `Quick test_lca;
          Alcotest.test_case "tamper evidence" `Quick test_history_tamper_evidence;
        ] );
      ( "merge",
        [
          Alcotest.test_case "disjoint map changes" `Quick test_merge_branches_map;
          Alcotest.test_case "conflicts + resolvers" `Quick
            test_merge_conflict_and_resolvers;
          Alcotest.test_case "aggregate" `Quick test_merge_aggregate;
          Alcotest.test_case "blob disjoint regions" `Quick test_merge_blob_disjoint;
          Alcotest.test_case "type mismatch" `Quick test_merge_type_mismatch;
        ] );
      ( "merge-properties",
        [
          QCheck_alcotest.to_alcotest prop_map_merge_commutes;
          QCheck_alcotest.to_alcotest prop_set_merge_is_model_union;
        ] );
      ( "misc",
        [
          Alcotest.test_case "access control" `Quick test_acl;
          Alcotest.test_case "log-store persistence" `Quick test_log_store_persistence;
        ] );
    ]
