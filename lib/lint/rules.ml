(* Syntactic rules over the parsetree.  Everything here must stay total
   and exception-free: the linter runs inside the tier-1 gate, so a crash
   on weird-but-legal syntax would block every build. *)

module F = Finding

(* ------------------------------------------------------------------ *)
(* Scope predicates (on normalized repo-relative paths)                *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.equal (String.sub s (n - m) m) suffix

let in_lib scope = starts_with ~prefix:"lib/" scope
let in_lib_or_bin scope = in_lib scope || starts_with ~prefix:"bin/" scope

(* The one place raw socket syscalls are legal: the hardened wire layer
   (EINTR retry, typed Connection_closed, SIGPIPE handling live there). *)
let is_wire_module scope = String.equal scope "lib/remote/wire.ml"

(* Modules implementing a digest type (lib/chunk/cid.ml) may never touch
   the polymorphic hash, even eta-reduced where no argument betrays the
   key type. *)
let is_cid_module scope = in_lib scope && ends_with ~suffix:"/cid.ml" scope

(* ------------------------------------------------------------------ *)
(* Cid-shaped names                                                    *)

(* A lowercase identifier is cid-shaped when one of its '_'-separated
   components is exactly cid/uid/digest (or a plural).  "build", "fluid"
   and "lucid" must not match. *)
let cid_shaped_name name =
  String.split_on_char '_' (String.lowercase_ascii name)
  |> List.exists (fun part ->
         List.exists (String.equal part)
           [ "cid"; "cids"; "uid"; "uids"; "digest"; "digests" ])

let last_part parts =
  match List.rev parts with last :: _ -> Some last | [] -> None

(* Is this expression *directly* a cid-shaped value?  Only identifiers,
   record fields and [Cid.*] paths count — the result of an application
   (say [Cid.low_bits c land mask]) is some other type and must not
   trigger the rule. *)
let rec cid_valued (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let parts = Longident.flatten txt in
      List.exists (String.equal "Cid") parts
      || match last_part parts with Some l -> cid_shaped_name l | None -> false
      )
  | Pexp_field (_, { txt; _ }) -> (
      match last_part (Longident.flatten txt) with
      | Some l -> cid_shaped_name l
      | None -> false)
  | Pexp_constraint (inner, _) -> cid_valued inner
  | Pexp_open (_, inner) -> cid_valued inner
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Banned heads                                                        *)

type head =
  | Poly_eq  (* = <> compare: error when an operand is cid-valued *)
  | Poly_mem  (* List.mem/assoc family: same condition *)
  | Poly_hash  (* Hashtbl.hash: cid-valued argument, or any use in cid.ml *)
  | Partial of string  (* List.hd & co: banned outright in lib/ *)
  | Failwith  (* untyped failure: banned outright in lib/ *)
  | Syscall of string  (* Unix.read & co: banned outside the wire module *)

let head_of_parts = function
  | [ ("=" | "<>" | "compare") ] | [ "Stdlib"; "compare" ] -> Some Poly_eq
  | [ "List"; ("mem" | "assoc" | "mem_assoc" | "assoc_opt") ] -> Some Poly_mem
  | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] -> Some Poly_hash
  | [ "List"; (("hd" | "nth") as fn) ] -> Some (Partial ("List." ^ fn))
  | [ "Option"; "get" ] -> Some (Partial "Option.get")
  | [ ("failwith" | "failwithf") ] | [ "Stdlib"; "failwith" ] -> Some Failwith
  | [ "Unix";
      (( "read" | "write" | "single_write" | "write_substring"
       | "single_write_substring" | "select" | "accept" ) as fn) ] ->
      Some (Syscall ("Unix." ^ fn))
  | _ -> None

let partial_msg fn = fn ^ " is partial; match the shape totally instead"

let failwith_msg =
  "untyped failwith in lib/; raise Invalid_argument or the module's typed \
   error"

let syscall_msg fn =
  fn ^ " outside lib/remote/wire.ml; use the EINTR-safe wire wrappers"

(* ------------------------------------------------------------------ *)
(* The iterator                                                        *)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* A try-handler whose pattern is the bare wildcard: no binding, so the
   exception can be neither logged nor re-raised. *)
let rec pattern_swallows (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_or (a, b) -> pattern_swallows a || pattern_swallows b
  | _ -> false

let rec exception_case_swallows (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_exception inner -> pattern_swallows inner
  | Ppat_or (a, b) -> exception_case_swallows a || exception_case_swallows b
  | _ -> false

let check_structure ~file ~scope structure =
  let found = ref [] in
  let add rule loc message =
    found := F.v ~rule ~file ~line:(line_of loc) message :: !found
  in
  let check_head loc parts args =
    match head_of_parts parts with
    | None -> ()
    | Some Poly_eq ->
        if in_lib_or_bin scope && List.exists (fun (_, a) -> cid_valued a) args
        then
          add F.Cid_discipline loc
            (Printf.sprintf
               "polymorphic %s on a cid-shaped value; use \
                Cid.equal/Cid.compare"
               (String.concat "." parts))
    | Some Poly_mem ->
        if in_lib_or_bin scope && List.exists (fun (_, a) -> cid_valued a) args
        then
          add F.Cid_discipline loc
            (Printf.sprintf
               "%s compares cid-shaped values polymorphically; use Cid.Set, \
                Cid.Map or an explicit Cid.equal scan"
               (String.concat "." parts))
    | Some Poly_hash ->
        if
          in_lib_or_bin scope
          && (is_cid_module scope
             || List.exists (fun (_, a) -> cid_valued a) args)
        then
          add F.Cid_discipline loc
            "polymorphic Hashtbl.hash on digest material; use Cid.hash (or \
             seed Hashtbl.Make with an explicit hash)"
    | Some (Partial fn) ->
        if in_lib scope then add F.No_partial loc (partial_msg fn)
    | Some Failwith -> if in_lib scope then add F.Typed_errors loc failwith_msg
    | Some (Syscall fn) ->
        if in_lib_or_bin scope && not (is_wire_module scope) then
          add F.Syscall_discipline loc (syscall_msg fn)
  in
  let expr_iter (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        check_head e.pexp_loc (Longident.flatten txt) args
    | Pexp_ident { txt; _ } ->
        (* Bare references — [let hash = Hashtbl.hash], a partial function
           passed as an argument — are violations even without a call. *)
        check_head e.pexp_loc (Longident.flatten txt) []
    | Pexp_assert
        {
          pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
          _;
        } ->
        if in_lib scope then
          add F.Typed_errors e.pexp_loc
            "assert false in lib/; make the match total or raise a typed \
             error"
    | Pexp_try (_, cases) ->
        if in_lib_or_bin scope then
          List.iter
            (fun (c : Parsetree.case) ->
              if pattern_swallows c.pc_lhs then
                add F.No_swallow c.pc_lhs.ppat_loc
                  "catch-all discards the exception; it can mask \
                   Corrupt_log-class errors — narrow the pattern or bind \
                   and log it")
            cases
    | Pexp_match (_, cases) ->
        if in_lib_or_bin scope then
          List.iter
            (fun (c : Parsetree.case) ->
              if exception_case_swallows c.pc_lhs then
                add F.No_swallow c.pc_lhs.ppat_loc
                  "exception _ discards the exception; it can mask \
                   Corrupt_log-class errors — narrow the pattern or bind \
                   and log it")
            cases
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let iterator = { Ast_iterator.default_iterator with expr = expr_iter } in
  iterator.structure iterator structure;
  !found

(* ------------------------------------------------------------------ *)
(* Suppression comments — a hand-rolled line scanner, since comments
   never reach the parsetree.  The marker is built by concatenation so
   the scanner does not flag its own source. *)

let marker = "lint: " ^ "allow"

let is_id_char = function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false

(* Split [s] (the text after the marker) into candidate rule ids. *)
let ids_after s =
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c -> if is_id_char c then Buffer.add_char buf c else flush ())
    s;
  flush ();
  List.rev !out

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else go (i + 1)
  in
  if nn = 0 then None else go 0

let suppressions_in_line ~lineno line =
  match find_sub line marker with
  | None -> ([], [])
  | Some i -> (
      let rest =
        String.sub line
          (i + String.length marker)
          (String.length line - i - String.length marker)
      in
      match ids_after rest with
      | [] ->
          ( [],
            [
              F.v ~rule:F.Lint_usage ~file:"" ~line:lineno
                ("suppression names no rule (expected '" ^ marker
               ^ " <rule-id>')");
            ] )
      | ids ->
          List.fold_left
            (fun (sup, bad) id ->
              match F.rule_of_id id with
              | Some rule -> ((lineno, rule) :: sup, bad)
              | None ->
                  ( sup,
                    F.v ~rule:F.Lint_usage ~file:"" ~line:lineno
                      (Printf.sprintf "suppression names unknown rule %S" id)
                    :: bad ))
            ([], []) ids)

let suppressions source =
  let lines = String.split_on_char '\n' source in
  let _, sup, bad =
    List.fold_left
      (fun (lineno, sup, bad) line ->
        let s, b = suppressions_in_line ~lineno line in
        (lineno + 1, s @ sup, b @ bad))
      (1, [], []) lines
  in
  (sup, List.rev bad)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let parse_structure ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn ->
      let line =
        match exn with
        | Syntaxerr.Error err -> line_of (Syntaxerr.location_of_error err)
        | _ -> 1
      in
      Error (line, Printexc.to_string exn)

let syntactic ~file source =
  let scope = F.scope_of_file file in
  match parse_structure ~file source with
  | Ok structure -> check_structure ~file ~scope structure
  | Error (line, message) ->
      [ F.v ~rule:F.Parse_error ~file ~line ("cannot parse: " ^ message) ]
