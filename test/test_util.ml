(* Codec round-trips, hex, and splitmix determinism. *)

module Codec = Fbutil.Codec
module Hex = Fbutil.Hex
module Splitmix = Fbutil.Splitmix

(* Round-trips through a typed codec also exercise the primitive writer
   and reader it is built on. *)
let roundtrip ?(count = 300) name arb c =
  QCheck.Test.make ~name ~count arb (fun x -> Codec.decode c (Codec.encode c x) = x)

let roundtrip_varint =
  roundtrip ~count:500 "varint round-trip"
    QCheck.(oneof [ small_nat; int_range 0 max_int; always max_int ])
    Codec.uint

let roundtrip_string = roundtrip "string round-trip" QCheck.string Codec.str
let roundtrip_list = roundtrip "list round-trip" QCheck.(list small_string) Codec.(seq str)

let roundtrip_int64 =
  QCheck.Test.make ~name:"int64 round-trip" ~count:300 QCheck.int64 (fun x ->
      let buf = Buffer.create 8 in
      Codec.int64_le buf x;
      let r = Codec.reader (Buffer.contents buf) in
      Codec.read_int64_le r = x)

let roundtrip_option =
  QCheck.Test.make ~name:"option round-trip" ~count:200
    QCheck.(option small_string)
    (fun x ->
      let buf = Buffer.create 16 in
      Codec.option buf Codec.string x;
      let r = Codec.reader (Buffer.contents buf) in
      Codec.read_option r Codec.read_string = x)

let test_varint_negative () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Codec.varint: negative")
    (fun () -> Codec.varint (Buffer.create 4) (-1))

(* The widest varint, max_int, is 8 bytes of 0xff then 0x3f; a ninth
   byte above 0x3f would overflow into the sign bit, so it is refused. *)
let test_varint_overflow () =
  match Codec.read_varint (Codec.reader (String.make 8 '\xff' ^ "\x7f")) with
  | exception Codec.Corrupt _ -> ()
  | n -> Alcotest.failf "overflowing varint decoded to %d" n

(* A variant's decoder table is derived from its cases, so a second case
   claiming a tag is refused when it is declared. *)
let test_duplicate_tag_refused () =
  let cases = Codec.cases "test" in
  let declare codec = ignore (Codec.case cases 'a' codec Fun.id : int -> int Codec.choice) in
  declare Codec.uint;
  Alcotest.check_raises "second 'a'" (Invalid_argument "Codec.case: duplicate test tag 'a'")
    (fun () -> declare Codec.uint)

let test_truncated () =
  let buf = Buffer.create 16 in
  Codec.string buf "hello";
  let enc = Buffer.contents buf in
  let truncated = String.sub enc 0 (String.length enc - 2) in
  (match Codec.read_string (Codec.reader truncated) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on truncated input")

let test_trailing () =
  let r = Codec.reader "\x00extra" in
  let (_ : int) = Codec.read_varint r in
  match Codec.expect_end r with
  | exception Codec.Corrupt _ -> ()
  | () -> Alcotest.fail "expected Corrupt on trailing bytes"

let roundtrip_hex =
  QCheck.Test.make ~name:"hex round-trip" ~count:300 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode upper" "\x00\xff\x10" (Hex.decode "00FF10")

let test_hex_invalid () =
  (match Hex.decode "abc" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "odd length accepted");
  match Hex.decode "zz" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad digit accepted"

let test_splitmix_deterministic () =
  let a = Splitmix.create 7L and b = Splitmix.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_reference () =
  (* Reference outputs for seed 1234567 from the canonical splitmix64. *)
  let g = Splitmix.create 1234567L in
  Alcotest.(check int64) "first" 6457827717110365317L (Splitmix.next g)

let test_splitmix_int_range () =
  let g = Splitmix.create 99L in
  for _ = 1 to 1000 do
    let x = Splitmix.int g 17 in
    if x < 0 || x >= 17 then Alcotest.fail "out of range"
  done

let test_splitmix_float_range () =
  let g = Splitmix.create 5L in
  for _ = 1 to 1000 do
    let f = Splitmix.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range"
  done

let test_splitmix_copy () =
  let a = Splitmix.create 3L in
  let (_ : int64) = Splitmix.next a in
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copy diverges identically" (Splitmix.next a) (Splitmix.next b)

let test_alphanum () =
  let g = Splitmix.create 11L in
  let s = Splitmix.alphanum g 64 in
  Alcotest.(check int) "length" 64 (String.length s);
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> ()
      | _ -> Alcotest.fail "non-alphanumeric output")
    s

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "codec",
        [
          q roundtrip_varint;
          q roundtrip_string;
          q roundtrip_int64;
          q roundtrip_list;
          q roundtrip_option;
          Alcotest.test_case "negative varint" `Quick test_varint_negative;
          Alcotest.test_case "varint overflow refused" `Quick test_varint_overflow;
          Alcotest.test_case "duplicate tag refused" `Quick test_duplicate_tag_refused;
          Alcotest.test_case "truncated input" `Quick test_truncated;
          Alcotest.test_case "trailing bytes" `Quick test_trailing;
        ] );
      ( "hex",
        [
          q roundtrip_hex;
          Alcotest.test_case "known values" `Quick test_hex_known;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "reference output" `Quick test_splitmix_reference;
          Alcotest.test_case "int range" `Quick test_splitmix_int_range;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
          Alcotest.test_case "copy" `Quick test_splitmix_copy;
          Alcotest.test_case "alphanum" `Quick test_alphanum;
        ] );
    ]
