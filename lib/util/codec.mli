(** Binary encoding/decoding helpers shared by all serialized structures.

    All multi-byte integers use LEB128-style unsigned varints so encodings
    are compact and platform independent.  Strings are length-prefixed.
    Decoding failures raise {!Corrupt}. *)

exception Corrupt of string

(** {1 Writing} *)

val varint : Buffer.t -> int -> unit
(** [varint buf n] appends the unsigned LEB128 encoding of [n >= 0]. *)

val int64_le : Buffer.t -> int64 -> unit
(** Fixed 8-byte little-endian. *)

val string : Buffer.t -> string -> unit
(** Varint length prefix followed by the raw bytes. *)

val raw : Buffer.t -> string -> unit
(** Raw bytes, no prefix. *)

val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** Varint count followed by each element. *)

val option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** {1 Reading} *)

type reader
(** A cursor over an immutable string ({!reader} reads all of it). *)

val reader : ?pos:int -> string -> reader

val sub_reader : string -> pos:int -> len:int -> reader
(** A reader over [s.[pos .. pos+len)] only: reading past [pos + len]
    raises {!Corrupt} even when [s] goes on.
    @raise Invalid_argument if the range is outside [s]. *)

val pos : reader -> int
val at_end : reader -> bool
val read_varint : reader -> int
val read_int64_le : reader -> int64
val read_string : reader -> string

val read_span : reader -> int * int
(** What {!read_string} reads, left in place: [(pos, len)] of its bytes
    in the reader's source string, with the same bounds check. *)

val read_raw : reader -> int -> string
val read_byte : reader -> char
val read_list : reader -> (reader -> 'a) -> 'a list
val read_option : reader -> (reader -> 'a) -> 'a option
val expect_end : reader -> unit
(** Raises {!Corrupt} if any input remains. *)

(** {1 Typed codecs}

    An ['a t] states a layout once for both directions: a writer built on
    the primitives above and a reader over a {!reader}. *)

type 'a t

val write : 'a t -> Buffer.t -> 'a -> unit
val read : 'a t -> reader -> 'a

val encode : ?size:int -> 'a t -> 'a -> string
(** [size] is the initial buffer capacity (default 64). *)

val decode : 'a t -> string -> 'a
(** One value, then {!expect_end}.  @raise Corrupt on malformed input. *)

val decode_sub : 'a t -> string -> pos:int -> len:int -> 'a
(** [decode_sub c s ~pos ~len] is [decode c (String.sub s pos len)]
    without the copy: the reader never looks outside [s.[pos .. pos+len)],
    so a value cut short raises {!Corrupt} even when the bytes after it
    would complete it.  Decoded strings are copies, never views of [s].
    @raise Invalid_argument if the range is outside [s]. *)

val uint : int t
val str : string t
val flag : bool t

val fixed : int -> string t
(** Exactly [n] raw bytes; writing another length is [Invalid_argument]. *)

val seq : 'a t -> 'a list t
(** A varint count, then each element. *)

val repeat : int -> 'a t -> 'a list t
(** Exactly [n] elements, no count. *)

val conv : ('b -> 'a) -> ('a -> 'b) -> 'a t -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t

(** {2 Tagged variants}

    One {!case} per constructor states its tag byte, argument layout and
    injection.  {!variant}'s encoder is an exhaustive [match] handing each
    constructor's argument to its case; its decoder dispatches on the tag
    through the table the cases registered in. *)

type 'v cases
type 'v choice

val cases : string -> 'v cases
(** An empty tag table; the name prefixes "bad tag" errors. *)

val case : 'v cases -> char -> 'a t -> ('a -> 'v) -> 'a -> 'v choice
(** [case cs tag arg inj] registers [inj] of [arg] under [tag] and
    returns the encoder's side of the case.
    @raise Invalid_argument if [tag] is already registered. *)

val const : 'v cases -> char -> 'v -> 'v choice
(** A constructor without arguments: the tag alone. *)

val variant : 'v cases -> ('v -> 'v choice) -> 'v t
