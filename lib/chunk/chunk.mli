(** Chunks — the basic unit of storage (§4.2, Table 2).

    A chunk is a typed, immutable blob of bytes.  Its cid is the SHA-256 of
    its full serialized form (tag byte + payload), giving tamper evidence at
    the chunk level: chunks with equal cids contain identical content. *)

type tag =
  | Meta  (** serialized FObject *)
  | UIndex  (** POS-Tree index node for unsorted types (Blob, List) *)
  | SIndex  (** POS-Tree index node for sorted types (Set, Map) *)
  | Blob  (** raw byte sequence *)
  | List  (** sequence of elements *)
  | Set  (** sorted elements *)
  | Map  (** sorted key-value pairs *)

val tag_to_string : tag -> string

type t = private { tag : tag; payload : string }

val v : tag -> string -> t
val cid : t -> Cid.t
(** SHA-256 of {!encode}d bytes, hashed from the tag and the payload
    without building them. *)

val byte_size : t -> int
(** Serialized size (payload + 1 tag byte). *)

val encode : t -> string

val output : out_channel -> t -> unit
(** Write the bytes of {!encode} to the channel without building them. *)

val decode : string -> t
(** @raise Fbutil.Codec.Corrupt on an invalid tag byte or empty input. *)
