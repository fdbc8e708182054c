(** Content identifiers (§4.2.1).

    A cid is the SHA-256 digest of a chunk's serialized bytes.  Object
    versions ([uid]s) are cids of meta chunks, so this one type identifies
    both chunks and FObject versions. *)

type t
(** 32 raw bytes; abstract so only hashing can create one. *)

val of_raw : string -> t
(** @raise Invalid_argument if the input is not exactly 32 bytes. *)

val to_raw : t -> string

val codec : t Fbutil.Codec.t
(** The 32 raw bytes, unprefixed: how every wire message, journal record
    and chunk payload lays out a cid. *)

val of_hex : string -> t
val to_hex : t -> string
val short_hex : t -> string
(** First 8 hex characters, for logs and UIs. *)

val digest : string -> t
(** [digest bytes] hashes serialized chunk bytes into a cid. *)

val null : t
(** All-zero cid, used as a sentinel (e.g. the genesis block's parent). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Low [n] bits of the cid, used by the POS-Tree index split pattern
    [P'] (§4.3.3). *)
val low_bits : t -> int

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
