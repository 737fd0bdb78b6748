(** CRC-32C (Castagnoli) checksum.

    Used to frame on-disk records (funk-log entries, SSTable footers) so
    that torn writes and corruption are detected on recovery. Computed
    with slicing-by-8 over native ints: no entry point allocates beyond
    its boxed [int32] result. *)

val string : ?init:int32 -> string -> int32
(** [string s] is the CRC-32C of [s]. [init] continues a running
    checksum (default: fresh): [string ~init:(string a) b] is
    [string (a ^ b)]. *)

val substring : ?init:int32 -> string -> pos:int -> len:int -> int32
(** [substring s ~pos ~len] checksums the given slice of [s] without
    copying it — the verify path of log records and sorted views.
    Raises [Invalid_argument] if the slice is out of bounds. *)

val bytes : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [bytes b ~pos ~len] checksums the given slice. Raises
    [Invalid_argument] if the slice is out of bounds. *)

val bigslice : ?init:int32 -> Bigslice.t -> pos:int -> len:int -> int32
(** [bigslice b ~pos ~len] checksums a bigarray-backed slice without
    copying it — the fill-time verification path of the block cache.
    Raises [Invalid_argument] if the slice is out of bounds. *)

val mask : int32 -> int32
(** [mask crc] applies the standard rotation+offset masking (as in
    LevelDB/RocksDB) so that checksums of data containing embedded CRCs
    remain well-distributed. *)

val unmask : int32 -> int32
(** Inverse of {!mask}. *)
