(** A byte slice over a char bigarray, used for zero-copy partial reads
    from storage backends (mmap windows on disk, fresh buffers in
    memory) and for cached sstable blocks. Slices may alias shared
    underlying storage; treat them as read-only unless you created the
    buffer yourself. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val length : t -> int

val bigarray : t -> buf
val offset : t -> int
(** The underlying buffer and the slice's start in it, for zero-copy
    readers such as {!Crc32c.bigslice}. Do not write through the
    buffer. *)

val of_bigarray : ?off:int -> ?len:int -> buf -> t
(** View over an existing bigarray without copying. *)

val create : int -> t
(** Fresh uninitialized buffer of the given length. *)

val get : t -> int -> char
val unsafe_get : t -> int -> char

val set : t -> int -> char -> unit
(** Only meaningful on slices whose buffer the caller owns (e.g. from
    [create] or [copy]); writing to an mmap-backed window is a bug. *)

val sub : t -> off:int -> len:int -> t
(** Sub-slice sharing the same buffer; no copy. *)

val of_string : string -> t
val substring : t -> off:int -> len:int -> string
val to_string : t -> string

val copy : t -> t
(** Fresh private buffer with the same contents — used by the fault
    middleware to corrupt a returned slice without touching the
    (possibly mmap-backed) original. *)

val blit_from_bytes : Bytes.t -> src_off:int -> t -> dst_off:int -> len:int -> unit
