(** Append-only record log with CRC framing.

    Used for funk logs (per-chunk, §2.2) and the LSM baseline's WAL.
    Each record frames one versioned KV entry:

    {v [masked crc32c : 4B LE] [payload_len : varint] [payload] v}

    where the payload encodes op/key/version/counter/value. A torn or
    corrupt record is skipped, not fatal: the reader resynchronizes on
    the next valid CRC frame, so a crash that tears the tail of a log
    loses only the unsynced suffix — the behaviour the recovery
    semantics (§3.5) rely on — and a torn record mid-log (a failed
    append followed by successful ones) never hides the acknowledged
    records written after it. *)

open Evendb_util
open Evendb_storage

module Record : sig
  val encode : Kv_iter.entry -> string
  (** The full framed record for one entry. *)

  val decode : string -> pos:int -> (Kv_iter.entry * int) option
  (** [decode s ~pos] returns the entry starting at [pos] and the
      position after it, or [None] if the data at [pos] is truncated
      or fails its checksum. *)
end

module Writer : sig
  type t

  val create : Env.t -> string -> t
  (** Create or truncate the log. *)

  val open_append : Env.t -> string -> t
  (** Append to an existing log. The tail is scanned to find the end
      of the last valid record; a torn tail is ignored (subsequent
      appends are written after the last valid record boundary as far
      as accounting is concerned — on the memory backend the torn
      bytes were already discarded by the crash). *)

  val append : t -> Kv_iter.entry -> int
  (** Append one record, returning the byte offset at which it starts
      (fed to the partitioned bloom filter). Thread-safe. *)

  val size : t -> int

  val append_count : t -> int
  (** Records appended through this writer (excludes records already
      in the file when it was opened with {!open_append}). *)

  val fsync : t -> unit
  val close : t -> unit
end

module Reader : sig
  val fold :
    ?lo:int -> ?hi:int -> Env.t -> string -> init:'a -> f:('a -> int -> Kv_iter.entry -> 'a) -> 'a
  (** [fold ~lo ~hi env name ~init ~f] applies [f acc offset entry] to
      every record whose frame starts in [\[lo, hi)], in log order.
      [lo] must be a record boundary (0 or an offset returned by
      {!Writer.append}). Defaults: the whole log. Missing file =
      empty log. Undecodable bytes (torn or corrupt records) are
      skipped via CRC resynchronization; each maximal garbage run is
      counted once on the env ({!Env.log_resyncs}). The range is read
      in windows of about 2 KiB, each byte once. *)

  val record_at : Env.t -> string -> off:int -> hi:int -> Kv_iter.entry option
  (** [record_at env name ~off ~hi] is the record framed at [off], read
      on its own, or [None] if no valid record whose frame ends by [hi]
      starts there. Raises what {!Env.read_at} raises when the file is
      missing or shorter than the frame needs. *)

  val entries : Env.t -> string -> (int * Kv_iter.entry) list
  (** All valid records with their offsets, in append order. *)

  val valid_prefix_length : Env.t -> string -> int
  (** Byte length of the longest prefix consisting of valid records. *)

  val garbage_regions : Env.t -> string -> (int * int) list
  (** Byte ranges [\[start, stop)] that decode as no valid record —
      torn tails or corrupted bytes — in file order. The scrubber's
      view of a log; does not touch the resync counter. *)
end
