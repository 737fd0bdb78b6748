open Evendb_util
open Evendb_storage

(* Payload: [op : 1B] [klen : varint] [key] [version : varint]
   [counter : varint] and, for puts, [vlen : varint] [value]. *)

module Record = struct
  let op_put = 0
  let op_delete = 1

  let payload_length (e : Kv_iter.entry) =
    let klen = String.length e.key in
    let value_len =
      match e.value with
      | Some v -> Varint.encoded_size (String.length v) + String.length v
      | None -> 0
    in
    1 + Varint.encoded_size klen + klen + Varint.encoded_size e.version
    + Varint.encoded_size e.counter + value_len

  (* The frame is built in one exactly-sized buffer and checksummed in
     place: one allocation per record, and the frame is never copied. *)
  let encode (e : Kv_iter.entry) =
    let plen = payload_length e in
    let start = 4 + Varint.encoded_size plen in
    let b = Bytes.create (start + plen) in
    let p = Varint.write_bytes b 4 plen in
    Bytes.set b p (Char.chr (match e.value with Some _ -> op_put | None -> op_delete));
    let add_string p s =
      Bytes.blit_string s 0 b p (String.length s);
      p + String.length s
    in
    let p = Varint.write_bytes b (p + 1) (String.length e.key) in
    let p = add_string p e.key in
    let p = Varint.write_bytes b p e.version in
    let p = Varint.write_bytes b p e.counter in
    let p =
      match e.value with
      | Some v -> add_string (Varint.write_bytes b p (String.length v)) v
      | None -> p
    in
    assert (p = start + plen);
    Bytes.set_int32_le b 0 (Crc32c.mask (Crc32c.bytes b ~pos:start ~len:plen));
    Bytes.unsafe_to_string b

  let decode_payload s pos len : Kv_iter.entry =
    let fin = pos + len in
    let op = Char.code s.[pos] in
    let klen, p = Varint.read s (pos + 1) in
    let key = String.sub s p klen in
    let p = p + klen in
    let version, p = Varint.read s p in
    let counter, p = Varint.read s p in
    if op = op_delete then begin
      if p <> fin then invalid_arg "trailing bytes";
      { key; value = None; version; counter }
    end
    else begin
      let vlen, p = Varint.read s p in
      if p + vlen <> fin then invalid_arg "bad value length";
      { key; value = Some (String.sub s p vlen); version; counter }
    end

  (* Bytes from [pos] to the end of the frame whose header starts there,
     or [None] while the header itself runs past the end of [s]. *)
  let frame_length s ~pos =
    if pos + 5 > String.length s then None
    else
      match Varint.read s (pos + 4) with
      | len, p -> Some (p - pos + len)
      | exception Invalid_argument _ -> None

  let decode s ~pos =
    let n = String.length s in
    if pos + 5 > n then None
    else
      match
        let expected = Crc32c.unmask (String.get_int32_le s pos) in
        let len, p = Varint.read s (pos + 4) in
        if len < 0 || len > n - p then None
        else if Crc32c.substring s ~pos:p ~len <> expected then None
        else Some (decode_payload s p len, p + len)
      with
      | result -> result
      | exception Invalid_argument _ -> None
end

module Writer = struct
  type t = {
    file : Env.file;
    mutex : Mutex.t;
    mutable pos : int;
    mutable appends : int;
  }

  let create env name =
    {
      file = Env.create env name;
      mutex = Mutex.create ();
      pos = 0;
      appends = 0;
    }

  let open_append env name =
    let file = Env.open_append env name in
    {
      file;
      mutex = Mutex.create ();
      pos = Env.file_size file;
      appends = 0;
    }

  (* Append and fsync charge themselves to the calling op's attribution
     frame (Attr.timed is a no-op off the op hot path), so WAL/funk-log
     cost shows up as Log_append/Fsync without this layer holding any
     Attr handle. The append charge includes the writer mutex wait:
     serialization behind a contended log IS log-append stall. *)
  let append t e =
    Evendb_obs.Attr.timed Evendb_obs.Attr.Log_append @@ fun () ->
    let frame = Record.encode e in
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        let start = t.pos in
        (try Env.append t.file frame
         with exn ->
           (* A failed append may be torn: some prefix of the record
              reached the backend. Resync to what actually landed so
              the next record starts after the garbage — readers skip
              it by CRC resynchronization. *)
           t.pos <- Env.file_size t.file;
           raise exn);
        t.pos <- start + String.length frame;
        t.appends <- t.appends + 1;
        start)

  let size t = t.pos

  let append_count t =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> t.appends)
  let fsync t = Evendb_obs.Attr.timed Evendb_obs.Attr.Fsync (fun () -> Env.fsync t.file)
  let close t = Env.close_file t.file
end

module Reader = struct
  (* Reads go through windows of [window_bytes]: a string that size
     still fits the minor heap (at most 256 words). One read of a whole
     range would put a fresh major-heap block on every call — every
     munk-less scan and get — and the major GC it drives makes those
     calls' cost vary from run to run. A frame that runs past the end of
     a window is completed by reading just its remaining bytes, so no
     byte is read from the env twice. *)
  let window_bytes = 2040

  (* [w] holds bytes [base, base + String.length w) of the log, and
     [pos] is inside it or at its end. Returns a window that shows the
     frame at [pos] as one read of the whole range up to [hi] would:
     all of the frame, or everything up to [hi]. *)
  let rec settle env name ~hi w ~base ~pos =
    let rel = pos - base in
    let avail = String.length w - rel in
    let need =
      match Record.frame_length w ~pos:rel with
      | None -> window_bytes
      | Some n -> if n > hi - pos then 0 else n
    in
    if avail >= hi - pos || need <= avail then (w, base)
    else begin
      let len = min (hi - pos) need in
      let fresh = Env.read_at env name ~off:(pos + avail) ~len:(len - avail) in
      let w =
        if avail = 0 then fresh
        else begin
          let b = Bytes.create len in
          Bytes.blit_string w rel b 0 avail;
          Bytes.blit_string fresh 0 b avail (len - avail);
          Bytes.unsafe_to_string b
        end
      in
      settle env name ~hi w ~base:pos ~pos
    end

  let fold ?(lo = 0) ?hi env name ~init ~f =
    if not (Env.exists env name) then init
    else begin
      (* Read only the requested range: segment-bounded lookups must not
         pay for the whole log (that is the point of the partitioned
         bloom filter). [hi], when it is a segment boundary, is also a
         record boundary, so no record straddles it. *)
      let file_len = Env.size env name in
      let hi = match hi with None -> file_len | Some h -> min h file_len in
      (* Torn writes leave garbage mid-log when appends resume after a
         failure. On a framing/CRC mismatch, resynchronize: scan ahead
         byte-by-byte for the next position that decodes as a valid
         record, so one torn record never hides the acknowledged
         records behind it. A spurious match needs a 32-bit CRC
         collision inside garbage. *)
      (* Each maximal garbage run is one resync event on the env's
         counter — the observable trace of torn writes survived. *)
      let rec go acc w base pos ~in_garbage =
        if pos >= hi then acc
        else
          let w, base = settle env name ~hi w ~base ~pos in
          match Record.decode w ~pos:(pos - base) with
          | None ->
            if not in_garbage then Env.note_log_resync env;
            go acc w base (pos + 1) ~in_garbage:true
          | Some (e, next) -> go (f acc pos e) w base (base + next) ~in_garbage:false
      in
      go init "" lo lo ~in_garbage:false
    end

  let record_at env name ~off ~hi =
    if off < 0 || off >= hi then None
    else
      let w, base = settle env name ~hi "" ~base:off ~pos:off in
      Option.map fst (Record.decode w ~pos:(off - base))

  let entries env name =
    List.rev (fold env name ~init:[] ~f:(fun acc off e -> (off, e) :: acc))

  let valid_prefix_length env name =
    if not (Env.exists env name) then 0
    else begin
      let data = Env.read_all env name in
      let rec go pos =
        match Record.decode data ~pos with
        | None -> pos
        | Some (_, next) -> go next
      in
      go 0
    end

  let garbage_regions env name =
    if not (Env.exists env name) then []
    else begin
      let data = Env.read_all env name in
      let n = String.length data in
      let rec go acc pos ~run_start =
        if pos >= n then
          match run_start with None -> List.rev acc | Some s -> List.rev ((s, n) :: acc)
        else
          match Record.decode data ~pos with
          | None ->
            let run_start = match run_start with None -> Some pos | some -> some in
            go acc (pos + 1) ~run_start
          | Some (_, next) -> (
            match run_start with
            | None -> go acc next ~run_start:None
            | Some s -> go ((s, pos) :: acc) next ~run_start:None)
      in
      go [] 0 ~run_start:None
    end
end
