open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log
module K = Kv_iter

(* REMIX-style persistent sorted view of one funk.

   A funk's cold-scan path historically re-merged the funk log (fold +
   sort) with the sstable on every scan. The sorted view persists the
   outcome of that merge as a token sequence: walking the tokens in
   order visits every entry of sstable + covered log prefix in
   canonical {!Kv_iter.compare_entries} order, touching each source
   exactly once with a cursor instead of re-sorting.

   On-disk format (little-endian, varints as in {!Varint}):

   {v
     magic "EVVIEW01"                      8 bytes
     sst_entry_count                       varint   } identity of the
     sst_file_size                         varint   } sstable at build
     log_upto                              varint   covered log bytes
     log_crc                               u32 LE   masked CRC32C of log[0,log_upto)
     n_tokens                              varint
     token*                                varint each:
                                             0     = next sstable entry in order
                                             k > 0 = log record framed at byte k-1
     n_fences                              varint
     fence*                                (token_idx varint, sst_consumed varint,
                                            klen varint, key bytes)
     trailer_crc                           u32 LE   masked CRC32C of everything above
   v}

   Fences are emitted every [fence_every] tokens and let a range scan
   seek: the cursor starts at the last fence whose key is strictly
   below the scan's low bound and positions the sstable iterator at
   that fence's [sst_consumed] via {!Sstable.Reader.iter_from_nth}.

   Views are derived data. [load] validates the trailer CRC, the
   sstable identity and a CRC over the covered log prefix; any
   mismatch yields [None] and the caller falls back to the merge path.
   [cursor] re-checks each log record's own frame CRC as it is read
   and raises {!Stale} on any disagreement mid-walk, so a view can
   never silently serve bytes the log no longer contains. Log records
   appended after the build (offsets >= log_upto) are folded, sorted
   and merged in at scan time — a view is useful until the uncovered
   suffix grows large, at which point the owner rebuilds it. *)

let magic = "EVVIEW01"
let fence_every = 256

type fence = { f_token : int; f_sst_consumed : int; f_key : string }

type t = {
  tokens : int array; (* 0 = sst; k > 0 = log offset k-1 *)
  fences : fence array;
  log_upto : int;
}

exception Stale

let token_count t = Array.length t.tokens
let covered_log_bytes t = t.log_upto

let add_u32 buf v =
  Buffer.add_int32_le buf v

let read_u32 s pos = String.get_int32_le s pos

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

let build env ~sst ~log_name ~view_name =
  let log_upto = try Env.size env log_name with Not_found -> 0 in
  let log_crc =
    if log_upto = 0 then Crc32c.string ""
    else Crc32c.string (Env.read_at env log_name ~off:0 ~len:log_upto)
  in
  (* Stable sort keeps equal (key, version, counter) triples in append
     order; ties between log and sstable go to the log. Either way the
     duplicates carry identical values (GV versions are unique per
     update), so tie order can never change scan results. *)
  let log_entries =
    List.stable_sort (fun (_, a) (_, b) -> K.compare_entries a b) (Log_file.Reader.entries env log_name)
  in
  let sst_it = Sstable.Reader.iter sst in
  let tbuf = Buffer.create 4096 in
  let fences = ref [] in
  let n_tokens = ref 0 in
  let sst_consumed = ref 0 in
  let maybe_fence (e : K.entry) =
    if !n_tokens mod fence_every = 0 then fences := (!n_tokens, !sst_consumed, e.key) :: !fences
  in
  let emit_sst (e : K.entry) =
    maybe_fence e;
    Varint.write tbuf 0;
    incr n_tokens;
    incr sst_consumed
  in
  let emit_log off (e : K.entry) =
    maybe_fence e;
    Varint.write tbuf (off + 1);
    incr n_tokens
  in
  let rec merge log_rest sst_head =
    match (log_rest, sst_head) with
    | [], None -> ()
    | [], Some e ->
      emit_sst e;
      merge [] (sst_it ())
    | (off, le) :: rest, None ->
      emit_log off le;
      merge rest None
    | (off, le) :: rest, Some se ->
      if K.compare_entries le se <= 0 then begin
        emit_log off le;
        merge rest sst_head
      end
      else begin
        emit_sst se;
        merge log_rest (sst_it ())
      end
  in
  merge log_entries (sst_it ());
  let buf = Buffer.create (Buffer.length tbuf + 256) in
  Buffer.add_string buf magic;
  Varint.write buf (Sstable.Reader.entry_count sst);
  Varint.write buf (try Env.size env (Sstable.Reader.name sst) with Not_found -> 0);
  Varint.write buf log_upto;
  add_u32 buf (Crc32c.mask log_crc);
  Varint.write buf !n_tokens;
  Buffer.add_buffer buf tbuf;
  let fences = List.rev !fences in
  Varint.write buf (List.length fences);
  List.iter
    (fun (tok, consumed, key) ->
      Varint.write buf tok;
      Varint.write buf consumed;
      Varint.write buf (String.length key);
      Buffer.add_string buf key)
    fences;
  let body = Buffer.contents buf in
  add_u32 buf (Crc32c.mask (Crc32c.string body));
  let data = Buffer.contents buf in
  (* Atomic publication: the view either exists whole or not at all.
     The ".tmp" suffix puts interrupted builds under the scrubber's
     existing leftover-tmp sweep. *)
  let tmp = view_name ^ ".tmp" in
  try
    let f = Env.create env tmp in
    (try
       Env.append f data;
       Env.fsync f;
       Env.close_file f
     with exn ->
       (try Env.close_file f with _ -> ());
       raise exn);
    Env.rename env ~old_name:tmp ~new_name:view_name
  with exn ->
    (try Env.delete env tmp with _ -> ());
    raise exn

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

(* Structural validation alone — is this file a well-formed view? —
   shared by [load] and the scrubber (which must flag corruption but
   not staleness: a stale view is valid derived data awaiting rebuild). *)
let parse s =
  try
    let n = String.length s in
    if n < String.length magic + 4 then raise Exit;
    if not (String.starts_with ~prefix:magic s) then raise Exit;
    let body_len = n - 4 in
    if Crc32c.mask (Crc32c.substring s ~pos:0 ~len:body_len) <> read_u32 s body_len then raise Exit;
    let pos = ref (String.length magic) in
    let rd () =
      let v, p = Varint.read s !pos in
      pos := p;
      v
    in
    let sst_entry_count = rd () in
    let sst_file_size = rd () in
    let log_upto = rd () in
    let log_crc = read_u32 s !pos in
    pos := !pos + 4;
    let n_tokens = rd () in
    if n_tokens > body_len then raise Exit;
    let tokens = Array.init n_tokens (fun _ -> rd ()) in
    let n_fences = rd () in
    if n_fences > n_tokens + 1 then raise Exit;
    let fences =
      Array.init n_fences (fun _ ->
          let f_token = rd () in
          let f_sst_consumed = rd () in
          let klen = rd () in
          if !pos + klen > body_len then raise Exit;
          let f_key = String.sub s !pos klen in
          pos := !pos + klen;
          { f_token; f_sst_consumed; f_key })
    in
    if !pos <> body_len then raise Exit;
    Some (sst_entry_count, sst_file_size, log_crc, { tokens; fences; log_upto })
  with Exit | Invalid_argument _ -> None

let well_formed s = parse s <> None

let load env ~sst ~log_name ~view_name =
  match try Some (Env.read_all env view_name) with Not_found -> None with
  | None -> None
  | Some s -> (
    match parse s with
    | None -> None
    | Some (sst_entry_count, sst_file_size, log_crc, view) ->
      (* The view must describe *this* sstable and a prefix of *this*
         log. The sstable is immutable once published, so entry count
         plus file size pin its identity; the covered log prefix is
         re-checksummed once here (appends only extend the log, so a
         matching prefix stays matching until the file is replaced). *)
      let ok =
        try
          sst_entry_count = Sstable.Reader.entry_count sst
          && sst_file_size = Env.size env (Sstable.Reader.name sst)
          && Env.size env log_name >= view.log_upto
          &&
          let covered =
            if view.log_upto = 0 then "" else Env.read_at env log_name ~off:0 ~len:view.log_upto
          in
          Crc32c.mask (Crc32c.string covered) = log_crc
        with Not_found | Invalid_argument _ -> false
      in
      if ok then Some view else None)

(* ------------------------------------------------------------------ *)
(* Cursor                                                              *)

let cursor view env ~sst ~log_name ~low ~high : K.t =
  (* Seek: last fence strictly below [low] — entries at the fence key
     itself may also exist before the fence, so equal keys must not be
     skipped over. *)
  let start_tok, start_sst =
    let lo = ref (-1) and hi = ref (Array.length view.fences) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if String.compare view.fences.(mid).f_key low < 0 then lo := mid else hi := mid
    done;
    if !lo < 0 then (0, 0)
    else
      let f = view.fences.(!lo) in
      (f.f_token, f.f_sst_consumed)
  in
  let sst_it = Sstable.Reader.iter_from_nth sst start_sst in
  let idx = ref start_tok in
  let finished = ref false in
  let rec token_walk () =
    if !finished || !idx >= Array.length view.tokens then None
    else begin
      let tok = view.tokens.(!idx) in
      incr idx;
      let e =
        if tok = 0 then
          match sst_it () with
          | Some e -> e
          | None -> raise Stale
        else
          (* Each log token reads its own record: the cursor never
             copies the covered prefix, of which a range scan walks a
             few records. *)
          match Log_file.Reader.record_at env log_name ~off:(tok - 1) ~hi:view.log_upto with
          | Some e -> e
          | None | (exception (Not_found | Invalid_argument _)) -> raise Stale
      in
      if String.compare e.K.key low < 0 then token_walk ()
      else if String.compare e.K.key high > 0 then begin
        finished := true;
        None
      end
      else Some e
    end
  in
  (* Records appended after the build live past [log_upto]; they are
     few (the owner rebuilds once the suffix grows) so fold-and-sort
     here costs what the old merge path paid for the whole log. *)
  let suffix =
    if (try Env.size env log_name with Not_found -> 0) <= view.log_upto then K.of_list []
    else
      let entries =
        Log_file.Reader.fold ~lo:view.log_upto env log_name ~init:[] ~f:(fun acc _off e ->
            if String.compare low e.K.key <= 0 && String.compare e.K.key high <= 0 then e :: acc
            else acc)
      in
      K.of_list (List.stable_sort K.compare_entries entries)
  in
  K.merge [ token_walk; suffix ]
