(* Funk-log / WAL framing tests: roundtrips, torn-tail tolerance,
   corruption detection, range-bounded folds. *)

open Evendb_util
open Evendb_storage
open Evendb_log

let qtest = QCheck_alcotest.to_alcotest

let entry ?(version = 1) ?(counter = 0) ?value key : Kv_iter.entry =
  { key; value; version; counter }

let roundtrip () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "t.log" in
  let written =
    [
      entry ~value:"v1" "alpha";
      entry ~version:7 ~counter:3 ~value:"" "beta" (* empty value *);
      entry ~version:9 "gamma" (* tombstone *);
    ]
  in
  let offsets = List.map (Log_file.Writer.append w) written in
  Alcotest.(check int) "first offset" 0 (List.hd offsets);
  let read = Log_file.Reader.entries env "t.log" in
  Alcotest.(check int) "record count" 3 (List.length read);
  List.iter2
    (fun (off_expected, (e : Kv_iter.entry)) (off, (e' : Kv_iter.entry)) ->
      Alcotest.(check int) "offset" off_expected off;
      Alcotest.(check string) "key" e.key e'.key;
      Alcotest.(check (option string)) "value" e.value e'.value;
      Alcotest.(check int) "version" e.version e'.version;
      Alcotest.(check int) "counter" e.counter e'.counter)
    (List.combine offsets written)
    read

let random_roundtrip =
  QCheck.Test.make ~name:"log roundtrip (random entries)" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 1 50)
        (triple (string_of_size Gen.(int_range 0 32)) (option string) small_nat))
    (fun records ->
      let env = Env.memory () in
      let w = Log_file.Writer.create env "r.log" in
      let written =
        List.map (fun (k, v, ver) -> entry ~version:ver ?value:v k) records
      in
      List.iter (fun e -> ignore (Log_file.Writer.append w e)) written;
      let read = List.map snd (Log_file.Reader.entries env "r.log") in
      read = written)

let torn_tail () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "torn.log" in
  ignore (Log_file.Writer.append w (entry ~value:"ok" "a"));
  Log_file.Writer.fsync w;
  ignore (Log_file.Writer.append w (entry ~value:"lost" "b"));
  (* Crash: the unsynced second record tears away. *)
  Env.crash env;
  let read = Log_file.Reader.entries env "torn.log" in
  Alcotest.(check int) "only synced record" 1 (List.length read);
  Alcotest.(check string) "survivor" "a" (snd (List.hd read)).Kv_iter.key;
  (* Appending after recovery resumes from the valid prefix. *)
  let w2 = Log_file.Writer.open_append env "torn.log" in
  ignore (Log_file.Writer.append w2 (entry ~value:"new" "c"));
  let read = Log_file.Reader.entries env "torn.log" in
  Alcotest.(check (list string)) "records after resume" [ "a"; "c" ]
    (List.map (fun (_, (e : Kv_iter.entry)) -> e.key) read)

let corrupt_middle_skipped () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "c.log" in
  ignore (Log_file.Writer.append w (entry ~value:"1" "a"));
  let off2 = Log_file.Writer.append w (entry ~value:"2" "b") in
  ignore (Log_file.Writer.append w (entry ~value:"3" "c"));
  (* Flip a byte inside record 2 by rewriting the file. *)
  let data = Bytes.of_string (Env.read_all env "c.log") in
  Bytes.set data (off2 + 6) '\xff';
  let f = Env.create env "c.log" in
  Env.append f (Bytes.to_string data);
  Env.close_file f;
  (* The reader resynchronizes past the corrupt record: only the
     damaged record is lost, not everything after it. *)
  let read = List.map (fun (_, (e : Kv_iter.entry)) -> e.key) (Log_file.Reader.entries env "c.log") in
  Alcotest.(check (list string)) "corrupt record skipped" [ "a"; "c" ] read;
  Alcotest.(check int) "valid prefix" off2 (Log_file.Reader.valid_prefix_length env "c.log")

let garbage_suffix_recovered () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "g.log" in
  ignore (Log_file.Writer.append w (entry ~value:"1" "a"));
  ignore (Log_file.Writer.append w (entry ~value:"2" "b"));
  Log_file.Writer.close w;
  (* A torn append leaves a garbage suffix (a partial record). *)
  let f = Env.open_append env "g.log" in
  Env.append f "\x0d\xf0\xad\x8b torn partial record";
  Env.close_file f;
  let read = List.map (fun (_, (e : Kv_iter.entry)) -> e.key) (Log_file.Reader.entries env "g.log") in
  Alcotest.(check (list string)) "garbage tail ignored" [ "a"; "b" ] read;
  (* Appends resume after the garbage; replay resyncs past it. *)
  let w2 = Log_file.Writer.open_append env "g.log" in
  ignore (Log_file.Writer.append w2 (entry ~value:"3" "c"));
  let read = List.map (fun (_, (e : Kv_iter.entry)) -> e.key) (Log_file.Reader.entries env "g.log") in
  Alcotest.(check (list string)) "resync past garbage" [ "a"; "b"; "c" ] read

let range_fold () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "rg.log" in
  let offsets =
    List.map
      (fun i -> Log_file.Writer.append w (entry ~version:i ~value:(string_of_int i) "k"))
      [ 0; 1; 2; 3; 4 ]
  in
  let from2 = List.nth offsets 2 in
  let versions =
    List.rev
      (Log_file.Reader.fold ~lo:from2 env "rg.log" ~init:[] ~f:(fun acc _ e ->
           e.Kv_iter.version :: acc))
  in
  Alcotest.(check (list int)) "fold from offset" [ 2; 3; 4 ] versions;
  let hi = List.nth offsets 4 in
  let versions =
    List.rev
      (Log_file.Reader.fold ~lo:from2 ~hi env "rg.log" ~init:[] ~f:(fun acc _ e ->
           e.Kv_iter.version :: acc))
  in
  Alcotest.(check (list int)) "bounded fold" [ 2; 3 ] versions

let missing_file_is_empty () =
  let env = Env.memory () in
  Alcotest.(check int) "no records" 0 (List.length (Log_file.Reader.entries env "ghost.log"));
  Alcotest.(check int) "no prefix" 0 (Log_file.Reader.valid_prefix_length env "ghost.log")

let size_tracks_appends () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "sz.log" in
  Alcotest.(check int) "empty" 0 (Log_file.Writer.size w);
  ignore (Log_file.Writer.append w (entry ~value:"xyz" "k"));
  Alcotest.(check int) "size matches file" (Env.size env "sz.log") (Log_file.Writer.size w)

let concurrent_writers () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "mt.log" in
  let threads =
    List.init 4 (fun t ->
        Thread.create
          (fun () ->
            for i = 1 to 250 do
              ignore
                (Log_file.Writer.append w (entry ~version:((t * 1000) + i) ~value:"v" "k"))
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all records intact" 1000
    (List.length (Log_file.Reader.entries env "mt.log"))

let suite =
  [
    ( "log_file",
      [
        Alcotest.test_case "roundtrip" `Quick roundtrip;
        Alcotest.test_case "torn tail tolerated" `Quick torn_tail;
        Alcotest.test_case "corruption skipped by resync" `Quick corrupt_middle_skipped;
        Alcotest.test_case "garbage suffix recovered" `Quick garbage_suffix_recovered;
        Alcotest.test_case "range folds" `Quick range_fold;
        Alcotest.test_case "missing file = empty" `Quick missing_file_is_empty;
        Alcotest.test_case "size tracking" `Quick size_tracks_appends;
        Alcotest.test_case "concurrent writers" `Quick concurrent_writers;
        qtest random_roundtrip;
      ] );
  ]

(* ---- Additional edge cases ---- *)

let empty_key_and_value () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "e.log" in
  ignore (Log_file.Writer.append w (entry ~value:"" ""));
  ignore (Log_file.Writer.append w (entry ""));
  let read = List.map snd (Log_file.Reader.entries env "e.log") in
  Alcotest.(check int) "both records" 2 (List.length read);
  Alcotest.(check (option string)) "empty value" (Some "") (List.hd read).Kv_iter.value;
  Alcotest.(check (option string)) "tombstone" None (List.nth read 1).Kv_iter.value

let large_record () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "big.log" in
  let v = String.make 1_000_000 'x' in
  ignore (Log_file.Writer.append w (entry ~value:v "big"));
  match Log_file.Reader.entries env "big.log" with
  | [ (_, e) ] -> Alcotest.(check int) "megabyte value" 1_000_000
      (String.length (Option.get e.Kv_iter.value))
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let fold_beyond_end () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "fb.log" in
  ignore (Log_file.Writer.append w (entry ~value:"v" "k"));
  let n = Log_file.Reader.fold ~lo:10_000 env "fb.log" ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "empty when lo beyond end" 0 n

let version_counter_extremes () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "x.log" in
  let big = entry ~version:max_int ~counter:max_int ~value:"v" "k" in
  ignore (Log_file.Writer.append w big);
  match Log_file.Reader.entries env "x.log" with
  | [ (_, e) ] ->
    Alcotest.(check int) "max version" max_int e.Kv_iter.version;
    Alcotest.(check int) "max counter" max_int e.Kv_iter.counter
  | _ -> Alcotest.fail "record lost"

let suite =
  suite
  @ [
      ( "log_edges",
        [
          Alcotest.test_case "empty key/value" `Quick empty_key_and_value;
          Alcotest.test_case "megabyte record" `Quick large_record;
          Alcotest.test_case "fold beyond end" `Quick fold_beyond_end;
          Alcotest.test_case "extreme version/counter" `Quick version_counter_extremes;
        ] );
    ]

(* ---- Windowed reads ---- *)

(* Reference reader over one read of the whole range: the windowed
   reader must return the same records at the same offsets and count
   the same garbage runs. *)
let one_read_fold env name ~lo ~hi =
  let hi = min hi (Env.size env name) in
  if lo >= hi then ([], 0)
  else begin
    let data = Env.read_at env name ~off:lo ~len:(hi - lo) in
    let rec go acc runs pos ~in_garbage =
      if pos >= hi - lo then (List.rev acc, runs)
      else
        match Log_file.Record.decode data ~pos with
        | None -> go acc (if in_garbage then runs else runs + 1) (pos + 1) ~in_garbage:true
        | Some (e, next) -> go ((lo + pos, e) :: acc) runs next ~in_garbage:false
    in
    go [] 0 0 ~in_garbage:false
  end

let windowed_fold (env, name, lo, hi) =
  let r0 = Env.log_resyncs env in
  let got =
    List.rev (Log_file.Reader.fold ~lo ~hi env name ~init:[] ~f:(fun acc off e -> (off, e) :: acc))
  in
  (got, Env.log_resyncs env - r0)

(* A log of records whose values straddle the ~2 KiB read window, with
   garbage runs between some of them and possibly a torn last record;
   [lo] is a record boundary and [hi] anywhere in the file. *)
let gen_log =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        ( 4,
          map2
            (fun klen vlen -> `Record (String.make klen 'k', String.make vlen 'v'))
            (int_range 0 40) (int_range 0 6000) );
        (1, map (fun s -> `Garbage s) (string_size ~gen:char (int_range 1 64)));
      ]
  in
  map3
    (fun pieces torn (lo_pick, hi_pick) ->
      let env = Env.memory () in
      let f = Env.create env "w.log" in
      let starts = ref [ 0 ] in
      List.iteri
        (fun i p ->
          match p with
          | `Record (k, v) ->
            starts := Env.file_size f :: !starts;
            Env.append f (Log_file.Record.encode (entry ~version:i ~value:v k))
          | `Garbage s -> Env.append f s)
        pieces;
      if torn > 0 then begin
        let frame = Log_file.Record.encode (entry ~value:(String.make 3000 't') "torn") in
        Env.append f (String.sub frame 0 (min torn (String.length frame - 1)))
      end;
      Env.close_file f;
      let size = Env.size env "w.log" in
      let starts = Array.of_list !starts in
      let lo = starts.(lo_pick mod Array.length starts) in
      (env, "w.log", lo, lo + (hi_pick mod (size - lo + 1)))
    )
    (list_size (int_range 1 24) piece)
    (int_range 0 3100) (pair nat nat)

let windowed_equals_one_read =
  QCheck.Test.make ~name:"windowed fold = one-read fold" ~count:150
    (QCheck.make gen_log ~print:(fun (_, _, lo, hi) -> Printf.sprintf "lo=%d hi=%d" lo hi))
    (fun ((env, name, lo, hi) as case) ->
      let want = one_read_fold env name ~lo ~hi in
      windowed_fold case = want)

let fold_reads_each_byte_once () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "once.log" in
  List.iteri
    (fun i n -> ignore (Log_file.Writer.append w (entry ~version:i ~value:(String.make n 'x') "k")))
    [ 10; 5000; 700; 2030; 2040; 0; 9000; 1 ];
  let size = Env.size env "once.log" in
  let read () = (Io_stats.snapshot (Env.stats env)).Io_stats.bytes_read in
  let r0 = read () in
  let n = Log_file.Reader.fold env "once.log" ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "all records" 8 n;
  Alcotest.(check int) "bytes read = log size" size (read () - r0)

(* One read of a 256 KiB range would be a 32K-word major-heap block per
   fold; the windows stay in the minor heap. *)
let fold_allocates_no_large_block () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "big.log" in
  let i = ref 0 in
  while Log_file.Writer.size w < 256 * 1024 do
    incr i;
    ignore (Log_file.Writer.append w (entry ~version:!i ~value:(String.make 800 'v') "key"))
  done;
  let count () = Log_file.Reader.fold env "big.log" ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  ignore (count ());
  let m0 = (Gc.quick_stat ()).Gc.major_words in
  let n = count () in
  let major = (Gc.quick_stat ()).Gc.major_words -. m0 in
  Alcotest.(check int) "all records" !i n;
  if major > 4096.0 then Alcotest.failf "fold put %.0f words on the major heap" major

let record_at_reads_one_record () =
  let env = Env.memory () in
  let w = Log_file.Writer.create env "ra.log" in
  let written = List.map (fun n -> entry ~version:n ~value:(String.make n 'r') "k") [ 3; 4000; 12 ] in
  let offsets = List.map (Log_file.Writer.append w) written in
  let size = Env.size env "ra.log" in
  List.iter2
    (fun off e ->
      Alcotest.(check bool) "record at its offset" true
        (Log_file.Reader.record_at env "ra.log" ~off ~hi:size = Some e))
    offsets written;
  let big = List.nth offsets 1 and last = List.nth offsets 2 in
  Alcotest.(check bool) "mid-record offset" true
    (Log_file.Reader.record_at env "ra.log" ~off:(big + 1) ~hi:size = None);
  Alcotest.(check bool) "frame cut by hi" true
    (Log_file.Reader.record_at env "ra.log" ~off:big ~hi:(last - 1) = None);
  Alcotest.(check bool) "offset at hi" true
    (Log_file.Reader.record_at env "ra.log" ~off:last ~hi:last = None)

let suite =
  suite
  @ [
      ( "log_windows",
        [
          qtest windowed_equals_one_read;
          Alcotest.test_case "each byte read once" `Quick fold_reads_each_byte_once;
          Alcotest.test_case "no major-heap block per fold" `Quick fold_allocates_no_large_block;
          Alcotest.test_case "record_at" `Quick record_at_reads_one_record;
        ] );
    ]
