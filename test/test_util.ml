(* Unit and property tests for the utility substrate: varint, CRC-32C,
   bit tricks, RNG, Zipfian and power-law distributions, histogram,
   shared/exclusive lock, and the KV iterator algebra. *)

open Evendb_util

let qtest = QCheck_alcotest.to_alcotest

(* ---- Varint ---- *)

let varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.write buf n;
      let v, next = Varint.read (Buffer.contents buf) 0 in
      Alcotest.(check int) "value" n v;
      Alcotest.(check int) "consumed" (Buffer.length buf) next;
      Alcotest.(check int) "size" (Buffer.length buf) (Varint.encoded_size n))
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 20; 1 lsl 40; max_int ]

let varint_sequence () =
  let buf = Buffer.create 64 in
  let values = [ 5; 300; 0; max_int; 77 ] in
  List.iter (Varint.write buf) values;
  let s = Buffer.contents buf in
  let rec check pos = function
    | [] -> Alcotest.(check int) "consumed all" (String.length s) pos
    | v :: rest ->
      let got, next = Varint.read s pos in
      Alcotest.(check int) "element" v got;
      check next rest
  in
  check 0 values

let varint_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative") (fun () ->
      Varint.write (Buffer.create 4) (-1))

let varint_truncated () =
  let buf = Buffer.create 4 in
  Varint.write buf 300;
  let s = String.sub (Buffer.contents buf) 0 1 in
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.read: truncated") (fun () ->
      ignore (Varint.read s 0))

let varint_qcheck =
  QCheck.Test.make ~name:"varint roundtrip (random)" ~count:500
    QCheck.(small_nat)
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.write buf n;
      fst (Varint.read (Buffer.contents buf) 0) = n)

let varint_bytes_roundtrip =
  QCheck.Test.make ~name:"varint write_bytes/read_bytes" ~count:200 QCheck.small_nat (fun n ->
      let b = Bytes.create 16 in
      let stop = Varint.write_bytes b 3 n in
      let v, next = Varint.read_bytes b 3 in
      v = n && next = stop)

(* ---- CRC-32C ---- *)

let crc_known_vectors () =
  (* Standard CRC-32C test vector: "123456789" -> 0xE3069283. *)
  Alcotest.(check int32) "123456789" 0xE3069283l (Crc32c.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32c.string "")

let crc_mask_roundtrip =
  QCheck.Test.make ~name:"crc mask/unmask" ~count:500 QCheck.string (fun s ->
      let crc = Crc32c.string s in
      Crc32c.unmask (Crc32c.mask crc) = crc)

let crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single-byte corruption" ~count:200
    QCheck.(string_of_size Gen.(int_range 1 64))
    (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Crc32c.string (Bytes.to_string b) <> Crc32c.string s)

let crc_bytes_slice () =
  let b = Bytes.of_string "xxhello worldyy" in
  Alcotest.(check int32) "slice" (Crc32c.string "hello world") (Crc32c.bytes b ~pos:2 ~len:11)

(* RFC 3720 section B.4 known-answer vectors. *)
let crc_rfc3720_vectors () =
  let check name want s = Alcotest.(check int32) name want (Crc32c.string s) in
  check "32 x 0x00" 0x8A9136AAl (String.make 32 '\x00');
  check "32 x 0xFF" 0x62A8AB43l (String.make 32 '\xff');
  check "0..31" 0x46DD794El (String.init 32 Char.chr);
  check "31..0" 0x113FDB5Cl (String.init 32 (fun i -> Char.chr (31 - i)))

(* Bytewise table-driven CRC-32C, the textbook form the slicing-by-8
   implementation must agree with bit for bit. *)
let ref_table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0x82f63b78 else !c lsr 1
      done;
      !c)

let ref_crc ?(init = 0l) s ~pos ~len =
  let c = ref (Int32.to_int init land 0xffffffff lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := ref_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

(* Every entry point over [s.[pos .. pos + len - 1]] against the
   reference, with and without a running [init]. The bigarray copy sits
   at a nonzero offset inside a larger buffer, so slice offsets are
   exercised there too. *)
let crc_entry_points_agree ~init s ~pos ~len =
  let want = ref_crc ~init s ~pos ~len in
  let big = Bigslice.of_string ("pad" ^ s) in
  let big = Bigslice.sub big ~off:3 ~len:(String.length s) in
  let sub = String.sub s pos len in
  want = Crc32c.substring ~init s ~pos ~len
  && want = Crc32c.string ~init sub
  && want = Crc32c.bytes ~init (Bytes.of_string s) ~pos ~len
  && want = Crc32c.bigslice ~init big ~pos ~len
  && ref_crc s ~pos ~len = Crc32c.substring s ~pos ~len

let crc_sweep_lengths () =
  let s = String.init 4120 (fun i -> Char.chr (((i * 131) + (i lsr 7)) land 0xff)) in
  for len = 0 to 4100 do
    let pos = len mod 8 in
    if not (crc_entry_points_agree ~init:(Int32.of_int (len * 2654435761)) s ~pos ~len) then
      Alcotest.failf "mismatch at pos %d len %d" pos len
  done

let crc_differential =
  let gen =
    QCheck.Gen.(
      quad (int_range 0 7) (string_size ~gen:char (int_range 0 4100)) (int_range 0 4100)
        (map Int32.of_int int))
  in
  let print (pos, s, cut, init) =
    Printf.sprintf "pos=%d len=%d cut=%d init=%ld" pos (String.length s) cut init
  in
  QCheck.Test.make ~name:"crc matches bytewise reference" ~count:300 (QCheck.make ~print gen)
    (fun (pos, body, cut, init) ->
      let s = String.make pos 'p' ^ body ^ "tail" in
      let len = String.length body in
      let cut = min cut len in
      let a = String.sub body 0 cut and b = String.sub body cut (len - cut) in
      crc_entry_points_agree ~init s ~pos ~len
      && Crc32c.string ~init:(Crc32c.string a) b = Crc32c.string body
      && Crc32c.substring ~init:(Crc32c.substring s ~pos ~len:cut) s ~pos:(pos + cut)
           ~len:(len - cut)
         = Crc32c.string body)

(* [pos + len] overflows for a huge [len]; each check must still refuse
   the slice instead of reading or writing past the buffer. *)
let raises name f = Alcotest.check_raises name (Invalid_argument name) (fun () -> ignore (f ()))

let crc_huge_len_rejected () =
  let b = Bytes.make 16 'a' in
  let big = Bigslice.of_string (Bytes.to_string b) in
  raises "Crc32c.bytes: slice out of bounds" (fun () -> Crc32c.bytes b ~pos:1 ~len:max_int);
  raises "Crc32c.substring: slice out of bounds" (fun () ->
      Crc32c.substring (Bytes.to_string b) ~pos:1 ~len:max_int);
  raises "Crc32c.bigslice: slice out of bounds" (fun () -> Crc32c.bigslice big ~pos:1 ~len:max_int)

let bigslice_huge_len_rejected () =
  let big = Bigslice.of_string (String.make 16 'a') in
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 16 in
  raises "Bigslice.of_bigarray: slice out of bounds" (fun () ->
      Bigslice.of_bigarray ~off:1 ~len:max_int buf);
  raises "Bigslice.sub: slice out of bounds" (fun () -> Bigslice.sub big ~off:1 ~len:max_int);
  raises "Bigslice.substring: slice out of bounds" (fun () ->
      Bigslice.substring big ~off:1 ~len:max_int);
  raises "Bigslice.blit_from_bytes: source out of bounds" (fun () ->
      Bigslice.blit_from_bytes (Bytes.make 16 'b') ~src_off:1 big ~dst_off:1 ~len:max_int)

(* Checksumming allocates only the boxed result (and the [Some] of an
   explicit [init]): nothing proportional to the input. *)
let crc_allocation_budget () =
  let s = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let big = Bigslice.of_string s in
  let words_per_call name f =
    ignore (f ());
    let reps = 50 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int reps in
    if w > 8.0 then Alcotest.failf "%s: %.1f minor words per 64 KiB call (budget 8)" name w
  in
  words_per_call "string" (fun () -> Crc32c.string s);
  words_per_call "string ~init" (fun () -> Crc32c.string ~init:0x1234l s);
  words_per_call "substring" (fun () -> Crc32c.substring s ~pos:1 ~len:65535);
  words_per_call "bigslice" (fun () -> Crc32c.bigslice big ~pos:0 ~len:65536)

(* ---- Bits ---- *)

let bits_clz_exhaustive () =
  (* Every power of two and its neighbours, across the whole 62-bit
     range — a shift-overflow bug once lurked exactly at 2^15/2^31. *)
  for p = 0 to 61 do
    let v = 1 lsl p in
    Alcotest.(check int) (Printf.sprintf "clz 2^%d" p) (62 - p) (Bits.clz63 v);
    if v > 1 then
      Alcotest.(check int) (Printf.sprintf "clz 2^%d-1" p) (62 - (p - 1)) (Bits.clz63 (v - 1));
    if p >= 1 && p < 61 then
      Alcotest.(check int) (Printf.sprintf "clz 2^%d+1" p) (62 - p) (Bits.clz63 (v + 1))
  done

let bits_clz_qcheck =
  QCheck.Test.make ~name:"clz63 matches float log2" ~count:1000
    QCheck.(int_range 1 max_int)
    (fun v ->
      let expected = 62 - int_of_float (Float.log2 (float_of_int v) +. 1e-9) in
      (* float log2 is exact enough below 2^52; above, verify
         monotonically instead *)
      if v < 1 lsl 52 then Bits.clz63 v = expected
      else Bits.clz63 v >= 0 && Bits.clz63 v <= 10)

let bits_clz () =
  Alcotest.(check int) "clz 1" 62 (Bits.clz63 1);
  Alcotest.(check int) "clz 0" 63 (Bits.clz63 0);
  Alcotest.(check int) "clz max" 1 (Bits.clz63 max_int);
  Alcotest.(check int) "ceil_log2 1" 0 (Bits.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Bits.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Bits.ceil_log2 3);
  Alcotest.(check int) "next_pow2 100" 128 (Bits.next_pow2 100)

(* ---- RNG ---- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_bounds =
  QCheck.Test.make ~name:"rng int bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let rng_float_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ---- Zipf ---- *)

let zipf_range =
  QCheck.Test.make ~name:"zipf samples in range" ~count:500
    QCheck.(int_range 1 10_000)
    (fun n ->
      let z = Zipf.create n in
      let r = Rng.create n in
      let v = Zipf.next z r in
      v >= 0 && v < n)

let zipf_skew () =
  (* Rank 0 must dominate: with theta 0.99 over 1000 items it should
     receive >= 5% of the mass empirically. *)
  let z = Zipf.create ~theta:0.99 1000 in
  let r = Rng.create 3 in
  let hits = ref 0 in
  let total = 20_000 in
  for _ = 1 to total do
    if Zipf.next z r = 0 then incr hits
  done;
  Alcotest.(check bool) "head heavy" true (float_of_int !hits /. float_of_int total > 0.05)

let zipf_probability_sums () =
  let z = Zipf.create ~theta:0.9 100 in
  let sum = ref 0.0 in
  for i = 0 to 99 do
    sum := !sum +. Zipf.probability z i
  done;
  Alcotest.(check bool) "probabilities sum to 1" true (Float.abs (!sum -. 1.0) < 1e-9)

let zipf_monotone () =
  let z = Zipf.create ~theta:0.9 100 in
  for i = 0 to 98 do
    if Zipf.probability z i < Zipf.probability z (i + 1) then
      Alcotest.fail "probability not monotone in rank"
  done

let zipf_scramble_stable =
  QCheck.Test.make ~name:"scramble is stable and in range" ~count:500
    QCheck.(pair (int_range 1 100000) small_nat)
    (fun (n, rank) ->
      let a = Zipf.scramble n rank and b = Zipf.scramble n rank in
      a = b && a >= 0 && a < n)

let zipf_theta_frequencies () =
  (* Table 3's left column: theoretical head frequency at theta=0.99
     over the paper's key count magnitude should be close to 4.87%. *)
  let z = Zipf.create ~theta:0.99 (1 lsl 20) in
  let head = Zipf.probability z 0 *. 100.0 in
  Alcotest.(check bool) "head frequency plausible" true (head > 3.0 && head < 8.0)

(* ---- Power law ---- *)

let power_law_coverage () =
  let p = Power_law.create ~exponent:1.7 2000 in
  let cov = Power_law.head_coverage p ~fraction:0.01 in
  Alcotest.(check bool) "heavy head" true (cov > 0.8)

let power_law_range =
  QCheck.Test.make ~name:"power law samples in range" ~count:300
    QCheck.(int_range 1 5000)
    (fun n ->
      let p = Power_law.create ~exponent:1.3 n in
      let r = Rng.create n in
      let v = Power_law.next p r in
      v >= 0 && v < n)

let power_law_probability () =
  let p = Power_law.create ~exponent:1.5 100 in
  let sum = ref 0.0 in
  for i = 0 to 99 do
    sum := !sum +. Power_law.probability p i
  done;
  Alcotest.(check bool) "sums to 1" true (Float.abs (!sum -. 1.0) < 1e-9)

(* ---- Histogram ---- *)

let histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "count" 10 (Histogram.count h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 10 (Histogram.max_value h);
  Alcotest.(check int) "p50" 5 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100" 10 (Histogram.percentile h 100.0);
  Alcotest.(check (float 0.001)) "mean" 5.5 (Histogram.mean h)

let histogram_relative_error =
  QCheck.Test.make ~name:"histogram p100 within 2% of max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (int_range 1 (1 lsl 40)))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let max_v = List.fold_left max 0 values in
      let p100 = Histogram.percentile h 100.0 in
      abs (p100 - max_v) <= (max_v / 50) + 1)

let histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 100;
  Histogram.record b 200;
  Histogram.merge_into ~src:b ~dst:a;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check int) "merged max" 200 (Histogram.max_value a)

let histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty percentile" 0 (Histogram.percentile h 99.0);
  Alcotest.(check int) "empty min" 0 (Histogram.min_value h)

let histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record h i
  done;
  (* One-pass extraction must agree with repeated single queries, even
     when the requested quantiles arrive out of order. *)
  let qs = [ 99.0; 50.0; 95.0 ] in
  Alcotest.(check (list int))
    "multi = repeated single"
    (List.map (Histogram.percentile h) qs)
    (Histogram.percentiles h qs);
  Alcotest.(check (list int)) "empty list" [] (Histogram.percentiles h []);
  let empty = Histogram.create () in
  Alcotest.(check (list int)) "empty histogram" [ 0; 0 ] (Histogram.percentiles empty [ 50.0; 99.0 ])

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let histogram_pp () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3 ];
  let s = Format.asprintf "%a" Histogram.pp h in
  Alcotest.(check bool) "mentions count" true (contains_substring ~sub:"count=3" s)

let histogram_all_magnitudes () =
  (* One value at every power of two: recording and percentile lookup
     must stay in bounds across the whole range. *)
  let h = Histogram.create () in
  for p = 0 to 61 do
    Histogram.record h (1 lsl p)
  done;
  Alcotest.(check int) "count" 62 (Histogram.count h);
  Alcotest.(check bool) "p100 at top" true (Histogram.percentile h 100.0 >= 1 lsl 61)

let histogram_reset () =
  let h = Histogram.create () in
  Histogram.record h 5;
  Histogram.reset h;
  Alcotest.(check int) "after reset" 0 (Histogram.count h)

(* ---- Rwlock ---- *)

let rwlock_shared_parallel () =
  let l = Rwlock.create () in
  Rwlock.lock_shared l;
  Rwlock.lock_shared l;
  (* Two readers coexist; a writer cannot enter. *)
  Alcotest.(check bool) "no writer while readers" false (Rwlock.try_lock_exclusive l);
  Rwlock.unlock_shared l;
  Rwlock.unlock_shared l;
  Alcotest.(check bool) "writer after readers gone" true (Rwlock.try_lock_exclusive l);
  Rwlock.unlock_exclusive l

let rwlock_writer_blocks_writer () =
  let l = Rwlock.create () in
  Rwlock.lock_exclusive l;
  Alcotest.(check bool) "second writer rejected" false (Rwlock.try_lock_exclusive l);
  Rwlock.unlock_exclusive l

let rwlock_threads () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let workers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 1000 do
              Rwlock.lock_exclusive l;
              incr counter;
              Rwlock.unlock_exclusive l
            done)
          ())
  in
  List.iter Thread.join workers;
  Alcotest.(check int) "writer mutual exclusion" 4000 !counter

(* ---- Kv_iter ---- *)

let e ?(version = 0) ?(counter = 0) ?value key : Kv_iter.entry =
  { key; value; version; counter }

let entry_order () =
  Alcotest.(check bool) "key order" true (Kv_iter.compare_entries (e "a") (e "b") < 0);
  Alcotest.(check bool) "newest first" true
    (Kv_iter.compare_entries (e ~version:5 "a") (e ~version:3 "a") < 0);
  Alcotest.(check bool) "counter tiebreak" true
    (Kv_iter.compare_entries (e ~version:5 ~counter:2 "a") (e ~version:5 ~counter:1 "a") < 0)

let merge_sorted () =
  let a = Kv_iter.of_list [ e "a"; e "c"; e "e" ] in
  let b = Kv_iter.of_list [ e "b"; e "d" ] in
  let merged = Kv_iter.to_list (Kv_iter.merge [ a; b ]) in
  Alcotest.(check (list string)) "merged order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.map (fun (x : Kv_iter.entry) -> x.key) merged)

let merge_qcheck =
  QCheck.Test.make ~name:"merge of sorted lists is sorted" ~count:200
    QCheck.(pair (list (pair (string_of_size Gen.(int_range 1 4)) small_nat)) (list (pair (string_of_size Gen.(int_range 1 4)) small_nat)))
    (fun (xs, ys) ->
      let entries l =
        List.sort Kv_iter.compare_entries
          (List.map (fun (k, v) -> e ~version:v ("k" ^ k)) l)
      in
      let merged = Kv_iter.to_list (Kv_iter.merge [ Kv_iter.of_list (entries xs); Kv_iter.of_list (entries ys) ]) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Kv_iter.compare_entries a b <= 0 && sorted rest
        | _ -> true
      in
      sorted merged && List.length merged = List.length xs + List.length ys)

let dedup_keeps_newest () =
  let it =
    Kv_iter.of_list [ e ~version:9 ~value:"new" "a"; e ~version:3 ~value:"old" "a"; e "b" ]
  in
  match Kv_iter.to_list (Kv_iter.dedup it) with
  | [ first; second ] ->
    Alcotest.(check string) "key a" "a" first.Kv_iter.key;
    Alcotest.(check (option string)) "newest value" (Some "new") first.Kv_iter.value;
    Alcotest.(check string) "key b" "b" second.Kv_iter.key
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let compact_no_floor () =
  (* Without a retained floor, only the newest version survives and
     newest tombstones are dropped. *)
  let it =
    Kv_iter.of_list
      [
        e ~version:9 ~value:"v9" "a"; e ~version:3 ~value:"v3" "a";
        e ~version:5 "b" (* tombstone *); e ~version:2 ~value:"old" "b";
      ]
  in
  let out = Kv_iter.to_list (Kv_iter.compact it) in
  Alcotest.(check int) "one survivor" 1 (List.length out);
  Alcotest.(check string) "a survives" "a" (List.hd out).Kv_iter.key;
  Alcotest.(check int) "newest version" 9 (List.hd out).Kv_iter.version

let compact_with_floor () =
  (* Floor 5: for key a with versions 9,5,3 -> keep 9 and 5 (5 is the
     newest version <= 5), drop 3. *)
  let it =
    Kv_iter.of_list
      [ e ~version:9 ~value:"v9" "a"; e ~version:5 ~value:"v5" "a"; e ~version:3 ~value:"v3" "a" ]
  in
  let out = Kv_iter.to_list (Kv_iter.compact ~min_retained_version:5 it) in
  Alcotest.(check (list int)) "versions retained" [ 9; 5 ]
    (List.map (fun (x : Kv_iter.entry) -> x.version) out)

let compact_keeps_tombstone_with_floor () =
  (* A tombstone shielding an older retained version must stay. *)
  let it =
    Kv_iter.of_list [ e ~version:9 "a" (* tombstone *); e ~version:2 ~value:"old" "a" ]
  in
  let out = Kv_iter.to_list (Kv_iter.compact ~min_retained_version:3 it) in
  Alcotest.(check int) "both retained" 2 (List.length out);
  Alcotest.(check bool) "newest is tombstone" true ((List.hd out).Kv_iter.value = None)

let compact_drop_tombstones_false () =
  let it = Kv_iter.of_list [ e ~version:5 "b" ] in
  let out = Kv_iter.to_list (Kv_iter.compact ~drop_tombstones:false it) in
  Alcotest.(check int) "tombstone kept" 1 (List.length out)

let compact_model =
  (* Model check: compact with no floor == newest entry per key,
     minus keys whose newest entry is a tombstone. *)
  QCheck.Test.make ~name:"compact matches map model" ~count:300
    QCheck.(list (triple (string_of_size Gen.(int_range 1 2)) (int_range 0 20) bool))
    (fun ops ->
      let entries =
        List.mapi
          (fun i (k, v, del) ->
            e ~version:v ~counter:i ?value:(if del then None else Some (string_of_int v)) ("k" ^ k))
          ops
      in
      let sorted = List.sort Kv_iter.compare_entries entries in
      let compacted = Kv_iter.to_list (Kv_iter.compact (Kv_iter.of_list sorted)) in
      let module M = Map.Make (String) in
      let model =
        List.fold_left
          (fun m (x : Kv_iter.entry) ->
            match M.find_opt x.key m with
            | Some (best : Kv_iter.entry) when Kv_iter.entry_newer best x -> m
            | _ -> M.add x.key x m)
          M.empty entries
      in
      let expected = M.filter (fun _ (x : Kv_iter.entry) -> x.value <> None) model in
      List.length compacted = M.cardinal expected
      && List.for_all
           (fun (x : Kv_iter.entry) ->
             match M.find_opt x.key expected with
             | Some best -> best.version = x.version && best.counter = x.counter
             | None -> false)
           compacted)

let filter_map_list () =
  let it = Kv_iter.of_list [ e ~version:1 "a"; e ~version:2 "b" ] in
  let out = Kv_iter.to_list (Kv_iter.filter (fun x -> x.Kv_iter.version > 1) it) in
  Alcotest.(check int) "filtered" 1 (List.length out)

let suite =
  [
    ( "varint",
      [
        Alcotest.test_case "roundtrip" `Quick varint_roundtrip;
        Alcotest.test_case "sequence" `Quick varint_sequence;
        Alcotest.test_case "negative rejected" `Quick varint_negative;
        Alcotest.test_case "truncated rejected" `Quick varint_truncated;
        qtest varint_qcheck;
        qtest varint_bytes_roundtrip;
      ] );
    ( "crc32c",
      [
        Alcotest.test_case "known vectors" `Quick crc_known_vectors;
        Alcotest.test_case "bytes slice" `Quick crc_bytes_slice;
        Alcotest.test_case "RFC 3720 vectors" `Quick crc_rfc3720_vectors;
        Alcotest.test_case "every length 0..4100" `Quick crc_sweep_lengths;
        qtest crc_differential;
        Alcotest.test_case "huge len rejected" `Quick crc_huge_len_rejected;
        Alcotest.test_case "allocation budget" `Quick crc_allocation_budget;
        qtest crc_mask_roundtrip;
        qtest crc_detects_flip;
      ] );
    ("bigslice", [ Alcotest.test_case "huge len rejected" `Quick bigslice_huge_len_rejected ]);
    ( "bits",
      [
        Alcotest.test_case "clz and log2" `Quick bits_clz;
        Alcotest.test_case "clz exhaustive powers" `Quick bits_clz_exhaustive;
        qtest bits_clz_qcheck;
      ] );
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick rng_deterministic;
        Alcotest.test_case "float range" `Quick rng_float_range;
        Alcotest.test_case "split independence" `Quick rng_split_independent;
        qtest rng_bounds;
      ] );
    ( "zipf",
      [
        Alcotest.test_case "head skew" `Quick zipf_skew;
        Alcotest.test_case "probability sums" `Quick zipf_probability_sums;
        Alcotest.test_case "probability monotone" `Quick zipf_monotone;
        Alcotest.test_case "theta head frequency" `Quick zipf_theta_frequencies;
        qtest zipf_range;
        qtest zipf_scramble_stable;
      ] );
    ( "power_law",
      [
        Alcotest.test_case "head coverage" `Quick power_law_coverage;
        Alcotest.test_case "probability sums" `Quick power_law_probability;
        qtest power_law_range;
      ] );
    ( "histogram",
      [
        Alcotest.test_case "exact small values" `Quick histogram_exact_small;
        Alcotest.test_case "merge" `Quick histogram_merge;
        Alcotest.test_case "empty" `Quick histogram_empty;
        Alcotest.test_case "reset" `Quick histogram_reset;
        Alcotest.test_case "all magnitudes in bounds" `Quick histogram_all_magnitudes;
        Alcotest.test_case "one-pass percentiles" `Quick histogram_percentiles;
        Alcotest.test_case "pp" `Quick histogram_pp;
        qtest histogram_relative_error;
      ] );
    ( "rwlock",
      [
        Alcotest.test_case "shared then exclusive" `Quick rwlock_shared_parallel;
        Alcotest.test_case "writer excludes writer" `Quick rwlock_writer_blocks_writer;
        Alcotest.test_case "threaded counter" `Quick rwlock_threads;
      ] );
    ( "kv_iter",
      [
        Alcotest.test_case "entry ordering" `Quick entry_order;
        Alcotest.test_case "merge sorted" `Quick merge_sorted;
        Alcotest.test_case "dedup keeps newest" `Quick dedup_keeps_newest;
        Alcotest.test_case "compact no floor" `Quick compact_no_floor;
        Alcotest.test_case "compact with floor" `Quick compact_with_floor;
        Alcotest.test_case "compact keeps shielding tombstone" `Quick compact_keeps_tombstone_with_floor;
        Alcotest.test_case "compact keeps tombstone when asked" `Quick compact_drop_tombstones_false;
        Alcotest.test_case "filter" `Quick filter_map_list;
        qtest merge_qcheck;
        qtest compact_model;
      ] );
  ]
