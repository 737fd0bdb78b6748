(* Per-layer metrics of the traced run, all measured from outside the
   store: a timing wrapper around the Env backend, deltas of the
   store's public registry, span and Attr readings across the measured
   phase, Gc counters, and timings of the layers' public functions on
   inputs taken from the workload. *)

module Backend = Evendb_storage.Backend
module Env = Evendb_storage.Env
module Io_stats = Evendb_storage.Io_stats
module Obs = Evendb_obs.Obs
module Attr = Evendb_obs.Attr
module Json = Evendb_telemetry.Tiny_json
module Db = Evendb_core.Db
module Config = Evendb_core.Config
module K = Evendb_util.Kv_iter
open Work

let now = Obs.now_ns
let mib = float_of_int Work.mib
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Env backend wrapper: call counts and time per backend operation.
   Both read entry points (pread and the copying read_at) count as
   "pread". *)

type op_stat = { count : int Atomic.t; ns : int Atomic.t }

let env_ops = [ "append"; "pread"; "fsync"; "rename" ]

type timing = (string * op_stat) list

let timing () : timing =
  List.map (fun n -> (n, { count = Atomic.make 0; ns = Atomic.make 0 })) env_ops

let timed (st : op_stat) f =
  let t0 = now () in
  let r = f () in
  ignore (Atomic.fetch_and_add st.ns (now () - t0));
  Atomic.incr st.count;
  r

let wrap (tm : timing) (Backend.B (module Inner) : Backend.packed) : Backend.packed =
  let st name = List.assoc name tm in
  let append_st = st "append" and pread_st = st "pread" in
  let fsync_st = st "fsync" and rename_st = st "rename" in
  Backend.B
    (module struct
      include Inner

      let backend_name = "timed+" ^ Inner.backend_name
      let append h b ~pos ~len = timed append_st (fun () -> Inner.append h b ~pos ~len)
      let fsync h = timed fsync_st (fun () -> Inner.fsync h)
      let read_at name ~off ~len = timed pread_st (fun () -> Inner.read_at name ~off ~len)
      let pread name ~off ~len = timed pread_st (fun () -> Inner.pread name ~off ~len)
      let rename ~old_name ~new_name = timed rename_st (fun () -> Inner.rename ~old_name ~new_name)
    end)

let timed_env tm = Env.of_backend (wrap tm (Backend.memory ()))

(* ------------------------------------------------------------------ *)
(* A reading of the store's public counters at one instant. *)

type reading = {
  snap : Obs.snapshot;
  attr : Json.t;
  io : (Io_stats.kind * Io_stats.snapshot) list;
  env : (string * int * int) list;  (** backend op, count, ns *)
  majors : int;
}

let read tm db =
  {
    snap = Obs.snapshot (Db.obs db);
    attr = Json.parse (Attr.to_json (Db.attr db));
    io = Io_stats.by_kind (Env.stats (Db.env db));
    env = List.map (fun (n, s) -> (n, Atomic.get s.count, Atomic.get s.ns)) tm;
    majors = (Gc.quick_stat ()).Gc.major_collections;
  }

let metric r name =
  match List.assoc_opt name r.snap.Obs.metrics with
  | Some (Obs.Counter n | Obs.Gauge n) -> n
  | Some (Obs.Timer t) -> t.Obs.t_count
  | None -> 0

(* (count, total ns, summed "bytes" attribute) of a span name. *)
let span r name =
  match List.find_opt (fun s -> s.Obs.Trace.span_name = name) r.snap.Obs.spans with
  | Some s ->
    ( s.Obs.Trace.span_count,
      s.Obs.Trace.span_total_ns,
      Option.value ~default:0 (List.assoc_opt "bytes" s.Obs.Trace.span_attr_totals) )
  | None -> (0, 0, 0)

let attr_field r path =
  let rec go j = function
    | [] -> Option.value ~default:0 (Json.to_int j)
    | k :: rest -> ( match Json.member k j with Some j -> go j rest | None -> 0)
  in
  go r.attr path

let shown_causes = Attr.[ Lock_wait; Log_append; Disk_read; Rebalance; Cache_read; View_build ]

(* ------------------------------------------------------------------ *)
(* Layer functions timed on workload inputs. *)

(* ns per item of [f], which handles [n] items: the median of 7 timed
   repetitions, each calling [f] often enough to last at least 2 ms. *)
let per_item n f =
  let t0 = now () in
  f ();
  let calls = max 1 (2_000_000 / max 1 (now () - t0)) in
  let rep () =
    let t0 = now () in
    for _ = 1 to calls do
      f ()
    done;
    float_of_int (now () - t0) /. float_of_int (calls * n)
  in
  let a = Array.init 7 (fun _ -> rep ()) in
  Array.sort compare a;
  a.(3)

let words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The pairs a workload writes (set-up load, then measured puts) and the
   keys it reads, each capped at [cap]. *)
let inputs (w : Work.t) ~cap =
  let cut a = Array.sub a 0 (min cap (Array.length a)) in
  let puts =
    Array.to_list w.ops |> List.filter_map (function Put (k, v) -> Some (k, v) | _ -> None)
  in
  let written = cut (Array.of_list (Array.to_list w.load @ puts)) in
  let gets =
    Array.to_list w.ops |> List.filter_map (function Get i -> Some (fst w.load.(i)) | _ -> None)
  in
  let reads = if gets = [] then Array.map fst written else Array.of_list gets in
  (written, cut (Array.of_list puts), cut reads)

let entry i (k, v) = { K.key = k; value = Some v; version = i + 1; counter = 0 }

let sorted_unique pairs =
  let tbl = Hashtbl.create (Array.length pairs) in
  Array.iter (fun (k, v) -> Hashtbl.replace tbl k v) pairs;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Array.of_list (List.sort (fun (a, _) (b, _) -> String.compare a b) l)

module Log_file = Evendb_log.Log_file
module Munk = Evendb_munk.Munk
module Pbloom = Evendb_bloom.Partitioned_bloom
module Sstable = Evendb_sstable.Sstable
module Funk = Evendb_core.Funk

let cfg = Work.config ()

let crc_metrics written =
  let bytes = Array.fold_left (fun acc (_, v) -> acc + String.length v) 0 written in
  let crc () =
    Array.iter (fun (_, v) -> ignore (Sys.opaque_identity (Evendb_util.Crc32c.string v))) written
  in
  [
    ("crc.ns_per_kib", per_item bytes crc *. 1024.0, "ns");
    ("crc.words_per_byte", words_of crc /. float_of_int bytes, "words/B");
  ]

(* Every written pair appended to a fresh log. *)
let log_metrics written =
  let n = Array.length written in
  let append_all () =
    let writer = Log_file.Writer.create (Env.memory ()) "micro.log" in
    Array.iteri (fun i p -> ignore (Log_file.Writer.append writer (entry i p))) written
  in
  [
    ("log.append_ns", per_item n append_all, "ns");
    ("log.append_words", words_of append_all /. float_of_int n, "words");
  ]

(* A chunk's worth of sorted entries plus an unsorted tail of later
   puts, probed with its own keys in a shuffled order. *)
let munk_metrics chunk probes =
  let n = Array.length chunk in
  let munk = Munk.of_sorted (Array.to_list (Array.mapi entry chunk)) in
  for i = 0 to min n cfg.Config.munk_rebalance_appended - 1 do
    Munk.put munk (entry (n + i) chunk.(i * 7 mod n))
  done;
  let find () =
    Array.iter (fun k -> ignore (Sys.opaque_identity (Munk.find_latest munk k))) probes
  in
  [ ("munk.find_ns", per_item (Array.length probes) find, "ns") ]

(* One munk-less funk log (the Db's segment geometry) filled with the
   workload's puts in order, probed with every logged key and as many
   of the workload's read keys that are not logged. *)
let bloom_metrics puts reads =
  let seg = max 1024 (cfg.Config.funk_log_limit_no_munk / cfg.Config.bloom_split_factor) in
  let bloom =
    Pbloom.create ~bits_per_key:cfg.Config.bloom_bits_per_key ~segment_bytes:seg
      ~expected_keys_per_segment:(max 64 (seg / 64)) ()
  in
  let where = Hashtbl.create 64 in
  let off = ref 0 in
  Array.iter
    (fun (k, v) ->
      if !off < cfg.Config.funk_log_limit_no_munk then begin
        Pbloom.add bloom ~key:k ~log_offset:!off;
        Hashtbl.add where k !off;
        off := !off + String.length k + String.length v + 16
      end)
    puts;
  let logged = Hashtbl.fold (fun k _ acc -> k :: acc) where [] |> List.sort_uniq String.compare in
  let absent = Array.to_list reads |> List.filter (fun k -> not (Hashtbl.mem where k)) in
  let absent = List.filteri (fun i _ -> i < List.length logged) absent in
  let probes = Array.of_list (logged @ absent) in
  let n = Array.length probes in
  let probe () =
    Array.iter
      (fun k -> ignore (Sys.opaque_identity (Pbloom.segments_maybe_containing bloom k)))
      probes
  in
  let segs = ref 0 and useful = ref 0 in
  Array.iter
    (fun k ->
      List.iter
        (fun (lo, hi) ->
          incr segs;
          if List.exists (fun o -> o >= lo && o < hi) (Hashtbl.find_all where k) then incr useful)
        (Pbloom.segments_maybe_containing bloom k))
    probes;
  [
    ("bloom.probe_ns", per_item n probe, "ns");
    ("bloom.probe_words", words_of probe /. float_of_int n, "words");
    ("bloom.segments_per_get", ratio !segs n, "count");
    ("bloom.useful_ratio", ratio !useful !segs, "ratio");
  ]

(* Point gets on a chunk-sized table in an env without a block cache,
   so every get reads its block; then a sorted-view build of a funk over
   the same entries whose log holds a later version of every other key. *)
let sstable_and_view_metrics chunk probes =
  let n = Array.length chunk in
  let tm = timing () in
  let env = timed_env tm in
  let b =
    Sstable.Builder.create env ~block_size:cfg.Config.sstable_block_bytes ~name:"micro.sst"
      ~min_key:"" ()
  in
  Array.iteri (fun i p -> Sstable.Builder.add b (entry i p)) chunk;
  Sstable.Builder.finish b;
  let reader = Sstable.Reader.open_ env "micro.sst" in
  let preads () = Atomic.get (List.assoc "pread" tm).count in
  let get () =
    Array.iter (fun k -> ignore (Sys.opaque_identity (Sstable.Reader.get reader k))) probes
  in
  let p0 = preads () in
  get ();
  let blocks = ratio (preads () - p0) (Array.length probes) in
  let funk =
    Funk.create_from_iter env ~block_bytes:cfg.Config.sstable_block_bytes ~id:1 ~min_key:""
      (K.of_list (Array.to_list (Array.mapi entry chunk)))
  in
  Array.iteri (fun i p -> if i land 1 = 0 then ignore (Funk.append funk (entry (n + i) p))) chunk;
  [
    ("sstable.get_ns", per_item (Array.length probes) get, "ns");
    ("sstable.blocks_per_get", blocks, "count");
    ("view.build_us", per_item 1 (fun () -> Funk.build_view funk) /. 1e3, "us");
  ]

let micro (w : Work.t) =
  let written, puts, reads = inputs w ~cap:4096 in
  (* A chunk: the first max_chunk_bytes of the written pairs in key order. *)
  let sorted = sorted_unique written in
  let per_chunk = max 1 (cfg.Config.max_chunk_bytes / (Work.value_bytes + 24)) in
  let chunk = Array.sub sorted 0 (min per_chunk (Array.length sorted)) in
  let probes = Array.map fst chunk in
  let rng = Evendb_util.Rng.create 17 in
  for i = Array.length probes - 1 downto 1 do
    let j = Evendb_util.Rng.int rng (i + 1) in
    let t = probes.(i) in
    probes.(i) <- probes.(j);
    probes.(j) <- t
  done;
  crc_metrics written @ log_metrics written @ munk_metrics chunk probes
  @ bloom_metrics (if Array.length puts > 0 then puts else written) reads
  @ sstable_and_view_metrics chunk probes

(* ------------------------------------------------------------------ *)
(* Metrics of the traced run, from readings before and after the
   measured phase. *)

let traced (r : Bench.run) (tr : Bench.trace_acc) ~before ~after =
  let d f = f after - f before in
  let dm name = d (fun x -> metric x name) in
  let dspan name =
    let c0, t0, b0 = span before name and c1, t1, b1 = span after name in
    (c1 - c0, t1 - t0, b1 - b0)
  in
  let puts = tr.Bench.counts.(0) and gets = tr.Bench.counts.(1) and scans = tr.Bench.counts.(2) in
  let reb_n, reb_ns, reb_bytes = dspan "munk_rebalance" in
  let split_n, _, _ = dspan "chunk_split" in
  let flush_n, flush_ns, _ = dspan "funk_flush" in
  let ckpt_n, ckpt_ns, _ = dspan "checkpoint" in
  let hit_ratio pfx = let h = dm (pfx ^ ".hits") and m = dm (pfx ^ ".misses") in ratio h (h + m) in
  let attr path = d (fun x -> attr_field x path) in
  let env_stat name =
    let c x = List.find (fun (n, _, _) -> n = name) x.env in
    let _, c0, n0 = c before and _, c1, n1 = c after in
    [
      (Printf.sprintf "env.%s_count" name, float_of_int (c1 - c0), "count");
      (Printf.sprintf "env.%s_ns" name, ratio (n1 - n0) (c1 - c0), "ns");
    ]
  in
  let written kind =
    let w x = (List.assoc kind x.io).Io_stats.bytes_written in
    float_of_int (d w)
  in
  let shares kind =
    let total = attr [ "ops"; kind; "total_ns" ] in
    List.map
      (fun c ->
        let cn = Attr.cause_name c in
        let share = ratio (attr [ "ops"; kind; "causes"; cn ]) total in
        (Printf.sprintf "attr.%s_share.%s" kind cn, share, "ns/ns"))
      shown_causes
  in
  [
    ("munk.rebalances_per_put", ratio reb_n puts, "count");
    ("munk.rebalance_bytes_per_put_byte", ratio reb_bytes r.Bench.logical_bytes, "B/B");
    ("munk.rebalance_us", ratio reb_ns reb_n /. 1e3, "us");
    ( "chunk.splits_per_mib",
      float_of_int split_n /. (float_of_int r.Bench.logical_bytes /. mib),
      "count/MiB" );
    ("funk.flush_us", ratio flush_ns flush_n /. 1e3, "us");
    ("blockcache.hit_ratio", hit_ratio "blockcache", "ratio");
    ("rowcache.hit_ratio", hit_ratio "cache.row", "ratio");
    ("munkcache.hit_ratio", hit_ratio "cache.lfu", "ratio");
    ("blockcache.evictions", float_of_int (dm "blockcache.evictions"), "count");
    ("view.rows_per_scan", ratio tr.Bench.scan_rows scans, "count");
    ( "view.stale_fallback_ratio",
      ratio (dm "sorted_view.stale_fallbacks") (dm "sorted_view.scans"),
      "ratio" );
    ("scan.ns_per_row", ratio tr.Bench.scan_ns tr.Bench.scan_rows, "ns");
  ]
  @ List.concat_map env_stat env_ops
  @ [
      ("env.bytes_written.log", written Io_stats.Log, "bytes");
      ("env.bytes_written.sstable", written Io_stats.Sstable, "bytes");
      ("env.bytes_written.meta", written Io_stats.Meta, "bytes");
      ("env.bytes_read_per_get", ratio tr.Bench.get_bytes_read gets, "bytes");
      ("checkpoint.count", float_of_int ckpt_n, "count");
      ("checkpoint.us", ratio ckpt_ns ckpt_n /. 1e3, "us");
    ]
  @ shares "put" @ shares "get" @ shares "scan"
  @ [
      ("gc.words_per_put", tr.Bench.words.(0) /. float_of_int (max 1 puts), "words");
      ("gc.words_per_get", tr.Bench.words.(1) /. float_of_int (max 1 gets), "words");
      ("gc.words_per_scan", tr.Bench.words.(2) /. float_of_int (max 1 scans), "words");
      ( "gc.major_collections",
        float_of_int (d (fun x -> x.majors) - r.Bench.forced_majors),
        "count" );
    ]

(* ------------------------------------------------------------------ *)
(* The munk-rebalance counts of an ingest at Config.default: these
   repeat exactly, however long the regime takes on a given run. *)

let default_replay_events = 12_000

let default_replay ~seed =
  let db = Db.open_ ~config:Config.default (Env.memory ()) in
  let trace = Evendb_ycsb.Trace.create ~value_bytes:Work.value_bytes ~seed () in
  for _ = 1 to default_replay_events do
    let k, v = Evendb_ycsb.Trace.next_event trace in
    Db.put db k v
  done;
  let r = read (timing ()) db in
  let n, _, bytes = span r "munk_rebalance" in
  let logical = Db.logical_bytes_written db in
  Db.close db;
  [
    ("default_ingest.munk.rebalances_per_put", ratio n default_replay_events, "count");
    ("default_ingest.munk.rebalance_bytes_per_put_byte", ratio bytes logical, "B/B");
  ]

(* ------------------------------------------------------------------ *)
(* A traced run: the run's own figures plus every per-layer metric
   above except the Config.default replay. *)

let run ?(setups = 1) kind ~seed ~measured =
  let tm = timing () in
  let tr = Bench.trace_acc () in
  let before = ref None and after = ref None in
  let inspect phase db =
    let x = Some (read tm db) in
    match phase with `Before -> before := x | `After -> after := x
  in
  let env () = timed_env tm in
  let r = Bench.run ~setups ~trace:tr ~inspect ~env kind ~seed ~measured in
  let layers = traced r tr ~before:(Option.get !before) ~after:(Option.get !after) in
  (r, layers @ micro r.Bench.work)
