(* One run of a workload: set up a fresh in-memory store, run the
   pre-generated op stream through it on this domain (a closed loop
   with one client), check every result against the oracle, and keep
   the raw figures the metrics are computed from. *)

module Db = Evendb_core.Db
module Env = Evendb_storage.Env
module Io_stats = Evendb_storage.Io_stats
open Work

let now = Evendb_obs.Obs.now_ns

(* Host-speed probe. The host's speed drifts by 10-30% over seconds to
   minutes, and the store's work, which repeats exactly for a seed,
   drifts with it. The probe is a chain of dependent reads at random
   places in a 128 MiB array kept off the OCaml heap: it allocates
   nothing, so the store's garbage collector charges it nothing, and as
   the array is larger than the host's L3 cache, what the store left in
   the cache hardly matters to it. It times how fast the host serves
   memory at that moment, which is what the store's drift follows. Each
   call starts the chain at a new place, so no call finds the lines of
   the one before in the cache. Throughput is reported at the speed of a
   host on which the probe takes [probe_ref_ns]; see README.md. *)
let probe_words = 16 * 1024 * 1024
let probe_ref_ns = 5_000_000.0

let probe_mem =
  lazy
    (let a = Bigarray.(Array1.create int c_layout probe_words) in
     Bigarray.Array1.fill a 0;
     a)

let probe_start = ref 0

let probe () =
  let a = Lazy.force probe_mem in
  probe_start := !probe_start + 7_777_777;
  let t = now () in
  let j = ref (!probe_start land (probe_words - 1)) in
  for i = 1 to 20_000 do
    j := (Bigarray.Array1.unsafe_get a !j + (!j * 0x9E3779B1) + i) land (probe_words - 1)
  done;
  ignore (Sys.opaque_identity !j);
  now () - t

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  float_of_int a.(Array.length a / 2)

(* Latency samples of one op kind, in ns, and their sum. *)
type lat = { mutable n : int; mutable a : int array; mutable sum : int }

let lat () = { n = 0; a = Array.make 1024 0; sum = 0 }

let add l ns =
  if l.n = Array.length l.a then begin
    let a = Array.make (2 * l.n) 0 in
    Array.blit l.a 0 a 0 l.n;
    l.a <- a
  end;
  l.a.(l.n) <- ns;
  l.n <- l.n + 1;
  l.sum <- l.sum + ns

let sorted l =
  let a = Array.sub l.a 0 l.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0 else a.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* What the traced run records per op kind, beyond latency. *)
type trace_acc = {
  counts : int array;  (** ops by kind: put, get, scan *)
  words : float array;  (** minor words allocated, by op kind *)
  mutable get_bytes_read : int;
  mutable scan_rows : int;
  mutable scan_ns : int;
}

let trace_acc () =
  {
    counts = Array.make 3 0;
    words = Array.make 3 0.0;
    get_bytes_read = 0;
    scan_rows = 0;
    scan_ns = 0;
  }

type run = {
  work : Work.t;  (** the measured workload *)
  setup_s : float;  (** median over the set-ups *)
  busy_s : float;  (** summed time inside the store's calls *)
  run_scale : float;  (** median probe time in the measured phase / [probe_ref_ns] *)
  measured : int;  (** ops in the measured stream *)
  attempted : int;  (** measured ops plus the ingest read-back *)
  failed : int;
  puts : int array;  (** sorted latencies, ns *)
  gets : int array;
  scans : int array;
  logical_bytes : int;  (** user bytes put in the measured phase *)
  total_written : int;  (** Env bytes written over the store's life *)
  total_logical : int;  (** user bytes put over the store's life *)
  space_used : int;
  live_bytes : int;
  peak_heap_words : int;  (** live, above what the generated workload takes *)
  forced_majors : int;  (** major collections forced by heap sampling while measuring *)
}

(* Live heap words, after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let majors () = (Gc.quick_stat ()).Gc.major_collections
let written env = (Io_stats.snapshot (Env.stats env)).Io_stats.bytes_written
let read env = (Io_stats.snapshot (Env.stats env)).Io_stats.bytes_read

(* Ingest has no reads of its own: it is checked untimed by scanning
   the whole store back in pages. The store must hold exactly the keys
   written, in order, each with its last value. Returns the number of
   keys written and how many of them came back right before the first
   wrong, missing or extra row. *)
let read_back db (o : Work.oracle) =
  let want = Array.of_seq (Hashtbl.to_seq o.values) in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) want;
  let n = Array.length want in
  let rec page low i =
    match Db.scan db ~limit:1000 ~low ~high:"\255" () with
    | exception _ -> i
    | [] -> i
    | rows ->
      let rec walk i = function
        | [] -> Ok i
        | (k, v) :: rest ->
          if i < n && String.equal k (fst want.(i)) && String.equal v (snd want.(i)) then
            walk (i + 1) rest
          else Error i
      in
      (match walk i rows with
       | Ok i -> page (fst (List.nth rows (List.length rows - 1)) ^ "\000") i
       | Error i -> min i (n - 1))
  in
  (n, page "" 0)

(* Set-up runs [setups] times, each into a fresh store; the last store
   is measured and the median set-up time kept. [inspect] sees the open
   store right before and right after the measured phase: the traced
   run's hook for registry deltas. The host-speed probe runs every
   [Work.probe_every] measured ops, outside the timed calls. Peak heap
   is the largest live heap at four points of the measured phase (each
   after an untimed full collection), less the live heap of the
   generated workload before the store opens. *)
let run ?(trace : trace_acc option) ?(inspect = fun (_ : [ `Before | `After ]) (_ : Db.t) -> ())
    ?(setups = 1) ~env kind ~seed ~measured =
  let config = Work.config () in
  let setup () =
    Gc.compact ();
    let t0 = now () in
    let w = Work.generate kind ~seed ~measured in
    (* The live heap of the op stream, before the store holds anything;
       the collection that measures it is not part of the set-up time. *)
    let g0 = now () in
    let base = live_words () in
    let gc_ns = now () - g0 in
    let env = env () in
    let db = Db.open_ ~config env in
    let o = Work.oracle ~ordered:(kind = Analytics) in
    Array.iter
      (fun (k, v) ->
        Db.put db k v;
        Work.note_put o k v)
      w.load;
    (now () - t0 - gc_ns, w, base, env, db, o)
  in
  let rec setup_n k times =
    let ns, w, base, env, db, o = setup () in
    if k > 1 then begin
      Db.close db;
      setup_n (k - 1) (ns :: times)
    end
    else
      let times = Array.of_list (ns :: times) in
      Array.sort compare times;
      (times.(Array.length times / 2), w, base, env, db, o)
  in
  let setup_ns, w, base, env, db, o = setup_n (max 1 setups) [] in
  let peak = ref 0 in
  let forced = ref 0 in
  let sample_heap () =
    let m0 = majors () in
    peak := max !peak (live_words ());
    forced := !forced + (majors () - m0)
  in
  let n_ops = Array.length w.ops in
  let every = Work.probe_every kind in
  let quarter = max 1 (n_ops / 4) in
  let run_probes = ref [ probe () ] in
  inspect `Before db;
  let puts = lat () and gets = lat () and scans = lat () in
  let failed = ref 0 in
  let fail () = incr failed in
  let logical0 = Db.logical_bytes_written db in
  Array.iteri
    (fun i op ->
      let r0 = match trace with Some _ when kind = Serve -> read env | _ -> 0 in
      let w0 = match trace with Some _ -> Gc.minor_words () | None -> 0.0 in
      (match op with
       | Put (k, v) -> (
         let t = now () in
         match Db.put db k v with
         | () ->
           add puts (now () - t);
           Work.note_put o k v
         | exception _ -> fail ())
       | Get i -> (
         let k = fst w.load.(i) in
         let t = now () in
         match Db.get db k with
         | got ->
           add gets (now () - t);
           if not (Work.get_ok o k got) then fail ()
         | exception _ -> fail ())
       | Scan (low, high) -> (
         let t = now () in
         match Db.scan db ~limit:scan_limit ~low ~high () with
         | got ->
           let dt = now () - t in
           add scans dt;
           (match trace with
            | Some tr ->
              tr.scan_rows <- tr.scan_rows + List.length got;
              tr.scan_ns <- tr.scan_ns + dt
            | None -> ());
           if not (Work.scan_ok o ~low ~high got) then fail ()
         | exception _ -> fail ()));
      (match trace with
       | Some tr ->
         let ki = match op with Put _ -> 0 | Get _ -> 1 | Scan _ -> 2 in
         tr.words.(ki) <- tr.words.(ki) +. (Gc.minor_words () -. w0);
         tr.counts.(ki) <- tr.counts.(ki) + 1;
         if ki = 1 then tr.get_bytes_read <- tr.get_bytes_read + (read env - r0)
       | None -> ());
      if i mod every = every - 1 then run_probes := probe () :: !run_probes;
      if (i + 1) mod quarter = 0 && i + 1 < n_ops then sample_heap ())
    w.ops;
  let total_logical = Db.logical_bytes_written db in
  let total_written = written env in
  let space_used = Env.space_used env in
  inspect `After db;
  let forced_majors = !forced in
  sample_heap ();
  let read_back =
    if kind = Ingest then begin
      let n, ok = read_back db o in
      failed := !failed + (n - ok);
      n
    end
    else 0
  in
  Db.close db;
  {
    work = w;
    setup_s = float_of_int setup_ns /. 1e9;
    busy_s = float_of_int (puts.sum + gets.sum + scans.sum) /. 1e9;
    run_scale = median_of !run_probes /. probe_ref_ns;
    measured = Array.length w.ops;
    attempted = Array.length w.ops + read_back;
    failed = !failed;
    puts = sorted puts;
    gets = sorted gets;
    scans = sorted scans;
    logical_bytes = total_logical - logical0;
    total_written;
    total_logical;
    space_used;
    live_bytes = o.live_bytes;
    peak_heap_words = !peak - base;
    forced_majors;
  }

(* The latency samples of the workload's main op kind. *)
let main_op kind r = match kind with Ingest -> r.puts | Serve -> r.gets | Analytics -> r.scans

(* End-to-end figures as (name, value, unit): the gated metrics first,
   then each op kind's percentiles where it has at least 1,000 samples
   (printed, not gated), then the raw times and the probe, then the op
   counts. Throughput is scaled to the reference host (see [probe]);
   latencies and set-up time are not (see README.md). *)
let metrics kind r =
  let us a p = float_of_int (pct a p) /. 1e3 in
  let raw_ops_s = float_of_int r.measured /. r.busy_s in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let main = main_op kind r in
  let per_kind (name, a) =
    if Array.length a < 1000 then []
    else [ (name ^ "_p50_us", us a 0.50, "us"); (name ^ "_p99_us", us a 0.99, "us") ]
  in
  [
    ("throughput_ops_s", raw_ops_s *. r.run_scale, "1/s");
    ("op_p50_us", us main 0.50, "us");
    ("op_p99_us", us main 0.99, "us");
    ("write_amp", ratio r.total_written r.total_logical, "B/B");
    ("space_amp", ratio r.space_used r.live_bytes, "B/B");
    ("setup_s", r.setup_s, "s");
    ("peak_heap_mib", float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. 1048576.0, "MiB");
  ]
  @ List.concat_map per_kind [ ("put", r.puts); ("get", r.gets); ("scan", r.scans) ]
  @ [
      ("raw_throughput_ops_s", raw_ops_s, "1/s");
      ("probe_ms", r.run_scale *. probe_ref_ns /. 1e6, "ms");
    ]
  @ [
      ("puts", float_of_int (Array.length r.puts), "count");
      ("gets", float_of_int (Array.length r.gets), "count");
      ("scans", float_of_int (Array.length r.scans), "count");
    ]
