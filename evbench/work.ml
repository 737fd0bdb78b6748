(* The three workloads: store configuration, deterministic op streams
   generated before any timing starts, and the oracle every result is
   checked against. *)

open Evendb_ycsb
module Config = Evendb_core.Config
module Rng = Evendb_util.Rng
module SS = Set.Make (String)

let mib = 1024 * 1024
let value_bytes = 800

(* "RAM budget" of the munk cache, as in bench/harness.ml. *)
let munk_budget = 4 * mib
let scan_limit = 200
let recent_events = 50

type kind = Ingest | Serve | Analytics

let all = [ Ingest; Serve; Analytics ]
let name = function Ingest -> "ingest" | Serve -> "serve" | Analytics -> "analytics"
let of_name s = List.find_opt (fun k -> name k = s) all

(* The harness's scaled config: thresholds / 64, a 4 MiB munk cache and
   a 2:1 munk:row cache split. The block cache keeps its 32 MiB default;
   persistence stays Async and maintenance inline (no extra domain).
   Attribution stays on, but slow-op capture and the stall watchdog are
   off: both act on how long an op took, so with them the work a run
   does (and allocates) would depend on the machine's speed. *)
let config () =
  let base = Config.scaled ~factor:64 () in
  {
    base with
    Config.munk_cache_capacity = max 2 (munk_budget / base.Config.max_chunk_bytes);
    row_cache_capacity_per_table = max 64 (munk_budget / 2 / 3 / (value_bytes + 14));
    attr_slow_threshold_ns = max_int;
    attr_watchdog_share_ppm = 0;
  }

(* Set-up dataset sizes, in items of ~[value_bytes + key] bytes. Ingest
   starts from a store whose munk cache the trace has filled once, so
   its set-up is store work and not only event generation. *)
let ingest_preload = munk_budget / (value_bytes + 24)
let serve_items = 4 * munk_budget / (value_bytes + 14)
let analytics_preload = 4 * munk_budget / (value_bytes + 24)

(* Measured ops per second of run length on the reference machine (see
   README.md): a run's op count depends on [--seconds] alone, never on
   how fast a given run goes, so every count it reports repeats. At the
   recorded 20 s, ingest writes ~20x the munk budget. *)
let nominal_rate = function Ingest -> 5_000 | Serve -> 50_000 | Analytics -> 3_000

let measured_ops kind ~seconds = max 1 (nominal_rate kind * seconds)

(* setup_s is the median of this many set-ups; the last one is
   measured. Ingest's set-up is short (~0.7 s), so it takes more. *)
let setups = function Ingest -> 7 | Serve | Analytics -> 3

(* The host-speed probe runs every this many measured ops: about four
   times a second. *)
let probe_every kind = nominal_rate kind / 4

(* [Get i] reads the key of [load.(i)]: a get holds no key string of
   its own, so the op stream adds little to the heap the GC walks. *)
type op = Put of string * string | Get of int | Scan of string * string

type t = {
  load : (string * string) array;  (** written during set-up, untimed *)
  ops : op array;  (** the measured stream *)
}

let generate kind ~seed ~measured =
  match kind with
  | Ingest ->
    let trace = Trace.create ~value_bytes ~seed () in
    let load = Array.init ingest_preload (fun _ -> Trace.next_event trace) in
    let ops = Array.init measured (fun _ -> let k, v = Trace.next_event trace in Put (k, v)) in
    { load; ops }
  | Serve ->
    let shared =
      Workload.create_shared ~value_bytes (Workload.Zipf_composite 0.99) ~items:serve_items ~seed
    in
    let loader = Workload.thread shared ~id:0 in
    let load =
      Workload.load_keys shared
      |> List.map (fun k -> (k, Workload.make_value loader))
      |> Array.of_list
    in
    let index = Hashtbl.create (Array.length load) in
    Array.iteri (fun i (k, _) -> Hashtbl.replace index k i) load;
    let gen = Workload.thread shared ~id:1 in
    let rng = Rng.create (seed lxor 0x5e7e) in
    let ops =
      Array.init measured (fun _ ->
          let i = Hashtbl.find index (Workload.sample_key gen) in
          if Rng.int rng 100 < 5 then Put (fst load.(i), Workload.make_value gen) else Get i)
    in
    { load; ops }
  | Analytics ->
    let trace = Trace.create ~value_bytes ~seed () in
    let load = Array.init analytics_preload (fun _ -> Trace.next_event trace) in
    let rng = Rng.create (seed lxor 0xa7a1) in
    let ops =
      Array.init measured (fun _ ->
          if Rng.int rng 100 < 5 then (
            let k, v = Trace.next_event trace in
            Put (k, v))
          else
            let app = Trace.sample_app trace in
            let low, high = Trace.recent_range trace app ~events:recent_events in
            Scan (low, high))
    in
    { load; ops }

(* ------------------------------------------------------------------ *)
(* Oracle: the last value written for every key, plus the sorted key
   set for scans. Updated only after a put returns. *)

type oracle = {
  values : (string, string) Hashtbl.t;
  mutable keys : SS.t;  (** maintained only when [ordered] *)
  ordered : bool;
  mutable live_bytes : int;
}

let oracle ~ordered = { values = Hashtbl.create 4096; keys = SS.empty; ordered; live_bytes = 0 }

let note_put o k v =
  (match Hashtbl.find_opt o.values k with
   | Some old -> o.live_bytes <- o.live_bytes - String.length old
   | None ->
     o.live_bytes <- o.live_bytes + String.length k;
     if o.ordered then o.keys <- SS.add k o.keys);
  o.live_bytes <- o.live_bytes + String.length v;
  Hashtbl.replace o.values k v

let get_ok o k got =
  match (Hashtbl.find_opt o.values k, got) with
  | None, None -> true
  | Some want, Some v -> String.equal want v
  | _ -> false

(* A scan is right when it returns exactly the first [scan_limit] live
   pairs of [low, high] in key order: this checks ordering, both bounds,
   the limit and every value at once. *)
let scan_ok o ~low ~high got =
  let rec go seq n got =
    match (got, if n = 0 then Seq.Nil else seq ()) with
    | [], Seq.Nil -> true
    | [], Seq.Cons (k, _) -> String.compare k high > 0
    | (k, v) :: rest, Seq.Cons (want, seq') ->
      String.compare want high <= 0
      && String.equal k want
      && String.equal v (Hashtbl.find o.values want)
      && go seq' (n - 1) rest
    | _ :: _, Seq.Nil -> false
  in
  go (SS.to_seq_from low o.keys) scan_limit got
