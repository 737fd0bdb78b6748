(* Determinism self-check: a short traced run of each workload at a
   fixed seed, executed twice, must give bit-identical counts and ratios,
   and the same allocation per op and peak live heap. Time is the only
   thing allowed to vary.

   Allocation per op is compared to 1e-4, not bit for bit: the store's
   per-chunk heat decay boxes a float only when two touches of a chunk
   read different clock values, so a run allocates a few words more or
   less depending on the clock (about 1e-6 of the total). Peak live heap
   is compared to 1e-3: the second run of a pair differed by ~2e-4.

   Each run gets a fresh domain: the store samples munk-cache admission
   with a domain-local access counter, so a second run on the same domain
   would start from a different sampling phase. *)

open Evbench

(* Figures that depend only on the inputs, never on the clock. *)
let exact =
  [
    "write_amp"; "space_amp"; "puts"; "gets"; "scans"; "munk.rebalances_per_put";
    "munk.rebalance_bytes_per_put_byte"; "chunk.splits_per_mib"; "blockcache.hit_ratio";
    "rowcache.hit_ratio";
    "munkcache.hit_ratio"; "view.rows_per_scan"; "env.append_count"; "env.pread_count";
    "env.bytes_written.log"; "env.bytes_written.sstable"; "env.bytes_written.meta";
    "env.bytes_read_per_get"; "bloom.segments_per_get"; "sstable.blocks_per_get";
  ]

let allocation = [ "gc.words_per_put"; "gc.words_per_get"; "gc.words_per_scan" ]

let run kind ~measured =
  Domain.join
    (Domain.spawn (fun () ->
         let r, layers = Layers.run kind ~seed:42 ~measured in
         (r.Bench.attempted, r.Bench.failed, Bench.metrics kind r @ layers)))

let () =
  let bad = ref 0 in
  List.iter
    (fun (kind, measured) ->
      let name = Work.name kind in
      let a_att, a_fail, a = run kind ~measured in
      let b_att, b_fail, b = run kind ~measured in
      if a_fail <> 0 || b_fail <> 0 then begin
        Printf.printf "%s: %d + %d failed ops\n" name a_fail b_fail;
        incr bad
      end;
      if a_att <> b_att then begin
        Printf.printf "%s: attempted %d vs %d\n" name a_att b_att;
        incr bad
      end;
      let check same m =
        let value l = List.find_map (fun (n, v, _) -> if n = m then Some v else None) l in
        match (value a, value b) with
        | Some x, Some y when same x y -> ()
        | x, y ->
          let show = function Some v -> Printf.sprintf "%.17g" v | None -> "missing" in
          Printf.printf "%s: %s differs: %s vs %s\n" name m (show x) (show y);
          incr bad
      in
      List.iter (check (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)) exact;
      List.iter (check (fun x y -> Float.abs (x -. y) <= 1e-4 *. Float.abs x)) allocation;
      check (fun x y -> Float.abs (x -. y) <= 1e-3 *. Float.abs x) "peak_heap_mib")
    [ (Work.Ingest, 4000); (Work.Serve, 4000); (Work.Analytics, 400) ];
  if !bad > 0 then exit 1
