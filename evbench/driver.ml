(* One benchmark process: set-ups and one measured run of a workload,
   printed as a JSON object on the last line of stdout (see run.py).

     driver.exe --workload W --seed N --seconds S [--trace]
     driver.exe --replay-default --seed N

   Exits 1 if any operation failed or returned a wrong result. *)

open Evbench

let json_metrics buf l =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "%S:{\"value\":%.17g,\"unit\":%S}" name v unit)
    l;
  Buffer.add_char buf '}'

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 in
  let trace = ref false and replay = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "ingest|serve|analytics");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "run length (sets the op count)");
      ("--trace", Arg.Set trace, "traced run: print per-layer metrics");
      ("--replay-default", Arg.Set replay, "ingest replay at Config.default");
    ]
    (fun a -> raise (Arg.Bad a))
    "driver.exe --workload W --seed N --seconds S [--trace]";
  let buf = Buffer.create 4096 in
  let failed =
    if !replay then begin
      Buffer.add_string buf "{\"layers\":";
      json_metrics buf (Layers.default_replay ~seed:!seed);
      0
    end
    else
      let kind =
        match Work.of_name !workload with
        | Some k -> k
        | None ->
          prerr_endline "driver.exe: --workload must be ingest, serve or analytics";
          exit 2
      in
      let measured = Work.measured_ops kind ~seconds:!seconds in
      let setups = Work.setups kind in
      let r, layers =
        if !trace then Layers.run ~setups kind ~seed:!seed ~measured
        else (Bench.run ~setups ~env:Evendb_storage.Env.memory kind ~seed:!seed ~measured, [])
      in
      Printf.bprintf buf "{\"attempted\":%d,\"failed\":%d,\"metrics\":" r.attempted r.failed;
      json_metrics buf (Bench.metrics kind r);
      if layers <> [] then begin
        Buffer.add_string buf ",\"layers\":";
        json_metrics buf layers
      end;
      r.failed
  in
  Buffer.add_char buf '}';
  print_endline (Buffer.contents buf);
  exit (if failed = 0 then 0 else 1)
