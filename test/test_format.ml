(* On-disk format golden tests: the exact bytes of a log record frame, a
   small sstable (with its footer's masked index/bloom CRCs) and a sorted
   view (with its trailer CRC), as written by the bytewise CRC-32C that
   preceded the slicing-by-8 one. Today's writers must reproduce them
   bit for bit, and today's readers and scrubber must accept them, so
   stores and views written before the change keep opening clean. *)

open Evendb_util
open Evendb_storage
open Evendb_sstable
open Evendb_log
open Evendb_core
module K = Kv_iter

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let mk key version counter value = { K.key; value; version; counter }

let golden_put = mk "golden-key" 42 7 (Some "value-0123456789")
let golden_put_frame = "cb4cb65e1f000a676f6c64656e2d6b65792a071076616c75652d30313233343536373839"
let golden_del = mk "gone" 300 0 None
let golden_del_frame = "610e3d68090104676f6e65ac0200"

let sst_entries =
  [ mk "apple" 3 0 (Some "alpha"); mk "banana" 9 0 (Some "bravo"); mk "banana" 2 0 None;
    mk "cherry" 5 1 (Some "charlie") ]

(* Two 16-byte-target blocks plus an embedded bloom filter. *)
let golden_bloom_sst =
  "45565353543030320161786ee42800056170706c65030005616c706861000662616e616e61090005627261766f01"
  ^ "0662616e616e6102000006636865727279050107636861726c696540060200a504413904d10204056170706c65"
  ^ "0e2903d6081b63066368657272793712018b10159a53000000000000001d00000000000000490000000000000"
  ^ "00a0000000000000028d8d01b36885f134556535354454e44"

(* The funk-shaped sstable, log and view the sorted-view build reads. *)
let golden_funk_sst =
  "455653535430303200d8ea82a200056170706c65030005616c706861000662616e616e61090005627261766f01"
  ^ "0662616e616e6102000006636865727279050107636861726c69650104056170706c650d3b042e008bd74800"
  ^ "0000000000000f000000000000004800000000000000000000000000000058489199d8ea82a24556535354454e"
  ^ "44"

let log_entries =
  [ mk "banana" 11 0 (Some "blueberry"); mk "apricot" 10 0 (Some "amber"); mk "cherry" 12 0 None ]

let golden_log =
  "7bac13f014000662616e616e610b0009626c756562657272792eb9b39611000761707269636f740a0005616d62"
  ^ "6572fabc74680a01066368657272790c00"

let golden_view = "45565649455730310487013eaf347ba507001a0100003000010000056170706c65eb76bd5a"

let build_sst env ?block_size ?with_bloom name ~min_key =
  let b = Sstable.Builder.create env ?block_size ?with_bloom ~name ~min_key () in
  List.iter (Sstable.Builder.add b) sst_entries;
  Sstable.Builder.finish b

let write_log env name =
  let w = Log_file.Writer.create env name in
  List.iter (fun e -> ignore (Log_file.Writer.append w e)) log_entries;
  Log_file.Writer.close w

let install env name h =
  let f = Env.create env name in
  Env.append f (unhex h);
  Env.fsync f;
  Env.close_file f

let check_hex label want got = Alcotest.(check string) label want (hex got)

let record_frames () =
  check_hex "put frame" golden_put_frame (Log_file.Record.encode golden_put);
  check_hex "delete frame" golden_del_frame (Log_file.Record.encode golden_del);
  let decoded = Log_file.Record.decode (unhex golden_put_frame) ~pos:0 in
  Alcotest.(check bool) "golden frame decodes" true
    (decoded = Some (golden_put, String.length golden_put_frame / 2))

let writers_reproduce () =
  let env = Env.memory () in
  build_sst env ~block_size:16 ~with_bloom:true "g.sst" ~min_key:"a";
  let g = Env.read_all env "g.sst" in
  check_hex "bloom sstable" golden_bloom_sst g;
  (* Footer: ... [index crc : 4] [bloom crc : 4] [magic : 8], both masked. *)
  check_hex "footer masked CRCs" "28d8d01b36885f13" (String.sub g (String.length g - 16) 8);
  build_sst env "v.sst" ~min_key:"";
  check_hex "funk sstable" golden_funk_sst (Env.read_all env "v.sst");
  write_log env "v.log";
  check_hex "log" golden_log (Env.read_all env "v.log");
  let sst = Sstable.Reader.open_ env "v.sst" in
  Sorted_view.build env ~sst ~log_name:"v.log" ~view_name:"v.view";
  let v = Env.read_all env "v.view" in
  check_hex "view" golden_view v;
  check_hex "view trailer CRC" "eb76bd5a" (String.sub v (String.length v - 4) 4)

let readers_accept () =
  let env = Env.memory () in
  install env "g.sst" golden_bloom_sst;
  let g = Sstable.Reader.open_ env "g.sst" in
  Sstable.Reader.verify g;
  Alcotest.(check bool) "bloom sstable entries" true
    (K.to_list (Sstable.Reader.iter g) = sst_entries);
  install env "v.sst" golden_funk_sst;
  install env "v.log" golden_log;
  install env "v.view" golden_view;
  Alcotest.(check bool) "log entries" true
    (List.map snd (Log_file.Reader.entries env "v.log") = log_entries);
  let sst = Sstable.Reader.open_ env "v.sst" in
  Sstable.Reader.verify sst;
  Alcotest.(check bool) "view well formed" true (Sorted_view.well_formed (unhex golden_view));
  match Sorted_view.load env ~sst ~log_name:"v.log" ~view_name:"v.view" with
  | None -> Alcotest.fail "golden view rejected"
  | Some view ->
    let merged = K.to_list (Sorted_view.cursor view env ~sst ~log_name:"v.log" ~low:"" ~high:"~") in
    let log_sorted = List.sort K.compare_entries log_entries in
    let want = K.to_list (K.merge [ K.of_list log_sorted; K.of_list sst_entries ]) in
    Alcotest.(check bool) "view merge order" true (merged = want)

let scrub_clean () =
  let env = Env.memory () in
  install env (Funk.sst_name 1) golden_funk_sst;
  install env (Funk.log_name 1) golden_log;
  install env (Funk.view_name 1) golden_view;
  let report = Evendb_check.Scrub.scrub env in
  Alcotest.(check int) "files checked" 3 report.files_checked;
  if not (Evendb_check.Scrub.is_clean report) then
    Alcotest.failf "golden funk files not clean:@.%a" Evendb_check.Scrub.pp_report report

let suite =
  [
    ( "format golden",
      [
        Alcotest.test_case "log record frames" `Quick record_frames;
        Alcotest.test_case "writers reproduce golden bytes" `Quick writers_reproduce;
        Alcotest.test_case "readers accept golden bytes" `Quick readers_accept;
        Alcotest.test_case "golden funk scrubs clean" `Quick scrub_clean;
      ] );
  ]
