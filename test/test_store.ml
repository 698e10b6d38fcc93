(* The snapshot store, bottom to top.

   Codec and CRC primitives round-trip bit-exactly; the container
   rejects every kind of damaged file with the right typed error (a
   single flipped byte anywhere in a snapshot must surface as an
   [Error], never a crash or a silently wrong engine); and — the
   acceptance property — an engine loaded from a snapshot is
   observationally identical to the freshly built one: same space, same
   answers, and the same online operation counts, checked over
   randomized instances from the differential harness. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
module Crc32 = Stt_store.Crc32
module Codec = Stt_store.Codec
module Store = Stt_store.Store

(* ------------------------------------------------------------------ *)
(* codec primitives                                                     *)
(* ------------------------------------------------------------------ *)

let roundtrip_ints () =
  let e = Codec.encoder () in
  let uints = [ 0; 1; 127; 128; 16384; max_int ] in
  (* write_int's zigzag covers [-2^61, 2^61 - 1] *)
  let ints = [ 0; 1; -1; 31; -32; 123456; -123456; (1 lsl 61) - 1; -(1 lsl 61) ] in
  List.iter (Codec.write_uint e) uints;
  List.iter (Codec.write_int e) ints;
  Codec.write_bool e true;
  Codec.write_string e "snapshot";
  let d = Codec.decoder (Codec.contents e) in
  List.iter
    (fun v -> Alcotest.(check int) "uint" v (Codec.read_uint d))
    uints;
  List.iter (fun v -> Alcotest.(check int) "int" v (Codec.read_int d)) ints;
  Alcotest.(check bool) "bool" true (Codec.read_bool d);
  Alcotest.(check string) "string" "snapshot" (Codec.read_string d);
  Codec.expect_end d "ints"

let roundtrip_rows () =
  let rows =
    [ [| 3; -1; 10 |]; [| 3; 0; 9 |]; [| 4; 4; 4 |]; [| 100; -7; 0 |] ]
  in
  let e = Codec.encoder () in
  Codec.write_rows e ~arity:3 rows;
  Codec.write_rows e ~arity:0 [ [||]; [||] ];
  Codec.write_rows e ~arity:2 [];
  let d = Codec.decoder (Codec.contents e) in
  Alcotest.(check (list (array int)))
    "rows" rows
    (Codec.read_rows d ~arity:3);
  Alcotest.(check int) "arity-0 rows" 2 (List.length (Codec.read_rows d ~arity:0));
  Alcotest.(check (list (array int))) "empty" [] (Codec.read_rows d ~arity:2);
  Codec.expect_end d "rows"

let decoder_rejects () =
  let e = Codec.encoder () in
  Codec.write_string e "truncate me well past one byte";
  let s = Codec.contents e in
  let d = Codec.decoder (String.sub s 0 (String.length s / 2)) in
  Alcotest.check_raises "short" (Codec.Short "bytes")
    (fun () -> ignore (Codec.read_string d));
  Alcotest.check_raises "trailing" (Codec.Corrupt "x: 1 trailing bytes")
    (fun () -> Codec.expect_end (Codec.decoder "!") "x")

let crc_known_vector () =
  (* the standard CRC-32/ISO-HDLC check value *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  let t = Crc32.update Crc32.init "12345" ~pos:0 ~len:5 in
  let t = Crc32.update t "6789xxx" ~pos:0 ~len:4 in
  Alcotest.(check int) "incremental" 0xCBF43926 (Crc32.finish t)

(* ------------------------------------------------------------------ *)
(* container                                                            *)
(* ------------------------------------------------------------------ *)

let temp_snap () = Filename.temp_file "stt_store_test" ".snap"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_byte path pos =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0xFF));
  write_file path (Bytes.to_string s)

let expect_error what pred = function
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" what
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error: %s" what (Store.error_to_string e)

let sample_sections =
  [
    ("alpha", fun e -> Codec.write_uint e 42);
    ("beta", fun e -> Codec.write_string e (String.make 64 'b'));
  ]

let container_roundtrip () =
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Store.write ~version:7 path sample_sections with
  | Ok bytes -> Alcotest.(check bool) "bytes" true (bytes > 0)
  | Error e -> Alcotest.failf "write: %s" (Store.error_to_string e));
  match Store.Reader.load ~version:7 path with
  | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
  | Ok r ->
      Alcotest.(check (list string))
        "names" [ "alpha"; "beta" ]
        (Store.Reader.section_names r);
      (match Store.Reader.section r "alpha" Codec.read_uint with
      | Ok v -> Alcotest.(check int) "alpha" 42 v
      | Error e -> Alcotest.failf "alpha: %s" (Store.error_to_string e));
      expect_error "gamma"
        (function Store.Missing_section "gamma" -> true | _ -> false)
        (Store.Reader.section r "gamma" Codec.read_uint);
      (* a decoder that stops early must not pass validation *)
      expect_error "partial read"
        (function Store.Malformed _ -> true | _ -> false)
        (Store.Reader.section r "beta" (fun d -> Codec.read_u8 d))

let container_rejects_damage () =
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fresh () =
    match Store.write ~version:7 path sample_sections with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "write: %s" (Store.error_to_string e)
  in
  let load () = Store.Reader.load ~version:7 path in
  fresh ();
  let size = String.length (read_file path) in
  (* wrong magic *)
  flip_byte path 0;
  expect_error "magic" (function Store.Bad_magic -> true | _ -> false) (load ());
  (* version skew: the u32 at bytes 8..11 *)
  fresh ();
  flip_byte path 8;
  expect_error "version"
    (function
      | Store.Version_skew { found; expected = 7 } -> found <> 7
      | _ -> false)
    (load ());
  (* truncation, from one byte lost to an empty file *)
  fresh ();
  let whole = read_file path in
  List.iter
    (fun keep ->
      write_file path (String.sub whole 0 keep);
      expect_error
        (Printf.sprintf "truncated to %d" keep)
        (function Store.Truncated _ -> true | _ -> false)
        (load ()))
    [ size - 1; size / 2; 9; 4; 0 ];
  (* payload corruption: byte 20 sits inside "beta"'s 64-byte payload
     well past the framing of both tiny sections *)
  fresh ();
  flip_byte path (size - 10);
  expect_error "payload"
    (function Store.Checksum_mismatch _ -> true | _ -> false)
    (load ());
  (* trailing garbage after the end marker *)
  fresh ();
  write_file path (read_file path ^ "!");
  expect_error "trailing"
    (function Store.Malformed _ -> true | _ -> false)
    (load ())

(* ------------------------------------------------------------------ *)
(* engine snapshots                                                     *)
(* ------------------------------------------------------------------ *)

let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let fixture =
  lazy
    (let q = Cq.Library.k_path 2 in
     let edges =
       Stt_workload.Graphs.zipf_both ~seed:11 ~vertices:300 ~edges:2500 ~s:1.1
     in
     let db = Db.create () in
     Db.add_pairs db "R" edges;
     Engine.build_auto ~max_pmtds:128 q ~db ~budget:500)

let fixture_requests idx =
  let schema = Engine.access_schema idx in
  let arity = Schema.arity schema in
  let rng = Stt_workload.Rng.create 13 in
  List.init 20 (fun _ ->
      Relation.singleton schema
        (Array.init arity (fun _ -> Stt_workload.Rng.int rng 300)))

let check_identical what fresh loaded reqs =
  Alcotest.(check int) (what ^ ": space") (Engine.space fresh)
    (Engine.space loaded);
  List.iter
    (fun q_a ->
      let expect, expect_cost = Cost.measure (fun () -> Engine.answer fresh ~q_a) in
      let got, got_cost = Cost.measure (fun () -> Engine.answer loaded ~q_a) in
      Alcotest.(check (list (list int)))
        (what ^ ": answer") (sorted expect) (sorted got);
      Alcotest.(check bool)
        (what ^ ": op counts") true
        (expect_cost = got_cost))
    reqs;
  let batch_fresh = Engine.answer_batch fresh reqs in
  let batch_loaded = Engine.answer_batch loaded reqs in
  List.iter2
    (fun (r, c) (r', c') ->
      Alcotest.(check (list (list int)))
        (what ^ ": batch answer") (sorted r) (sorted r');
      Alcotest.(check bool) (what ^ ": batch cost") true (c = c'))
    batch_fresh batch_loaded

let save_exn idx path =
  match Engine.save idx path with
  | Ok bytes -> bytes
  | Error e -> Alcotest.failf "save: %s" (Store.error_to_string e)

let engine_roundtrip () =
  let idx = Lazy.force fixture in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let bytes = save_exn idx path in
  Alcotest.(check bool) "non-trivial file" true (bytes > 100);
  match Engine.load path with
  | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
  | Ok loaded -> check_identical "fixture" idx loaded (fixture_requests idx)

(* A save whose section writer raises partway through must leave the
   previous snapshot loadable and no temp file beside it. *)
let failed_save_keeps_previous () =
  let idx = Lazy.force fixture in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (save_exn idx path);
  let before = read_file path in
  let failing =
    [
      ("cqap", fun e -> Codec.write_string e (String.make 4096 'x'));
      ("pmtds", fun _ -> failwith "section writer failed");
    ]
  in
  Alcotest.check_raises "writer exception propagates"
    (Failure "section writer failed") (fun () ->
      ignore (Store.write ~version:1 path failing));
  Alcotest.(check bool) "previous bytes intact" true (read_file path = before);
  let base = Filename.basename path in
  let leftovers =
    Sys.readdir (Filename.dirname path)
    |> Array.to_list
    |> List.filter (fun f ->
           f <> base && String.length f > String.length base
           && String.sub f 0 (String.length base) = base)
  in
  Alcotest.(check (list string)) "no temp file left" [] leftovers;
  match Engine.load path with
  | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
  | Ok loaded -> check_identical "after failed save" idx loaded (fixture_requests idx)

let engine_rejects_damage () =
  let idx = Lazy.force fixture in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (save_exn idx path);
  let whole = read_file path in
  let size = String.length whole in
  (* the specific classes: flipped payload byte, truncation, version
     bump, wrong magic *)
  flip_byte path (size / 2);
  expect_error "mid-file flip"
    (function Store.Checksum_mismatch _ -> true | _ -> false)
    (Engine.load path);
  write_file path (String.sub whole 0 (size / 2));
  expect_error "half file"
    (function Store.Truncated _ -> true | _ -> false)
    (Engine.load path);
  write_file path whole;
  flip_byte path 8;
  expect_error "version bump"
    (function
      | Store.Version_skew { expected; _ } -> expected = Engine.format_version
      | _ -> false)
    (Engine.load path);
  write_file path whole;
  flip_byte path 3;
  expect_error "magic"
    (function Store.Bad_magic -> true | _ -> false)
    (Engine.load path)

(* CRC-32 detects every single-byte error, so *any* flipped byte must
   yield a typed error — sweep the file with a prime stride *)
let engine_flip_sweep () =
  let idx = Lazy.force fixture in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (save_exn idx path);
  let whole = read_file path in
  let size = String.length whole in
  let pos = ref 0 in
  while !pos < size do
    write_file path whole;
    flip_byte path !pos;
    expect_error
      (Printf.sprintf "flip at byte %d" !pos)
      (fun _ -> true)
      (Engine.load path);
    pos := !pos + 251
  done

(* ------------------------------------------------------------------ *)
(* randomized round-trip differential                                   *)
(* ------------------------------------------------------------------ *)

let n_instances = 50
let base_seed = 0x5A9

let run_one i =
  let rec attempt k =
    let seed = base_seed + (1000 * i) + k in
    let inst = Diff_harness.gen_instance seed in
    match Diff_harness.build_index inst with
    | exception Diff_harness.Skip reason ->
        if k >= 20 then
          Alcotest.failf "instance %d: no buildable query after %d tries (%s)"
            i (k + 1) reason
        else attempt (k + 1)
    | idx, _ ->
        let path = temp_snap () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        ignore (save_exn idx path);
        (match Engine.load path with
        | Error e ->
            Alcotest.failf "instance %d (seed %d): load: %s" i seed
              (Store.error_to_string e)
        | Ok loaded ->
            check_identical
              (Printf.sprintf "instance %d (seed %d)" i seed)
              idx loaded
              [ inst.Diff_harness.q_a ])
  in
  attempt 0

let test_differential () =
  for i = 0 to n_instances - 1 do
    run_one i
  done

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "int round trips" `Quick roundtrip_ints;
          Alcotest.test_case "row blocks round trip" `Quick roundtrip_rows;
          Alcotest.test_case "decoder rejects bad input" `Quick decoder_rejects;
          Alcotest.test_case "crc32 known vector" `Quick crc_known_vector;
        ] );
      ( "container",
        [
          Alcotest.test_case "write/read round trip" `Quick container_roundtrip;
          Alcotest.test_case "damage maps to typed errors" `Quick
            container_rejects_damage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "snapshot round trip is observationally identical"
            `Quick engine_roundtrip;
          Alcotest.test_case "damaged snapshots are rejected" `Quick
            engine_rejects_damage;
          Alcotest.test_case "failed save keeps the previous snapshot" `Quick
            failed_save_keeps_previous;
          Alcotest.test_case "every flipped byte is caught" `Slow
            engine_flip_sweep;
        ] );
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random instances round-trip" n_instances)
            `Slow test_differential;
        ] );
    ]
