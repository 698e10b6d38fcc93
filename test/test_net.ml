(* The network serving layer, bottom to top.

   The frame codec round-trips arbitrary requests and responses and —
   thanks to the per-frame CRC — rejects every truncation and every
   single-byte corruption with a typed error, never a crash.  On top, an
   in-process loopback server must answer exactly what a direct
   [Engine.answer_batch] call answers (rows and op counts), shed with
   [Overloaded] when its bounded queue is full, reject blown deadlines
   with [Deadline_exceeded], and — the drain property — answer every
   already-accepted request even after [stop]. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
module Frame = Stt_net.Frame
module Server = Stt_net.Server
module Client = Stt_net.Client
module Loadgen = Stt_net.Loadgen
module Netbuf = Stt_net.Netbuf
module Evloop = Stt_net.Evloop

(* ------------------------------------------------------------------ *)
(* frame codec: round trips                                             *)
(* ------------------------------------------------------------------ *)

let gen_tuples =
  QCheck.Gen.(
    sized_size (int_bound 6) @@ fun arity ->
    list_size (int_bound 20)
      (array_size (return arity) (int_bound 1_000_000))
    >|= fun tuples -> (arity, tuples))

let gen_update =
  QCheck.Gen.(
    sized_size (int_bound 4) @@ fun arity ->
    string_size ~gen:(char_range 'a' 'z') (int_range 1 12) >>= fun urel ->
    array_size (return arity) (int_bound 1_000_000) >>= fun utuple ->
    bool >|= fun uadd -> { Frame.urel; utuple; uadd })

let gen_request =
  QCheck.Gen.(
    oneof
      [
        ( gen_tuples >>= fun (arity, tuples) ->
          int_bound 1_000_000 >>= fun id ->
          int_bound 10_000_000 >|= fun deadline_us ->
          Frame.Answer { id; deadline_us; arity; tuples } );
        ( int_bound 1_000_000 >>= fun id ->
          list_size (int_bound 10) gen_update >|= fun deltas ->
          Frame.Update { id; deltas } );
        ( gen_tuples >>= fun (arity, tuples) ->
          int_bound 1_000_000 >>= fun id ->
          int_bound 10_000_000 >>= fun deadline_us ->
          int_range 1 4 >|= fun kind ->
          Frame.Agg { id; deadline_us; kind; arity; tuples } );
        (int_bound 1_000_000 >|= fun id -> Frame.Stats { id });
        (int_bound 1_000_000 >|= fun id -> Frame.Health { id });
      ])

let gen_cost =
  QCheck.Gen.(
    triple (int_bound 10_000) (int_bound 10_000) (int_bound 10_000)
    >|= fun (probes, tuples, scans) -> { Cost.probes; tuples; scans })

let gen_answer =
  QCheck.Gen.(
    gen_tuples >>= fun (row_arity, rows) ->
    gen_cost >|= fun cost -> { Frame.rows; row_arity; cost })

(* v5 health blocks nest: a router's block carries one sub-block per
   shard, a replica's shard list is empty — generate both shapes *)
let gen_health ~shards =
  QCheck.Gen.(
    let leaf =
      quad bool (int_bound 100_000) (int_bound 64) (int_bound 4096)
      >>= fun (ready, space, workers, queue_capacity) ->
      quad (int_bound 100_000) (int_bound 100_000) (int_bound 10_000)
        (pair (int_bound 1_000_000) (int_bound 1_000_000))
      >>= fun (cache_budget, cache_used, cache_entries, (hits, misses)) ->
      pair (int_bound 4096) (int_bound 1_000_000_000)
      >>= fun (queue_depth, uptime_ns) ->
      int_bound 100_000 >>= fun agg_space ->
      oneofl [ "epoll"; "select" ] >|= fun io_backend ->
      {
        Frame.ready;
        space;
        agg_space;
        workers;
        queue_capacity;
        queue_depth;
        uptime_ns;
        cache =
          {
            Frame.cache_budget;
            cache_used;
            cache_entries;
            cache_hits = hits;
            cache_misses = misses;
          };
        io_backend;
        shards = [];
      }
    in
    if not shards then leaf
    else
      leaf >>= fun top ->
      list_size (int_bound 4)
        (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) leaf)
      >|= fun subs -> { top with Frame.shards = subs })

let gen_response =
  QCheck.Gen.(
    oneof
      [
        ( int_bound 1_000_000 >>= fun id ->
          list_size (int_bound 8) gen_answer >|= fun answers ->
          Frame.Answers { id; answers } );
        ( int_bound 1_000_000 >>= fun id ->
          oneof
            [
              return Frame.Overloaded;
              return Frame.Deadline_exceeded;
              (string_size (int_bound 40) >|= fun m -> Frame.Bad_request m);
            ]
          >|= fun reject -> Frame.Rejected { id; reject } );
        ( int_bound 1_000_000 >>= fun id ->
          pair (int_bound 1_000_000) (int_bound 10_000)
          >>= fun (epoch, applied) ->
          gen_cost >|= fun cost -> Frame.Updated { id; epoch; applied; cost }
        );
        ( int_bound 1_000_000 >>= fun id ->
          (* the tropical identities travel as tagged sentinels, so force
             them into the sampled range *)
          oneof
            [ int_bound 1_000_000; oneofl [ max_int; min_int; -1; -7 ] ]
          >>= fun value ->
          gen_cost >|= fun cost -> Frame.Agg_reply { id; value; cost } );
        ( int_bound 1_000_000 >>= fun id ->
          string_size (int_bound 200) >|= fun json ->
          Frame.Stats_reply { id; json } );
        ( int_bound 1_000_000 >>= fun id ->
          gen_health ~shards:true >|= fun health ->
          Frame.Health_reply { id; health } );
      ])

let request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request round-trips"
    (QCheck.make gen_request) (fun req ->
      match Frame.decode_request (Frame.encode_request req) with
      | Ok req' -> req = req'
      | Error e -> QCheck.Test.fail_reportf "%s" (Frame.error_to_string e))

let response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response round-trips"
    (QCheck.make gen_response) (fun resp ->
      match Frame.decode_response (Frame.encode_response resp) with
      | Ok resp' -> resp = resp'
      | Error e -> QCheck.Test.fail_reportf "%s" (Frame.error_to_string e))

(* ------------------------------------------------------------------ *)
(* frame codec: damage                                                  *)
(* ------------------------------------------------------------------ *)

let sample_blobs =
  lazy
    [
      Frame.encode_request
        (Frame.Answer
           {
             id = 7;
             deadline_us = 250_000;
             arity = 2;
             tuples = [ [| 1; 2 |]; [| 3; 4 |]; [| 3; 5 |] ];
           });
      Frame.encode_request (Frame.Stats { id = 1 });
      Frame.encode_request
        (Frame.Update
           {
             id = 12;
             deltas =
               [
                 { Frame.urel = "R"; utuple = [| 3; 4 |]; uadd = true };
                 { Frame.urel = "R"; utuple = [| 5; 6 |]; uadd = false };
               ];
           });
      Frame.encode_response
        (Frame.Updated
           {
             id = 12;
             epoch = 9;
             applied = 2;
             cost = { Cost.probes = 4; tuples = 1; scans = 0 };
           });
      Frame.encode_response
        (Frame.Answers
           {
             id = 7;
             answers =
               [
                 {
                   Frame.rows = [ [| 1; 2; 3 |]; [| 4; 5; 6 |] ];
                   row_arity = 3;
                   cost = { Cost.probes = 10; tuples = 2; scans = 5 };
                 };
               ];
           });
      Frame.encode_response
        (Frame.Rejected { id = 3; reject = Frame.Bad_request "nope" });
      Frame.encode_request
        (Frame.Agg
           {
             id = 21;
             deadline_us = 250_000;
             kind = 3;
             arity = 2;
             tuples = [ [| 1; 2 |]; [| 3; 4 |] ];
           });
      Frame.encode_response
        (Frame.Agg_reply
           {
             id = 21;
             value = max_int;
             cost = { Cost.probes = 2; tuples = 2; scans = 0 };
           });
    ]

(* decoding never crashes and never silently succeeds on damaged bytes *)
let expect_rejected what = function
  | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" what
  | Error _ -> ()

let truncation_sweep () =
  List.iter
    (fun blob ->
      for keep = 0 to String.length blob - 1 do
        let prefix = String.sub blob 0 keep in
        expect_rejected
          (Printf.sprintf "request prefix of %d bytes" keep)
          (Frame.decode_request prefix);
        expect_rejected
          (Printf.sprintf "response prefix of %d bytes" keep)
          (Frame.decode_response prefix)
      done)
    (Lazy.force sample_blobs)

let flip_sweep () =
  List.iter
    (fun blob ->
      for pos = 0 to String.length blob - 1 do
        for bit = 0 to 7 do
          let damaged = Bytes.of_string blob in
          Bytes.set damaged pos
            (Char.chr (Char.code blob.[pos] lxor (1 lsl bit)));
          let damaged = Bytes.to_string damaged in
          expect_rejected
            (Printf.sprintf "request flip byte %d bit %d" pos bit)
            (Frame.decode_request damaged);
          expect_rejected
            (Printf.sprintf "response flip byte %d bit %d" pos bit)
            (Frame.decode_response damaged)
        done
      done)
    (Lazy.force sample_blobs)

let hello_checks () =
  Alcotest.(check bool)
    "own hello accepted" true
    (Frame.check_hello Frame.hello = Ok ());
  (match Frame.check_hello ("XXXXXXXX" ^ String.make 4 '\000') with
  | Error Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic not detected");
  let skewed = String.sub Frame.hello 0 8 ^ "\x63\x00\x00\x00" in
  (match Frame.check_hello skewed with
  | Error (Frame.Version_skew { found = 0x63; _ }) -> ()
  | _ -> Alcotest.fail "version skew not detected");
  (* an older peer (pre-agg_space health) must be refused by a v7 server *)
  Alcotest.(check int) "agg_space health bumped the protocol to v7" 7
    Frame.protocol_version;
  let v6 = String.sub Frame.hello 0 8 ^ "\x06\x00\x00\x00" in
  (match Frame.check_hello v6 with
  | Error (Frame.Version_skew { found = 6; expected = 7 }) -> ()
  | _ -> Alcotest.fail "v6 hello not rejected by v7");
  match Frame.check_hello "short" with
  | Error (Frame.Truncated _) -> ()
  | _ -> Alcotest.fail "short hello not detected"

(* ------------------------------------------------------------------ *)
(* zero-copy path: Netbuf framing = Codec framing, in-place decoding    *)
(* ------------------------------------------------------------------ *)

(* the Netbuf encoders and the Codec encoders are generated from the
   same Body functor, so their wire images must be byte-identical:
   [prefix ^ encode_request req] = what encode_request_into frames *)
let netbuf_framing_equiv ~name gen encode encode_into =
  QCheck.Test.make ~count:300 ~name (QCheck.make gen) (fun v ->
      let blob = encode v in
      let b = Netbuf.create 8 in
      encode_into b v;
      let framed = Netbuf.contents b in
      Frame.peek_len framed ~pos:0 = String.length blob
      && String.length framed = 4 + String.length blob
      && String.sub framed 4 (String.length blob) = blob)

let netbuf_request_equiv =
  netbuf_framing_equiv ~name:"Netbuf request framing = Codec framing"
    gen_request Frame.encode_request Frame.encode_request_into

let netbuf_response_equiv =
  netbuf_framing_equiv ~name:"Netbuf response framing = Codec framing"
    gen_response Frame.encode_response Frame.encode_response_into

(* two frames encoded back to back into one buffer decode in place via
   peek_len + decode_*_sub — the server's read path, without the
   per-frame copy *)
let decode_sub_roundtrip =
  QCheck.Test.make ~count:300 ~name:"in-place decode over a shared buffer"
    (QCheck.make QCheck.Gen.(pair gen_request gen_response))
    (fun (req, resp) ->
      let b = Netbuf.create 8 in
      Frame.encode_request_into b req;
      Frame.encode_response_into b resp;
      let s = Netbuf.contents b in
      let len1 = Frame.peek_len s ~pos:0 in
      let pos2 = 4 + len1 in
      let len2 = Frame.peek_len s ~pos:pos2 in
      pos2 + 4 + len2 = String.length s
      && Frame.decode_request_sub s ~pos:4 ~len:len1 = Ok req
      && Frame.decode_response_sub s ~pos:(pos2 + 4) ~len:len2 = Ok resp)

(* ------------------------------------------------------------------ *)
(* nonblocking writes: partial writes, EAGAIN resumption, ordering      *)
(* ------------------------------------------------------------------ *)

let drain_nonblocking fd buf into =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes into buf 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let eagain_resumption () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  (* shrink the socket buffer so the payload cannot fit in one write;
     even if the OS ignores the hint, 4 MB beats any default buffer *)
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let payload = String.init 4_000_000 (fun i -> Char.chr (i land 0xff)) in
  let src = Bytes.of_string payload in
  let pending = Netbuf.create 64 in
  (match Netbuf.write_or_stash a ~pending src ~pos:0 ~len:(Bytes.length src) with
  | Netbuf.Again -> ()
  | Netbuf.Flushed -> Alcotest.fail "4 MB fit the socket buffer?"
  | Netbuf.Gone -> Alcotest.fail "peer gone");
  Alcotest.(check bool) "remainder queued on EAGAIN" true
    (Netbuf.length pending > 0);
  (* a second write while bytes are pending must queue *behind* them,
     never interleave *)
  let tail = Bytes.of_string "TAIL" in
  (match Netbuf.write_or_stash a ~pending tail ~pos:0 ~len:4 with
  | Netbuf.Again -> ()
  | _ -> Alcotest.fail "write with non-empty pending must stash");
  (* reader and flusher in lockstep until the queue drains *)
  let received = Buffer.create (String.length payload + 4) in
  let rbuf = Bytes.create 65536 in
  Unix.set_nonblock b;
  let rec pump guard =
    if guard = 0 then Alcotest.fail "flush never completed";
    drain_nonblocking b rbuf received;
    match Netbuf.flush a pending with
    | Netbuf.Flushed -> ()
    | Netbuf.Again -> pump (guard - 1)
    | Netbuf.Gone -> Alcotest.fail "peer gone mid-flush"
  in
  pump 10_000;
  Alcotest.(check int) "pending empty after Flushed" 0 (Netbuf.length pending);
  let total = String.length payload + 4 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Buffer.length received < total && Unix.gettimeofday () < deadline do
    drain_nonblocking b rbuf received
  done;
  Alcotest.(check int) "every byte arrived" total (Buffer.length received);
  Alcotest.(check bool) "bytes arrived unmangled, in order" true
    (Buffer.contents received = payload ^ "TAIL");
  Unix.close a;
  Unix.close b

(* blocking Frame.write_frame against a tiny socket buffer: the
   really_write loop must survive short writes and deliver the frame
   intact to a concurrent reader *)
let write_frame_short_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let resp =
    Frame.Answers
      {
        id = 99;
        answers =
          [
            {
              Frame.rows = List.init 60_000 (fun i -> [| i; i + 1; i * 3 |]);
              row_arity = 3;
              cost = Cost.zero;
            };
          ];
      }
  in
  let blob = Frame.encode_response resp in
  let writer =
    Domain.spawn (fun () -> Frame.write_frame a blob)
  in
  let got =
    match Frame.read_frame b with
    | Ok s -> s
    | Error e -> Alcotest.failf "read_frame: %s" (Frame.error_to_string e)
  in
  (match Domain.join writer with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_frame: %s" (Frame.error_to_string e));
  Alcotest.(check bool) "frame bytes identical" true (got = blob);
  Alcotest.(check bool) "frame decodes to the original" true
    (Frame.decode_response got = Ok resp);
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Evloop: both backends through one readiness scenario                 *)
(* ------------------------------------------------------------------ *)

let evloop_scenario backend () =
  if not (Evloop.available backend) then
    Printf.printf "(%s unavailable here — skipped)\n"
      (Evloop.backend_name backend)
  else begin
    let loop = Evloop.create ~backend () in
    Alcotest.(check string)
      "requested backend" (Evloop.backend_name backend) (Evloop.name loop);
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock a;
    Unix.set_nonblock b;
    Evloop.add loop a;
    Alcotest.(check int) "watched" 1 (Evloop.watched_count loop);
    let events = ref [] in
    let cb fd ~readable ~writable =
      events := (fd, readable, writable) :: !events
    in
    let wait_for what pred =
      let rec go tries =
        if tries = 0 then Alcotest.failf "%s: event never arrived" what
        else begin
          events := [];
          ignore (Evloop.wait loop ~timeout_ms:1_000 cb);
          if not (List.exists pred !events) then go (tries - 1)
        end
      in
      go 5
    in
    (* idle: the wait times out with no events *)
    Alcotest.(check int) "idle loop delivers nothing" 0
      (Evloop.wait loop ~timeout_ms:50 cb);
    (* peer data: readable fires *)
    ignore (Unix.write b (Bytes.of_string "ping") 0 4);
    wait_for "readable after peer write" (fun (fd, r, _) -> fd = a && r);
    (* drain to EAGAIN — mandatory under edge triggering *)
    let rbuf = Bytes.create 16 in
    drain_nonblocking a rbuf (Buffer.create 16);
    (* write interest: an empty socket buffer reports writable *)
    Evloop.set_write loop a true;
    wait_for "writable after set_write" (fun (fd, _, w) -> fd = a && w);
    Evloop.set_write loop a false;
    Alcotest.(check int) "no events once write interest dropped" 0
      (Evloop.wait loop ~timeout_ms:50 cb);
    (* hangup surfaces as readable, so the read path observes the EOF *)
    Unix.close b;
    wait_for "hangup surfaces as readable" (fun (fd, r, _) -> fd = a && r);
    Evloop.remove loop a;
    Alcotest.(check int) "unwatched" 0 (Evloop.watched_count loop);
    Evloop.close loop;
    Unix.close a
  end

(* ------------------------------------------------------------------ *)
(* loopback fixture                                                     *)
(* ------------------------------------------------------------------ *)

let fixture =
  lazy
    (let q = Cq.Library.k_path 2 in
     let db = Stt_workload.Scenario.synthetic_db ~seed:11 ~vertices:300 ~edges:2500 in
     Engine.build_auto ~max_pmtds:128 q ~db ~budget:500)

let fixture_tuples n seed =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  let rng = Stt_workload.Rng.create seed in
  List.init n (fun _ ->
      Array.init arity (fun _ -> Stt_workload.Rng.int rng 300))

let with_server ?(workers = 2) ?(queue = 64) ?io_backend ?update_handler
    ?agg_handler handler f =
  let server =
    Server.start ~port:0 ~workers ~queue_capacity:queue ?io_backend
      ?update_handler ?agg_handler handler
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      ignore (Server.wait server))
    (fun () -> f server)

let with_client server f =
  match Client.connect ~port:(Server.port server) () with
  | Error e -> Alcotest.failf "connect: %s" (Frame.error_to_string e)
  | Ok client -> Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let rpc_exn client req =
  match Client.rpc client req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "rpc: %s" (Frame.error_to_string e)

let loopback_matches_direct () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  let handler = Server.engine_handler idx in
  with_server handler @@ fun server ->
  with_client server @@ fun client ->
  (* several batches, including a repeated tuple inside one batch *)
  List.iteri
    (fun i tuples ->
      let expected = handler ~arity tuples in
      match rpc_exn client (Frame.Answer { id = i; deadline_us = 0; arity; tuples }) with
      | Frame.Answers { id; answers } ->
          Alcotest.(check int) "id echoed" i id;
          Alcotest.(check int) "answer per tuple" (List.length expected)
            (List.length answers);
          List.iter2
            (fun (rows, row_arity, cost) (a : Frame.answer) ->
              Alcotest.(check (list (array int))) "same rows" rows a.Frame.rows;
              Alcotest.(check int) "same arity" row_arity a.Frame.row_arity;
              Alcotest.(check bool) "same op counts" true (cost = a.Frame.cost))
            expected answers
      | _ -> Alcotest.fail "expected Answers")
    [
      fixture_tuples 5 21;
      fixture_tuples 16 22;
      (match fixture_tuples 1 23 with
      | [ t ] -> [ t; Array.copy t; t ]
      | _ -> assert false);
    ]

(* the select fallback must serve the exact same answers as the
   default (epoll where available) path *)
let select_backend_serves () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  let handler = Server.engine_handler idx in
  with_server ~io_backend:Evloop.Select handler @@ fun server ->
  Alcotest.(check string) "server runs on select" "select"
    (Server.io_backend server);
  with_client server @@ fun client ->
  (match rpc_exn client (Frame.Health { id = 7 }) with
  | Frame.Health_reply { id = 7; health } ->
      Alcotest.(check string) "health says select" "select"
        health.Frame.io_backend
  | _ -> Alcotest.fail "expected Health_reply");
  let tuples = fixture_tuples 9 31 in
  let expected = handler ~arity tuples in
  match rpc_exn client (Frame.Answer { id = 1; deadline_us = 0; arity; tuples })
  with
  | Frame.Answers { id = 1; answers } ->
      List.iter2
        (fun (rows, _, _) (a : Frame.answer) ->
          Alcotest.(check (list (array int))) "same rows" rows a.Frame.rows)
        expected answers
  | _ -> Alcotest.fail "expected Answers"

let health_and_stats () =
  let idx = Lazy.force fixture in
  with_server ~workers:3 ~queue:17 (Server.engine_handler idx) @@ fun server ->
  with_client server @@ fun client ->
  (match rpc_exn client (Frame.Health { id = 42 }) with
  | Frame.Health_reply { id = 42; health } ->
      Alcotest.(check bool) "ready" true health.Frame.ready;
      Alcotest.(check int) "workers" 3 health.Frame.workers;
      Alcotest.(check int) "queue" 17 health.Frame.queue_capacity;
      Alcotest.(check string) "health reports the live io backend"
        (Server.io_backend server) health.Frame.io_backend;
      Alcotest.(check bool) "backend is a known one" true
        (List.mem health.Frame.io_backend [ "epoll"; "select" ])
  | _ -> Alcotest.fail "expected Health_reply");
  match rpc_exn client (Frame.Stats { id = 43 }) with
  | Frame.Stats_reply { id = 43; json } -> (
      match Stt_obs.Json.of_string json with
      | Ok (Stt_obs.Json.Obj _) -> ()
      | Ok _ -> Alcotest.fail "stats is not a JSON object"
      | Error e -> Alcotest.failf "stats JSON does not parse: %s" e)
  | _ -> Alcotest.fail "expected Stats_reply"

let slow_handler delay_s ~arity tuples =
  ignore arity;
  Unix.sleepf delay_s;
  List.map (fun t -> ([ t ], Array.length t, Cost.zero)) tuples

let deadline_enforced () =
  with_server ~workers:1 (slow_handler 0.05) @@ fun server ->
  with_client server @@ fun client ->
  (* 1 ms budget, 50 ms handler: the post-answer check must trip *)
  (match
     rpc_exn client
       (Frame.Answer
          { id = 1; deadline_us = 1_000; arity = 1; tuples = [ [| 5 |] ] })
   with
  | Frame.Rejected { id = 1; reject = Frame.Deadline_exceeded } -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  (* a generous budget answers normally *)
  match
    rpc_exn client
      (Frame.Answer
         { id = 2; deadline_us = 5_000_000; arity = 1; tuples = [ [| 5 |] ] })
  with
  | Frame.Answers { id = 2; answers = [ a ] } ->
      Alcotest.(check (list (array int))) "echoed" [ [| 5 |] ] a.Frame.rows
  | _ -> Alcotest.fail "expected Answers"

(* [deadline_us] is relative to receipt and checked on the server's
   monotonic clock: a 1 us budget is always blown by the time the answer
   is ready, and the generous budget of [deadline_enforced] still
   answers — so both clocks of the check agree. *)
let tiny_deadline_rejected () =
  with_server ~workers:1 (slow_handler 0.001) @@ fun server ->
  with_client server @@ fun client ->
  match
    rpc_exn client
      (Frame.Answer { id = 3; deadline_us = 1; arity = 1; tuples = [ [| 5 |] ] })
  with
  | Frame.Rejected { id = 3; reject = Frame.Deadline_exceeded } -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded for deadline_us = 1"

let overload_sheds () =
  (* one slow worker, queue of one: pipelining 10 frames must shed some
     with OVERLOADED, answer the rest, and reply exactly once per id *)
  with_server ~workers:1 ~queue:1 (slow_handler 0.05) @@ fun server ->
  with_client server @@ fun client ->
  let n = 10 in
  for id = 0 to n - 1 do
    match
      Client.send client
        (Frame.Answer
           { id; deadline_us = 0; arity = 1; tuples = [ [| id |] ] })
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send %d: %s" id (Frame.error_to_string e)
  done;
  let seen = Array.make n 0 in
  let answered = ref 0 and shed = ref 0 in
  for _ = 1 to n do
    match Client.recv client with
    | Ok (Frame.Answers { id; answers = [ a ] }) ->
        seen.(id) <- seen.(id) + 1;
        incr answered;
        Alcotest.(check (list (array int)))
          "answered id echoes its tuple" [ [| id |] ] a.Frame.rows
    | Ok (Frame.Rejected { id; reject = Frame.Overloaded }) ->
        seen.(id) <- seen.(id) + 1;
        incr shed
    | Ok _ -> Alcotest.fail "unexpected response kind"
    | Error e -> Alcotest.failf "recv: %s" (Frame.error_to_string e)
  done;
  Array.iteri
    (fun id c -> Alcotest.(check int) (Printf.sprintf "id %d replied once" id) 1 c)
    seen;
  Alcotest.(check int) "all accounted" n (!answered + !shed);
  Alcotest.(check bool) "something was shed" true (!shed >= 1);
  Alcotest.(check bool) "something was answered" true (!answered >= 1)

let drain_answers_in_flight () =
  let server =
    Server.start ~port:0 ~workers:1 ~queue_capacity:8 (slow_handler 0.05)
  in
  match Client.connect ~port:(Server.port server) () with
  | Error e -> Alcotest.failf "connect: %s" (Frame.error_to_string e)
  | Ok client ->
      (match
         Client.send client
           (Frame.Answer
              { id = 9; deadline_us = 0; arity = 1; tuples = [ [| 1 |]; [| 2 |] ] })
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (Frame.error_to_string e));
      (* let the IO loop queue it, then begin the drain *)
      Unix.sleepf 0.02;
      Server.stop server;
      (match Client.recv client with
      | Ok (Frame.Answers { id = 9; answers }) ->
          Alcotest.(check int) "both tuples answered" 2 (List.length answers)
      | Ok _ -> Alcotest.fail "unexpected response"
      | Error e -> Alcotest.failf "recv after stop: %s" (Frame.error_to_string e));
      Client.close client;
      let stats = Server.wait server in
      Alcotest.(check int) "answered" 1 stats.Server.answered;
      Alcotest.(check int) "received" 1 stats.Server.received

(* ------------------------------------------------------------------ *)
(* protocol v3: updates over the wire                                   *)
(* ------------------------------------------------------------------ *)

(* a private twin pair — the served engine takes its deltas over the
   wire, the direct engine applies them in-process, and every answer
   and every Updated reply must agree (the shared [fixture] engine must
   stay immutable for the other tests) *)
let churn_fixture () =
  Engine.build_auto ~max_pmtds:128 (Cq.Library.k_path 2)
    ~db:(Stt_workload.Scenario.synthetic_db ~seed:12 ~vertices:100 ~edges:800)
    ~budget:300

let updates_interleave_with_answers () =
  let served = churn_fixture () and direct = churn_fixture () in
  let arity = Schema.arity (Engine.access_schema served) in
  let direct_handler = Server.engine_handler direct in
  with_server
    ~update_handler:(Server.engine_update_handler served)
    (Server.engine_handler served)
  @@ fun server ->
  with_client server @@ fun client ->
  let check_answer id t =
    let expected = direct_handler ~arity [ t ] in
    match
      rpc_exn client
        (Frame.Answer { id; deadline_us = 0; arity; tuples = [ t ] })
    with
    | Frame.Answers { id = id'; answers } ->
        Alcotest.(check int) "id echoed" id id';
        List.iter2
          (fun (rows, row_arity, cost) (a : Frame.answer) ->
            Alcotest.(check (list (array int))) "same rows" rows a.Frame.rows;
            Alcotest.(check int) "same arity" row_arity a.Frame.row_arity;
            Alcotest.(check bool) "same op counts" true (cost = a.Frame.cost))
          expected answers
    | _ -> Alcotest.fail "expected Answers"
  in
  let check_update id deltas =
    let expected_applied, expected_cost =
      Engine.apply_deltas direct
        (List.map
           (fun { Frame.urel; utuple; uadd } -> (urel, utuple, uadd))
           deltas)
    in
    match rpc_exn client (Frame.Update { id; deltas }) with
    | Frame.Updated { id = id'; epoch; applied; cost } ->
        Alcotest.(check int) "id echoed" id id';
        Alcotest.(check int) "twin epochs agree" (Engine.epoch direct) epoch;
        Alcotest.(check int) "twin applied counts agree" expected_applied
          applied;
        Alcotest.(check bool) "twin maintenance costs agree" true
          (expected_cost = cost)
    | _ -> Alcotest.fail "expected Updated"
  in
  (* a churn stream interleaving single-delta updates with answers *)
  let ops =
    Stt_workload.Scenario.churn_ops ~seed:12 ~vertices:100 ~edges:800 ~ops:60
      ~arity
  in
  List.iteri
    (fun i op ->
      match op with
      | Stt_workload.Scenario.Insert (u, v) ->
          check_update i [ { Frame.urel = "R"; utuple = [| u; v |]; uadd = true } ]
      | Stt_workload.Scenario.Delete (u, v) ->
          check_update i
            [ { Frame.urel = "R"; utuple = [| u; v |]; uadd = false } ]
      | Stt_workload.Scenario.Query t -> check_answer i t)
    ops;
  (* a batched update frame applies atomically, in order *)
  check_update 1000
    [
      { Frame.urel = "R"; utuple = [| 7; 8 |]; uadd = true };
      { Frame.urel = "R"; utuple = [| 8; 9 |]; uadd = true };
      { Frame.urel = "R"; utuple = [| 7; 8 |]; uadd = false };
    ];
  check_answer 1001 (Array.make arity 8);
  (* malformed deltas reject without disturbing the engine *)
  (match
     rpc_exn client
       (Frame.Update
          {
            id = 1002;
            deltas = [ { Frame.urel = "nope"; utuple = [| 1; 2 |]; uadd = true } ];
          })
   with
  | Frame.Rejected { id = 1002; reject = Frame.Bad_request _ } -> ()
  | _ -> Alcotest.fail "unknown relation must reject");
  (match
     rpc_exn client
       (Frame.Update
          {
            id = 1003;
            deltas = [ { Frame.urel = "R"; utuple = [| 1 |]; uadd = true } ];
          })
   with
  | Frame.Rejected { id = 1003; reject = Frame.Bad_request _ } -> ()
  | _ -> Alcotest.fail "wrong arity must reject");
  check_answer 1004 (Array.make arity 3);
  let st = Server.stats server in
  let n_updates =
    List.length
      (List.filter
         (function
           | Stt_workload.Scenario.Insert _ | Stt_workload.Scenario.Delete _ ->
               true
           | Stt_workload.Scenario.Query _ -> false)
         ops)
  in
  Alcotest.(check int) "updated batches counted" (n_updates + 1)
    st.Server.updated;
  Alcotest.(check int) "malformed updates counted as bad" 2
    st.Server.bad_requests

let updates_without_handler_reject () =
  let idx = Lazy.force fixture in
  with_server (Server.engine_handler idx) @@ fun server ->
  with_client server @@ fun client ->
  match
    rpc_exn client
      (Frame.Update
         {
           id = 5;
           deltas = [ { Frame.urel = "R"; utuple = [| 1; 2 |]; uadd = true } ];
         })
  with
  | Frame.Rejected { id = 5; reject = Frame.Bad_request _ } -> ()
  | _ -> Alcotest.fail "update on a static server must reject"

(* ------------------------------------------------------------------ *)
(* aggregates over the wire                                             *)
(* ------------------------------------------------------------------ *)

let agg_fixture =
  lazy
    (let q = Cq.Library.k_path 2 in
     let db =
       Stt_workload.Scenario.synthetic_db ~seed:11 ~vertices:300 ~edges:2500
     in
     let idx = Engine.build_auto ~max_pmtds:128 q ~db ~budget:500 in
     Engine.enable_agg idx ~db ~budget:10_000;
     idx)

(* every kind served over loopback equals a direct [answer_agg] call —
   MIN on unreachable pairs also exercises the sentinel value codec *)
let loopback_agg_matches_direct () =
  let idx = Lazy.force agg_fixture in
  let schema = Engine.access_schema idx in
  let arity = Schema.arity schema in
  with_server
    ~agg_handler:(Server.engine_agg_handler idx)
    (Server.engine_handler idx)
  @@ fun server ->
  with_client server @@ fun client ->
  let rng = Stt_workload.Rng.create 33 in
  List.iteri
    (fun i n ->
      let tuples =
        List.init n (fun _ ->
            Array.init arity (fun _ -> Stt_workload.Rng.int rng 300))
      in
      List.iter
        (fun k ->
          let q_a = Relation.of_list schema tuples in
          let expected, _ = Engine.answer_agg idx k ~q_a in
          let kind = Stt_semiring.Semiring.to_tag k in
          match
            rpc_exn client
              (Frame.Agg { id = i; deadline_us = 0; kind; arity; tuples })
          with
          | Frame.Agg_reply { id; value; cost } ->
              Alcotest.(check int) "id echoed" i id;
              Alcotest.(check int)
                (Printf.sprintf "%s value" (Stt_semiring.Semiring.name k))
                expected value;
              Alcotest.(check bool) "nonzero accounting" true
                (Cost.total cost > 0)
          | _ -> Alcotest.fail "expected Agg_reply")
        Stt_semiring.Semiring.all)
    [ 1; 5; 12 ]

let aggs_without_handler_reject () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  with_server (Server.engine_handler idx) @@ fun server ->
  with_client server @@ fun client ->
  match
    rpc_exn client
      (Frame.Agg
         { id = 6; deadline_us = 0; kind = 1; arity; tuples = [ [| 1; 2 |] ] })
  with
  | Frame.Rejected { id = 6; reject = Frame.Bad_request _ } -> ()
  | _ -> Alcotest.fail "aggregate on a tuple-only server must reject"

let agg_bad_kind_rejected () =
  let blob =
    Frame.encode_request
      (Frame.Agg
         { id = 1; deadline_us = 0; kind = 7; arity = 2; tuples = [ [| 1; 2 |] ] })
  in
  expect_rejected "kind 7" (Frame.decode_request blob);
  let blob0 =
    Frame.encode_request
      (Frame.Agg
         { id = 1; deadline_us = 0; kind = 0; arity = 2; tuples = [ [| 1; 2 |] ] })
  in
  expect_rejected "kind 0" (Frame.decode_request blob0)

(* ------------------------------------------------------------------ *)
(* load generator                                                       *)
(* ------------------------------------------------------------------ *)

let loadgen_clean_run () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  let handler = Server.engine_handler idx in
  with_server ~workers:2 ~queue:256 handler @@ fun server ->
  let cfg =
    {
      Loadgen.host = "127.0.0.1";
      port = Server.port server;
      connections = 4;
      requests = 400;
      batch = 8;
      arity;
      values = 300;
      skew = 1.1;
      seed = 77;
      deadline_ms = 0;
      drivers = 2;
      active = 0;
    }
  in
  let verify ~arity tuples =
    List.map (fun (rows, _, _) -> rows) (handler ~arity tuples)
  in
  (match Loadgen.run ~verify cfg with
  | Error e -> Alcotest.failf "loadgen: %s" e
  | Ok r ->
      Alcotest.(check int) "all sent" 400 r.Loadgen.sent;
      Alcotest.(check int) "all answered" 400 r.Loadgen.answered;
      Alcotest.(check int) "no losses" 0 r.Loadgen.lost;
      Alcotest.(check int) "no duplicates" 0 r.Loadgen.duplicated;
      Alcotest.(check int) "no mismatches" 0 r.Loadgen.mismatched;
      Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
      Alcotest.(check bool) "latency percentiles ordered" true
        (r.Loadgen.p50_us > 0.0
        && r.Loadgen.p50_us <= r.Loadgen.p95_us
        && r.Loadgen.p95_us <= r.Loadgen.p99_us));
  (* parked connections (active < connections) keep idle fds registered
     at the server but must not disturb the accounting *)
  match Loadgen.run ~verify { cfg with connections = 12; active = 3 } with
  | Error e -> Alcotest.failf "loadgen (parked): %s" e
  | Ok r ->
      Alcotest.(check int) "all answered with parked conns" 400
        r.Loadgen.answered;
      Alcotest.(check int) "no losses with parked conns" 0 r.Loadgen.lost;
      Alcotest.(check int) "no errors with parked conns" 0 r.Loadgen.errors

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest request_roundtrip;
          QCheck_alcotest.to_alcotest response_roundtrip;
          Alcotest.test_case "every truncation is rejected" `Quick
            truncation_sweep;
          Alcotest.test_case "every bit flip is rejected" `Slow flip_sweep;
          Alcotest.test_case "hello validation" `Quick hello_checks;
        ] );
      ( "netbuf",
        [
          QCheck_alcotest.to_alcotest netbuf_request_equiv;
          QCheck_alcotest.to_alcotest netbuf_response_equiv;
          QCheck_alcotest.to_alcotest decode_sub_roundtrip;
          Alcotest.test_case "EAGAIN stash, resume, ordered flush" `Quick
            eagain_resumption;
          Alcotest.test_case "write_frame survives short writes" `Quick
            write_frame_short_writes;
        ] );
      ( "evloop",
        [
          Alcotest.test_case "epoll readiness scenario" `Quick
            (evloop_scenario Evloop.Epoll);
          Alcotest.test_case "select readiness scenario" `Quick
            (evloop_scenario Evloop.Select);
        ] );
      ( "server",
        [
          Alcotest.test_case "loopback equals direct answer_batch" `Quick
            loopback_matches_direct;
          Alcotest.test_case "select fallback serves identically" `Quick
            select_backend_serves;
          Alcotest.test_case "health and stats frames" `Quick health_and_stats;
          Alcotest.test_case "deadlines are enforced" `Quick deadline_enforced;
          Alcotest.test_case "1 us deadline is rejected" `Quick
            tiny_deadline_rejected;
          Alcotest.test_case "full queue sheds with OVERLOADED" `Quick
            overload_sheds;
          Alcotest.test_case "graceful drain answers in-flight requests"
            `Quick drain_answers_in_flight;
          Alcotest.test_case "updates interleave with answers" `Quick
            updates_interleave_with_answers;
          Alcotest.test_case "static server rejects updates" `Quick
            updates_without_handler_reject;
        ] );
      ( "agg",
        [
          Alcotest.test_case "loopback equals direct answer_agg" `Quick
            loopback_agg_matches_direct;
          Alcotest.test_case "tuple-only server rejects aggregates" `Quick
            aggs_without_handler_reject;
          Alcotest.test_case "invalid kind tags rejected at decode" `Quick
            agg_bad_kind_rejected;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "clean closed-loop run" `Quick loadgen_clean_run;
        ] );
    ]
