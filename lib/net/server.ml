open Stt_relation
module Obs = Stt_obs.Obs
module Json = Stt_obs.Json

(* The replica role: engine-backed request handling layered on the
   role-agnostic Core (accept/IO-loop/drain, worker pool, byte path).
   Everything engine-specific lives here — the RW lock that serializes
   updates against answers, deadline arithmetic, and the Health block —
   and everything about moving frames lives in Core, shared with the
   sharded tier's router. *)

type handler =
  arity:int -> int array list -> (int array list * int * Cost.snapshot) list

type update_handler =
  Frame.update list -> (int * int * Cost.snapshot, string) result

type agg_handler = kind:int -> arity:int -> int array list -> int * Cost.snapshot

let engine_handler engine ~arity tuples =
  let module Engine = Stt_core.Engine in
  let schema = Engine.access_schema engine in
  if arity <> Schema.arity schema then
    failwith
      (Printf.sprintf "access arity %d, engine expects %d" arity
         (Schema.arity schema));
  let requests =
    List.map (fun tup -> Relation.of_list schema [ tup ]) tuples
  in
  Engine.answer_batch engine requests
  |> List.map (fun (rel, cost) ->
         let rows = List.sort Tuple.compare (Relation.to_list rel) in
         (rows, Schema.arity (Relation.schema rel), cost))

let engine_agg_handler engine ~kind ~arity tuples =
  let module Engine = Stt_core.Engine in
  let module Semiring = Stt_semiring.Semiring in
  let k =
    match Semiring.of_tag kind with
    | Some k -> k
    | None -> failwith (Printf.sprintf "unknown aggregate kind %d" kind)
  in
  let schema = Engine.access_schema engine in
  if arity <> Schema.arity schema then
    failwith
      (Printf.sprintf "access arity %d, engine expects %d" arity
         (Schema.arity schema));
  let q_a = Relation.of_list schema tuples in
  Engine.answer_agg engine k ~q_a

let engine_update_handler engine deltas =
  let module Engine = Stt_core.Engine in
  match
    Engine.apply_deltas engine
      (List.map
         (fun { Frame.urel; utuple; uadd } -> (urel, utuple, uadd))
         deltas)
  with
  | applied, cost -> Ok (Engine.epoch engine, applied, cost)
  | exception Failure msg -> Error msg

(* The engine (and its striped cache) is shared by every worker domain,
   so the IO domain can read occupancy and hit counts directly. *)
let engine_cache_info engine () =
  let module Engine = Stt_core.Engine in
  match Engine.cache_stats engine with
  | None -> Frame.no_cache
  | Some (s : Stt_cache.Cache.stats) ->
      {
        Frame.cache_budget = s.budget;
        cache_used = s.used;
        cache_entries = s.entries;
        cache_hits = s.hits;
        cache_misses = s.misses;
      }

type stats = Core.stats = {
  connections : int;
  received : int;
  answered : int;
  updated : int;
  rejected_overload : int;
  rejected_deadline : int;
  bad_requests : int;
}

(* ------------------------------------------------------------------ *)
(* writer-priority readers/writer lock: answers share the engine, an    *)
(* update gets it exclusively, and a waiting update blocks new answers  *)
(* so a steady answer stream cannot starve it                           *)
(* ------------------------------------------------------------------ *)

module Rw = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;
    mutable waiting_writers : int;
  }

  let create () =
    { m = Mutex.create (); c = Condition.create (); readers = 0;
      writer = false; waiting_writers = 0 }

  let read t f =
    Mutex.protect t.m (fun () ->
        while t.writer || t.waiting_writers > 0 do
          Condition.wait t.c t.m
        done;
        t.readers <- t.readers + 1);
    Fun.protect f ~finally:(fun () ->
        Mutex.protect t.m (fun () ->
            t.readers <- t.readers - 1;
            if t.readers = 0 then Condition.broadcast t.c))

  let write t f =
    Mutex.protect t.m (fun () ->
        t.waiting_writers <- t.waiting_writers + 1;
        while t.writer || t.readers > 0 do
          Condition.wait t.c t.m
        done;
        t.waiting_writers <- t.waiting_writers - 1;
        t.writer <- true);
    Fun.protect f ~finally:(fun () ->
        Mutex.protect t.m (fun () ->
            t.writer <- false;
            Condition.broadcast t.c))
end

type t = Core.t

(* ------------------------------------------------------------------ *)
(* worker jobs                                                          *)
(* ------------------------------------------------------------------ *)

let serve_answer core ~rw ~handler ~jconn ~jid ~jarity ~jtuples ~jdeadline =
  let started = Mono.now_s () in
  if started > jdeadline then begin
    Core.note_deadline core;
    Core.reply core jconn
      (Frame.Rejected { id = jid; reject = Frame.Deadline_exceeded })
  end
  else begin
    (* each job runs under its own context so worker traces never race;
       the finished context is adopted into the server's under a lock *)
    let jctx = Obs.create_context () in
    let result =
      Obs.with_context jctx (fun () ->
          Obs.span "net.request"
            ~attrs:
              [
                ("id", Json.Int jid);
                ("tuples", Json.Int (List.length jtuples));
              ]
            (fun () ->
              try
                Rw.read rw (fun () ->
                    Ok
                      (Obs.with_alloc "net.answer.alloc_bytes" (fun () ->
                           handler ~arity:jarity jtuples)))
              with
              | Failure msg -> Error msg
              | e -> Error (Printexc.to_string e)))
    in
    let finished = Mono.now_s () in
    (match result with
    | Error msg ->
        Core.note_bad core;
        Core.reply core jconn
          (Frame.Rejected { id = jid; reject = Frame.Bad_request msg })
    | Ok _ when finished > jdeadline ->
        Core.note_deadline core;
        Core.reply core jconn
          (Frame.Rejected { id = jid; reject = Frame.Deadline_exceeded })
    | Ok answers ->
        Core.note_answered core;
        let answers =
          List.map
            (fun (rows, row_arity, cost) -> { Frame.rows; row_arity; cost })
            answers
        in
        Core.reply core jconn (Frame.Answers { id = jid; answers }));
    Core.with_obs core (fun () ->
        Obs.adopt jctx;
        Obs.incr "net.requests";
        Obs.observe "net.serve_us" ((finished -. started) *. 1e6))
  end

let serve_agg core ~rw ~agg_handler ~jconn ~jid ~jkind ~jarity ~jtuples
    ~jdeadline =
  let started = Mono.now_s () in
  if started > jdeadline then begin
    Core.note_deadline core;
    Core.reply core jconn
      (Frame.Rejected { id = jid; reject = Frame.Deadline_exceeded })
  end
  else begin
    let jctx = Obs.create_context () in
    let result =
      Obs.with_context jctx (fun () ->
          Obs.span "net.agg"
            ~attrs:
              [
                ("id", Json.Int jid);
                ("kind", Json.Int jkind);
                ("tuples", Json.Int (List.length jtuples));
              ]
            (fun () ->
              match agg_handler with
              | None -> Error "this server does not serve aggregates"
              | Some ah -> (
                  try
                    Rw.read rw (fun () ->
                        Ok (ah ~kind:jkind ~arity:jarity jtuples))
                  with
                  | Failure msg -> Error msg
                  | e -> Error (Printexc.to_string e))))
    in
    let finished = Mono.now_s () in
    (match result with
    | Error msg ->
        Core.note_bad core;
        Core.reply core jconn
          (Frame.Rejected { id = jid; reject = Frame.Bad_request msg })
    | Ok _ when finished > jdeadline ->
        Core.note_deadline core;
        Core.reply core jconn
          (Frame.Rejected { id = jid; reject = Frame.Deadline_exceeded })
    | Ok (value, cost) ->
        Core.note_answered core;
        Core.reply core jconn (Frame.Agg_reply { id = jid; value; cost }));
    Core.with_obs core (fun () ->
        Obs.adopt jctx;
        Obs.incr "net.aggs";
        Obs.observe "net.agg_us" ((finished -. started) *. 1e6))
  end

let serve_update core ~rw ~update_handler ~jconn ~jid ~jdeltas =
  let started = Mono.now_s () in
  let jctx = Obs.create_context () in
  let result =
    Obs.with_context jctx (fun () ->
        Obs.span "net.update"
          ~attrs:
            [
              ("id", Json.Int jid);
              ("deltas", Json.Int (List.length jdeltas));
            ]
          (fun () ->
            match update_handler with
            | None -> Error "this server does not accept updates"
            | Some uh -> (
                try Rw.write rw (fun () -> uh jdeltas) with
                | Failure msg -> Error msg
                | e -> Error (Printexc.to_string e))))
  in
  let finished = Mono.now_s () in
  (match result with
  | Error msg ->
      Core.note_bad core;
      Core.reply core jconn
        (Frame.Rejected { id = jid; reject = Frame.Bad_request msg })
  | Ok (epoch, applied, cost) ->
      Core.note_updated core;
      Core.reply core jconn
        (Frame.Updated { id = jid; epoch; applied; cost }));
  Core.with_obs core (fun () ->
      Obs.adopt jctx;
      Obs.incr "net.updates";
      Obs.observe "net.update_us" ((finished -. started) *. 1e6))

(* ------------------------------------------------------------------ *)
(* the role callback (runs on the IO domain)                            *)
(* ------------------------------------------------------------------ *)

let handle_request ~rw ~handler ~update_handler ~agg_handler ~space ~agg_space
    ~cache_info core conn ~now req =
  match req with
  | Frame.Answer { id; deadline_us; arity; tuples } ->
      Core.note_received core;
      let jdeadline =
        if deadline_us = 0 then infinity
        else now +. (float_of_int deadline_us /. 1e6)
      in
      let job () =
        serve_answer core ~rw ~handler ~jconn:conn ~jid:id ~jarity:arity
          ~jtuples:tuples ~jdeadline
      in
      if not (Core.enqueue core job) then begin
        Core.note_overload core;
        Core.reply core conn (Frame.Rejected { id; reject = Frame.Overloaded })
      end
  | Frame.Agg { id; deadline_us; kind; arity; tuples } ->
      Core.note_received core;
      let jdeadline =
        if deadline_us = 0 then infinity
        else now +. (float_of_int deadline_us /. 1e6)
      in
      let job () =
        serve_agg core ~rw ~agg_handler ~jconn:conn ~jid:id ~jkind:kind
          ~jarity:arity ~jtuples:tuples ~jdeadline
      in
      if not (Core.enqueue core job) then begin
        Core.note_overload core;
        Core.reply core conn (Frame.Rejected { id; reject = Frame.Overloaded })
      end
  | Frame.Update { id; deltas } ->
      Core.note_received core;
      let job () =
        serve_update core ~rw ~update_handler ~jconn:conn ~jid:id
          ~jdeltas:deltas
      in
      if not (Core.enqueue core job) then begin
        Core.note_overload core;
        Core.reply core conn (Frame.Rejected { id; reject = Frame.Overloaded })
      end
  | Frame.Stats { id } ->
      Core.reply core conn
        (Frame.Stats_reply { id; json = Core.trace_json core })
  | Frame.Health { id } ->
      Core.reply core conn
        (Frame.Health_reply
           {
             id;
             health =
               {
                 Frame.ready = true;
                 space;
                 agg_space = agg_space ();
                 workers = Core.workers core;
                 queue_capacity = Core.queue_capacity core;
                 queue_depth = Core.queue_depth core;
                 uptime_ns = Core.uptime_ns core;
                 cache = cache_info ();
                 io_backend = Core.io_backend core;
                 shards = [];
               };
           })

(* ------------------------------------------------------------------ *)
(* lifecycle (delegated)                                                *)
(* ------------------------------------------------------------------ *)

let start ?host ~port ~workers ~queue_capacity ?(space = 0)
    ?(agg_space = fun () -> 0) ?(cache_info = fun () -> Frame.no_cache)
    ?update_handler ?agg_handler ?io_backend handler =
  let rw = Rw.create () in
  Core.start ?host ~port ~workers ~queue_capacity ?io_backend
    (handle_request ~rw ~handler ~update_handler ~agg_handler ~space
       ~agg_space ~cache_info)

let port = Core.port
let io_backend = Core.io_backend
let stop = Core.stop
let stopping = Core.stopping
let wait = Core.wait
let stats = Core.stats
let trace_json = Core.trace_json
