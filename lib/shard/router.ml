module Obs = Stt_obs.Obs
module Json = Stt_obs.Json
module Frame = Stt_net.Frame
module Client = Stt_net.Client
module Core = Stt_net.Core

(* The router role: speaks the same frame protocol to clients as a
   replica, but answers by scattering each batch across the shard ring
   and gathering the per-tuple answers back into request order.

   Placement: every access tuple is keyed by its canonical bytes
   (Stt_cache.Key.of_tuple) and owned by Ring.owner of that key — the
   same equivalence that dedups batches and keys caches, so a permuted
   but equal request lands on the same shard and the same warm cache
   entry.  Replicas are full snapshots (the partition buys cache
   locality and parallelism, not capacity splitting), which is what
   makes failover sound: any shard can answer any tuple, so when a
   shard drains mid-batch the router re-routes its tuples to the next
   distinct owner on the ring and no answer is lost or duplicated —
   answering is read-only, hence idempotent under retry.

   Gather preserves per-request accounting: each tuple's answer carries
   the op-count snapshot its shard measured; the router forwards the
   slices verbatim, only reassembling order. *)

type endpoint = { name : string; host : string; port : int }

(* per-shard connection pool; a worker leases a connection for one rpc
   (connections are single-in-flight), broken ones are closed instead of
   returned *)
type upstream = {
  ep : endpoint;
  um : Mutex.t;
  mutable free : Client.t list;
  mutable last_uptime_ns : int; (* -1 = never seen *)
}

type t = {
  core : Core.t;
  ring_m : Mutex.t;
  mutable ring : Ring.t;
  ups_m : Mutex.t;
  upstreams : (string, upstream) Hashtbl.t;
  restarts : int Atomic.t;
  shard_errors : int Atomic.t;
  retried_tuples : int Atomic.t;
}

let ring t = Mutex.protect t.ring_m (fun () -> t.ring)
let shards t = Ring.shards (ring t)
let restarts t = Atomic.get t.restarts

let upstream_of t name =
  Mutex.protect t.ups_m (fun () -> Hashtbl.find_opt t.upstreams name)

(* [`Pooled] connections may be stale — the shard can have restarted
   behind an idle pool — so callers treat their failures as retryable;
   only a [`Fresh] dial's failure condemns the shard *)
let acquire_conn' t name =
  match upstream_of t name with
  | None -> Error (Frame.Io_error (Printf.sprintf "unknown shard %S" name))
  | Some up -> (
      let pooled =
        Mutex.protect up.um (fun () ->
            match up.free with
            | c :: rest ->
                up.free <- rest;
                Some c
            | [] -> None)
      in
      match pooled with
      | Some c -> Ok (c, `Pooled)
      | None ->
          Result.map
            (fun c -> (c, `Fresh))
            (Client.connect ~host:up.ep.host ~port:up.ep.port ()))

let acquire_conn t name = Result.map fst (acquire_conn' t name)

let release_conn t name c =
  match upstream_of t name with
  | None -> Client.close c
  | Some up -> Mutex.protect up.um (fun () -> up.free <- c :: up.free)

let close_pool up =
  let conns = Mutex.protect up.um (fun () ->
      let cs = up.free in
      up.free <- [];
      cs)
  in
  List.iter Client.close conns

(* ------------------------------------------------------------------ *)
(* scatter/gather                                                       *)
(* ------------------------------------------------------------------ *)

(* group (index, tuple) pairs by owning shard, preserving first-seen
   shard order; [excluded] shards (failed this batch) are skipped in the
   preference walk *)
let group_items ring ~arity ~excluded items =
  let nshards = List.length (Ring.shards ring) in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let orphans = ref 0 in
  List.iter
    (fun ((_, tup) as item) ->
      let key = Stt_cache.Key.of_tuple ~arity tup in
      let owner =
        Ring.owners ring ~n:nshards key
        |> List.find_opt (fun s -> not (List.mem s excluded))
      in
      match owner with
      | None -> incr orphans
      | Some shard -> (
          match Hashtbl.find_opt tbl shard with
          | Some l -> l := item :: !l
          | None ->
              Hashtbl.add tbl shard (ref [ item ]);
              order := shard :: !order))
    items;
  let groups =
    List.rev_map (fun s -> (s, List.rev !(Hashtbl.find tbl s))) !order
  in
  (groups, !orphans)

(* one scatter round: send every group's sub-batch before receiving any
   reply, so the shards answer in parallel even though this worker is a
   single domain.  Returns completed groups (answers or a rejection) and
   failed ones (transport error — candidates for re-routing). *)
let forward_round t ~id ~deadline_us ~arity groups =
  let sent = ref [] and failed = ref [] in
  List.iter
    (fun (shard, items) ->
      match acquire_conn t shard with
      | Error e -> failed := (shard, items, e) :: !failed
      | Ok c -> (
          let req =
            Frame.Answer
              { id; deadline_us; arity; tuples = List.map snd items }
          in
          match Client.send c req with
          | Ok () -> sent := (shard, items, c) :: !sent
          | Error e ->
              Client.close c;
              failed := (shard, items, e) :: !failed))
    groups;
  let completed = ref [] in
  List.iter
    (fun (shard, items, c) ->
      match Client.recv c with
      | Ok (Frame.Answers { answers; _ })
        when List.length answers = List.length items ->
          release_conn t shard c;
          completed := (shard, items, `Answers answers) :: !completed
      | Ok (Frame.Rejected { reject; _ }) ->
          release_conn t shard c;
          completed := (shard, items, `Rejected reject) :: !completed
      | Ok _ ->
          Client.close c;
          failed :=
            (shard, items, Frame.Malformed "unexpected shard response")
            :: !failed
      | Error e ->
          Client.close c;
          failed := (shard, items, e) :: !failed)
    (List.rev !sent);
  (List.rev !completed, List.rev !failed)

(* scatter [tuples], re-routing transport failures to the next distinct
   owner until answers are complete, a shard rejects, or every shard has
   failed.  A shard rejection (overload/deadline) rejects the whole
   client batch — per-tuple partial answers would corrupt the zero-loss
   accounting contract. *)
let scatter_gather t ~id ~deadline_us ~arity tuples =
  let n = List.length tuples in
  let results = Array.make n None in
  let items = List.mapi (fun i tup -> (i, tup)) tuples in
  let rec rounds ~excluded ~round items =
    let rg = ring t in
    if Ring.is_empty rg then `Error "shard ring is empty"
    else begin
      let groups, orphans = group_items rg ~arity ~excluded items in
      if orphans > 0 then
        `Error
          (Printf.sprintf "no reachable shard for %d tuples (%d shards failed)"
             orphans (List.length excluded))
      else begin
        let completed, failed =
          forward_round t ~id ~deadline_us ~arity groups
        in
        let rejection = ref None in
        List.iter
          (fun (_, items, outcome) ->
            match outcome with
            | `Answers answers ->
                List.iter2
                  (fun (i, _) ans -> results.(i) <- Some ans)
                  items answers
            | `Rejected reject ->
                if !rejection = None then rejection := Some reject)
          completed;
        match !rejection with
        | Some reject -> `Rejected reject
        | None ->
            if failed = [] then `Done
            else begin
              let failed_shards =
                List.sort_uniq String.compare
                  (List.map (fun (s, _, _) -> s) failed)
              in
              let retry_items =
                List.concat_map (fun (_, items, _) -> items) failed
              in
              Atomic.fetch_and_add t.shard_errors (List.length failed_shards)
              |> ignore;
              Atomic.fetch_and_add t.retried_tuples (List.length retry_items)
              |> ignore;
              if round > List.length (Ring.shards rg) then
                `Error "shard retry limit exceeded"
              else
                rounds
                  ~excluded:(failed_shards @ excluded)
                  ~round:(round + 1) retry_items
            end
      end
    end
  in
  match rounds ~excluded:[] ~round:0 items with
  | `Error msg -> `Error msg
  | `Rejected r -> `Rejected r
  | `Done -> (
      (* every index filled exactly once: each tuple lives in exactly one
         group per round, and failed groups never produced answers *)
      match Array.to_list results |> List.map Option.get with
      | answers -> `Answers answers
      | exception Invalid_argument _ -> `Error "gather left a hole")

(* ------------------------------------------------------------------ *)
(* aggregate scatter/gather                                             *)
(* ------------------------------------------------------------------ *)

module Semiring = Stt_semiring.Semiring

(* One aggregate round: per-shard partial Agg requests (each shard folds
   its owned tuples to a scalar), sent before any receive.  Mirrors
   [forward_round]. *)
let agg_round t ~id ~deadline_us ~kind ~arity groups =
  let sent = ref [] and failed = ref [] in
  List.iter
    (fun (shard, items) ->
      match acquire_conn t shard with
      | Error e -> failed := (shard, items, e) :: !failed
      | Ok c -> (
          let req =
            Frame.Agg
              { id; deadline_us; kind; arity; tuples = List.map snd items }
          in
          match Client.send c req with
          | Ok () -> sent := (shard, items, c) :: !sent
          | Error e ->
              Client.close c;
              failed := (shard, items, e) :: !failed))
    groups;
  let completed = ref [] in
  List.iter
    (fun (shard, items, c) ->
      match Client.recv c with
      | Ok (Frame.Agg_reply { value; cost; _ }) ->
          release_conn t shard c;
          completed := (shard, items, `Partial (value, cost)) :: !completed
      | Ok (Frame.Rejected { reject; _ }) ->
          release_conn t shard c;
          completed := (shard, items, `Rejected reject) :: !completed
      | Ok _ ->
          Client.close c;
          failed :=
            (shard, items, Frame.Malformed "unexpected shard response")
            :: !failed
      | Error e ->
          Client.close c;
          failed := (shard, items, e) :: !failed)
    (List.rev !sent);
  (List.rev !completed, List.rev !failed)

(* Scatter one multi-tuple aggregate request and ⊕-merge the per-shard
   partial scalars with the semiring's combine operator (costs sum).
   Soundness of the merge: the request's tuple set is partitioned across
   shards, every shard holds a full snapshot, and the aggregate is a
   semiring sum over derivations grouped by access tuple — so partials
   over disjoint tuple sets combine exactly.  On a transport failure
   only the {e failed} groups' tuples are re-routed to the next distinct
   owner; completed partials are already merged and are never re-sent,
   so no derivation is double-counted under failover. *)
let scatter_gather_agg t ~id ~deadline_us ~kind ~arity tuples =
  match Semiring.of_tag kind with
  | None -> `Error (Printf.sprintf "unknown aggregate kind %d" kind)
  | Some k ->
      let acc_value = ref (Semiring.zero k) in
      let acc_cost = ref Stt_relation.Cost.zero in
      let items = List.mapi (fun i tup -> (i, tup)) tuples in
      let rec rounds ~excluded ~round items =
        if items = [] then `Done
        else
          let rg = ring t in
          if Ring.is_empty rg then `Error "shard ring is empty"
          else begin
            let groups, orphans = group_items rg ~arity ~excluded items in
            if orphans > 0 then
              `Error
                (Printf.sprintf
                   "no reachable shard for %d tuples (%d shards failed)"
                   orphans (List.length excluded))
            else begin
              let completed, failed =
                agg_round t ~id ~deadline_us ~kind ~arity groups
              in
              let rejection = ref None in
              List.iter
                (fun (_, _, outcome) ->
                  match outcome with
                  | `Partial (value, cost) ->
                      acc_value := Semiring.add k !acc_value value;
                      acc_cost := Stt_relation.Cost.add !acc_cost cost
                  | `Rejected reject ->
                      if !rejection = None then rejection := Some reject)
                completed;
              match !rejection with
              | Some reject -> `Rejected reject
              | None ->
                  if failed = [] then `Done
                  else begin
                    let failed_shards =
                      List.sort_uniq String.compare
                        (List.map (fun (s, _, _) -> s) failed)
                    in
                    let retry_items =
                      List.concat_map (fun (_, items, _) -> items) failed
                    in
                    Atomic.fetch_and_add t.shard_errors
                      (List.length failed_shards)
                    |> ignore;
                    Atomic.fetch_and_add t.retried_tuples
                      (List.length retry_items)
                    |> ignore;
                    if round > List.length (Ring.shards rg) then
                      `Error "shard retry limit exceeded"
                    else
                      rounds
                        ~excluded:(failed_shards @ excluded)
                        ~round:(round + 1) retry_items
                  end
            end
          end
      in
      (match rounds ~excluded:[] ~round:0 items with
      | `Error _ as e -> e
      | `Rejected _ as r -> r
      | `Done -> `Value (!acc_value, !acc_cost))

(* ------------------------------------------------------------------ *)
(* worker jobs                                                          *)
(* ------------------------------------------------------------------ *)

let serve_answer t ~conn ~id ~deadline_us ~arity ~tuples ~jdeadline =
  let started = Stt_net.Mono.now_s () in
  if started > jdeadline then begin
    Core.note_deadline t.core;
    Core.reply t.core conn
      (Frame.Rejected { id; reject = Frame.Deadline_exceeded })
  end
  else begin
    let jctx = Obs.create_context () in
    let remaining_us =
      if deadline_us = 0 then 0
      else max 1 (int_of_float ((jdeadline -. started) *. 1e6))
    in
    let outcome =
      Obs.with_context jctx (fun () ->
          Obs.span "route.request"
            ~attrs:
              [
                ("id", Json.Int id);
                ("tuples", Json.Int (List.length tuples));
              ]
            (fun () ->
              try
                scatter_gather t ~id ~deadline_us:remaining_us ~arity tuples
              with e -> `Error (Printexc.to_string e)))
    in
    let finished = Stt_net.Mono.now_s () in
    (match outcome with
    | `Answers answers ->
        Core.note_answered t.core;
        Core.reply t.core conn (Frame.Answers { id; answers })
    | `Rejected (Frame.Overloaded as reject) ->
        Core.note_overload t.core;
        Core.reply t.core conn (Frame.Rejected { id; reject })
    | `Rejected (Frame.Deadline_exceeded as reject) ->
        Core.note_deadline t.core;
        Core.reply t.core conn (Frame.Rejected { id; reject })
    | `Rejected (Frame.Bad_request _ as reject) ->
        Core.note_bad t.core;
        Core.reply t.core conn (Frame.Rejected { id; reject })
    | `Error msg ->
        Core.note_bad t.core;
        Core.reply t.core conn
          (Frame.Rejected { id; reject = Frame.Bad_request msg }));
    Core.with_obs t.core (fun () ->
        Obs.adopt jctx;
        Obs.incr "route.requests";
        Obs.observe "route.serve_us" ((finished -. started) *. 1e6))
  end

let serve_agg t ~conn ~id ~deadline_us ~kind ~arity ~tuples ~jdeadline =
  let started = Stt_net.Mono.now_s () in
  if started > jdeadline then begin
    Core.note_deadline t.core;
    Core.reply t.core conn
      (Frame.Rejected { id; reject = Frame.Deadline_exceeded })
  end
  else begin
    let jctx = Obs.create_context () in
    let remaining_us =
      if deadline_us = 0 then 0
      else max 1 (int_of_float ((jdeadline -. started) *. 1e6))
    in
    let outcome =
      Obs.with_context jctx (fun () ->
          Obs.span "route.agg"
            ~attrs:
              [
                ("id", Json.Int id);
                ("kind", Json.Int kind);
                ("tuples", Json.Int (List.length tuples));
              ]
            (fun () ->
              try
                scatter_gather_agg t ~id ~deadline_us:remaining_us ~kind
                  ~arity tuples
              with e -> `Error (Printexc.to_string e)))
    in
    let finished = Stt_net.Mono.now_s () in
    (match outcome with
    | `Value (value, cost) ->
        Core.note_answered t.core;
        Core.reply t.core conn (Frame.Agg_reply { id; value; cost })
    | `Rejected (Frame.Overloaded as reject) ->
        Core.note_overload t.core;
        Core.reply t.core conn (Frame.Rejected { id; reject })
    | `Rejected (Frame.Deadline_exceeded as reject) ->
        Core.note_deadline t.core;
        Core.reply t.core conn (Frame.Rejected { id; reject })
    | `Rejected (Frame.Bad_request _ as reject) ->
        Core.note_bad t.core;
        Core.reply t.core conn (Frame.Rejected { id; reject })
    | `Error msg ->
        Core.note_bad t.core;
        Core.reply t.core conn
          (Frame.Rejected { id; reject = Frame.Bad_request msg }));
    Core.with_obs t.core (fun () ->
        Obs.adopt jctx;
        Obs.incr "route.aggs";
        Obs.observe "route.agg_us" ((finished -. started) *. 1e6))
  end

(* ------------------------------------------------------------------ *)
(* fleet health                                                         *)
(* ------------------------------------------------------------------ *)

let unreachable_health =
  {
    Frame.ready = false;
    space = 0;
    agg_space = 0;
    workers = 0;
    queue_capacity = 0;
    queue_depth = 0;
    uptime_ns = 0;
    cache = Frame.no_cache;
    io_backend = "unreachable";
    shards = [];
  }

(* A pooled connection can be stale — the shard may have restarted (on
   the same port) since it was leased out — so a failure on one is not
   evidence the shard is down.  Keep closing dead pooled conns and
   re-acquiring; the pool is finite, so this terminates at a fresh dial,
   whose verdict is authoritative. *)
let rec poll_shard_health t name =
  match acquire_conn' t name with
  | Error _ -> unreachable_health
  | Ok (c, provenance) -> (
      match Client.rpc c (Frame.Health { id = 0 }) with
      | Ok (Frame.Health_reply { health; _ }) -> (
          release_conn t name c;
          (* staleness check: a monotonic uptime that went backwards
             means this is a different process than last poll — its
             history (cache hit counts, etc.) does not continue ours *)
          match upstream_of t name with
          | None -> health
          | Some up ->
              if up.last_uptime_ns >= 0 && health.uptime_ns < up.last_uptime_ns
              then begin
                Atomic.incr t.restarts;
                Core.with_obs t.core (fun () -> Obs.incr "route.shard_restarts")
              end;
              up.last_uptime_ns <- health.Frame.uptime_ns;
              health)
      | Ok _ | Error _ -> (
          Client.close c;
          match provenance with
          | `Pooled -> poll_shard_health t name
          | `Fresh -> unreachable_health))

let fleet_health t =
  let names = shards t in
  let blocks = List.map (fun name -> (name, poll_shard_health t name)) names in
  let sum f = List.fold_left (fun acc (_, h) -> acc + f h) 0 blocks in
  let sum_cache f =
    List.fold_left (fun acc (_, h) -> acc + f h.Frame.cache) 0 blocks
  in
  {
    Frame.ready =
      blocks <> [] && List.for_all (fun (_, h) -> h.Frame.ready) blocks;
    space = sum (fun h -> h.Frame.space);
    agg_space = sum (fun h -> h.Frame.agg_space);
    workers = sum (fun h -> h.Frame.workers);
    queue_capacity = sum (fun h -> h.Frame.queue_capacity);
    queue_depth = sum (fun h -> h.Frame.queue_depth);
    uptime_ns = Core.uptime_ns t.core;
    cache =
      {
        Frame.cache_budget = sum_cache (fun c -> c.Frame.cache_budget);
        cache_used = sum_cache (fun c -> c.Frame.cache_used);
        cache_entries = sum_cache (fun c -> c.Frame.cache_entries);
        cache_hits = sum_cache (fun c -> c.Frame.cache_hits);
        cache_misses = sum_cache (fun c -> c.Frame.cache_misses);
      };
    io_backend = Core.io_backend t.core;
    shards = blocks;
  }

(* ------------------------------------------------------------------ *)
(* the role callback (runs on the IO domain — never blocks on shards)   *)
(* ------------------------------------------------------------------ *)

let handle_request t core conn ~now req =
  match req with
  | Frame.Answer { id; deadline_us; arity; tuples } ->
      Core.note_received core;
      let jdeadline =
        if deadline_us = 0 then infinity
        else now +. (float_of_int deadline_us /. 1e6)
      in
      let job () =
        serve_answer t ~conn ~id ~deadline_us ~arity ~tuples ~jdeadline
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
        serve_agg t ~conn ~id ~deadline_us ~kind ~arity ~tuples ~jdeadline
      in
      if not (Core.enqueue core job) then begin
        Core.note_overload core;
        Core.reply core conn (Frame.Rejected { id; reject = Frame.Overloaded })
      end
  | Frame.Update { id; _ } ->
      (* replicas serve static snapshot loads; there is no coherent way
         to apply a delta fleet-wide through this tier yet *)
      Core.note_received core;
      Core.note_bad core;
      Core.reply core conn
        (Frame.Rejected
           {
             id;
             reject = Frame.Bad_request "router does not accept updates";
           })
  | Frame.Stats { id } ->
      Core.reply core conn
        (Frame.Stats_reply { id; json = Core.trace_json core })
  | Frame.Health { id } ->
      (* polling every shard is blocking work — a worker job, not an
         IO-domain errand *)
      let job () =
        Core.reply core conn
          (Frame.Health_reply { id; health = fleet_health t })
      in
      if not (Core.enqueue core job) then
        Core.reply core conn
          (Frame.Health_reply
             {
               id;
               health =
                 {
                   unreachable_health with
                   Frame.io_backend = Core.io_backend core;
                   uptime_ns = Core.uptime_ns core;
                 };
             })

(* ------------------------------------------------------------------ *)
(* lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start ?host ~port ~workers ~queue_capacity ?io_backend ?(vnodes = 128)
    endpoints =
  if endpoints = [] then invalid_arg "Router.start: no shard endpoints";
  let names = List.map (fun ep -> ep.name) endpoints in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Router.start: duplicate shard names";
  let upstreams = Hashtbl.create 8 in
  List.iter
    (fun ep ->
      Hashtbl.replace upstreams ep.name
        { ep; um = Mutex.create (); free = []; last_uptime_ns = -1 })
    endpoints;
  (* the role state needs the core and the core's callback needs the
     role state; the knot is tied through an atomic box.  A request can
     only race the [set] below if a client guesses the ephemeral port
     before [start] returns — shed it like an overload if so. *)
  let t_box = Atomic.make None in
  let core =
    Core.start ?host ~port ~workers ~queue_capacity ?io_backend
      (fun core conn ~now req ->
        match Atomic.get t_box with
        | Some t -> handle_request t core conn ~now req
        | None -> (
            ignore now;
            match req with
            | Frame.Answer { id; _ }
            | Frame.Agg { id; _ }
            | Frame.Update { id; _ }
            | Frame.Stats { id }
            | Frame.Health { id } ->
                Core.reply core conn
                  (Frame.Rejected { id; reject = Frame.Overloaded })))
  in
  let t =
    {
      core;
      ring_m = Mutex.create ();
      ring = Ring.create ~vnodes names;
      ups_m = Mutex.create ();
      upstreams;
      restarts = Atomic.make 0;
      shard_errors = Atomic.make 0;
      retried_tuples = Atomic.make 0;
    }
  in
  Atomic.set t_box (Some t);
  t

let add_shard t ep =
  Mutex.protect t.ups_m (fun () ->
      match Hashtbl.find_opt t.upstreams ep.name with
      | Some up when up.ep = ep -> ()
      | Some up ->
          close_pool up;
          Hashtbl.replace t.upstreams ep.name
            { ep; um = Mutex.create (); free = []; last_uptime_ns = -1 }
      | None ->
          Hashtbl.replace t.upstreams ep.name
            { ep; um = Mutex.create (); free = []; last_uptime_ns = -1 });
  Mutex.protect t.ring_m (fun () -> t.ring <- Ring.add t.ring ep.name)

(* Remove the shard from the ring so no new tuple routes to it, then
   close its pooled connections.  Requests already in flight against it
   either complete (the shard's own SIGTERM drain answers queued jobs)
   or fail and re-route — the zero-loss drain test drives exactly this
   window. *)
let drain_shard t name =
  Mutex.protect t.ring_m (fun () -> t.ring <- Ring.remove t.ring name);
  match upstream_of t name with None -> () | Some up -> close_pool up

let shard_errors t = Atomic.get t.shard_errors
let retried_tuples t = Atomic.get t.retried_tuples
let port t = Core.port t.core
let io_backend t = Core.io_backend t.core
let stop t = Core.stop t.core
let stopping t = Core.stopping t.core
let stats t = Core.stats t.core
let trace_json t = Core.trace_json t.core

let wait t =
  let s = Core.wait t.core in
  Mutex.protect t.ups_m (fun () ->
      Hashtbl.iter (fun _ up -> close_pool up) t.upstreams);
  s
