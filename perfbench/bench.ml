(* Served-workload benchmark.

   One run builds a workload's index, serves it through an in-process
   [Stt_net.Server] on an ephemeral loopback port, and drives it with
   closed-loop [Stt_net.Client] connections — each caller waits for its
   reply before sending the next request.  Every reply is checked
   against a naive oracle after the timed phase.  With [--trace 1] the
   run also replays the build and answer pipelines layer by layer under
   [Stt_obs] and reports the per-layer metrics instead.  The last line
   of standard output is the JSON result; see README.md for the
   metrics and what each layer metric should move. *)

open Stt_relation
open Stt_hypergraph
open Stt_decomp
open Stt_core
open Stt_workload
open Stt_net
module Obs = Stt_obs.Obs
module Json = Stt_obs.Json
module Semiring = Stt_semiring.Semiring
module Oy = Stt_yannakakis.Online_yannakakis
module Stats = Perfbench.Stats
module Oracle = Perfbench.Oracle

let now_ns = Mono.now_ns
let seconds_of ns = float_of_int ns /. 1e9
let ms_of ns = float_of_int ns /. 1e6

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_of (now_ns () - t0))

(* ------------------------------------------------------------------ *)
(* arguments                                                            *)
(* ------------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* workloads                                                            *)
(* ------------------------------------------------------------------ *)

type op =
  | Answer of int array
  | Count of int array
  | Insert of int * int
  | Delete of int * int

type oracle =
  | Keyed of (op -> int -> bool)
      (** read-only: each reply's value judged on its own *)
  | Stream of (int * int) list
      (** churn: replies checked in stream order from this edge set *)

type workload = {
  name : string;
  query : Cq.cqap;
  db : Db.t;
  budget : int;
  agg_budget : int;  (** COUNT table entries; 0 = no aggregates *)
  cache_budget : int;  (** answer-cache stored tuples; 0 = no cache *)
  connections : int;
  stream : int -> int -> op option;  (** connection -> index -> op *)
  oracle : oracle;
}

let edges = 2500
let budget = 500

(* Each workload serves one fixed dataset, and the run's seed draws the
   traffic: a graph drawn per seed moves every figure by more than any
   change worth measuring (see README.md). *)
let dataset_seed = 1

(* one connection per core, at most two: server workers and build jobs
   follow the same cap, so the client never outnumbers the server *)
let par = min 2 (Domain.recommended_domain_count ())

let cycle keys i = Some keys.(i mod Array.length keys)

let reach3_graph () =
  let vertices = Scenario.vertices_for_edges edges in
  let graph = Graphs.zipf_both ~seed:dataset_seed ~vertices ~edges ~s:1.1 in
  let db = Db.create () in
  Db.add_pairs db Scenario.edge_relation graph;
  (vertices, graph, db)

let reach3_serve seed =
  let vertices, graph, db = reach3_graph () in
  let keys =
    Array.init par (fun c ->
        Array.of_list
          (Scenario.zipf_requests
             ~seed:((seed * 7919) + c + 1)
             ~n:vertices ~requests:50_000 ~skew:1.5 ~arity:2))
  in
  {
    name = "reach3-serve";
    query = Cq.Library.k_path 3;
    db;
    budget;
    agg_budget = 10_000;
    cache_budget = 0;
    connections = par;
    (* one COUNT frame per four Answer frames *)
    stream =
      (fun c i ->
        Option.map
          (fun k -> if i mod 5 = 4 then Count k else Answer k)
          (cycle keys.(c) i));
    oracle =
      (let o = Oracle.reach ~k:3 graph in
       Keyed
         (fun op v ->
           match op with
           | Answer k -> v = Bool.to_int (Oracle.reach_path o k)
           | Count k -> v = Oracle.reach_count o k
           | Insert _ | Delete _ -> false));
  }

let reach3_churn seed =
  let vertices, graph, db = reach3_graph () in
  let n_ops = 60_000 in
  (* the deltas of the scenario's churn stream over its graph; each query
     key is redrawn from the run's seed, with the stream's Zipf(1.1) *)
  let keys =
    Array.of_list
      (Scenario.zipf_requests ~seed:((seed * 7919) + 1) ~n:vertices
         ~requests:n_ops ~skew:1.1 ~arity:2)
  in
  let ops =
    Array.of_list
      (List.mapi
         (fun i -> function
           | Scenario.Insert (u, v) -> Insert (u, v)
           | Scenario.Delete (u, v) -> Delete (u, v)
           | Scenario.Query _ -> Answer keys.(i))
         (Scenario.churn_ops ~seed:dataset_seed ~vertices ~edges ~ops:n_ops
            ~arity:2))
  in
  {
    name = "reach3-churn";
    query = Cq.Library.k_path 3;
    db;
    budget;
    agg_budget = 0;
    cache_budget = 5000;
    (* one ordered connection: a delta must land before later queries *)
    connections = 1;
    stream = (fun _ i -> if i < Array.length ops then Some ops.(i) else None);
    oracle = Stream graph;
  }

let workloads =
  [
    ("reach3-serve", reach3_serve);
    ("reach3-churn", reach3_churn);
  ]

(* ------------------------------------------------------------------ *)
(* setup                                                                *)
(* ------------------------------------------------------------------ *)

(* What a build decided; two builds of the same code and inputs must
   agree on all of it. *)
type build_record = {
  space : int;
  pivots : int;  (** simplex pivots of the whole build *)
  stored : int list;  (** per rule *)
  delegated : int list;  (** per rule *)
}

type cold = {
  setup_s : float;  (** build_auto, plus enable_agg where used *)
  build_s : float;  (** build_auto alone *)
  record : build_record;
}

let setup w =
  Gc.full_major ();
  let pivots0 = Stt_lp.Simplex.pivot_count () in
  let t0 = now_ns () in
  let e = Engine.build_auto w.query ~db:w.db ~budget:w.budget in
  let t1 = now_ns () in
  if w.agg_budget > 0 then
    Engine.enable_agg ~kinds:[ Semiring.Count ] e ~db:w.db ~budget:w.agg_budget;
  let t2 = now_ns () in
  let structures = Engine.structures e in
  let record =
    {
      space = Engine.space e;
      pivots = Stt_lp.Simplex.pivot_count () - pivots0;
      stored = List.map Twopp.stored_subproblems structures;
      delegated = List.map Twopp.delegated_subproblems structures;
    }
  in
  (e, { setup_s = seconds_of (t2 - t0); build_s = seconds_of (t1 - t0); record })

(* cold builds per run; setup_s is their median *)
let cold_builds = 9

(* Only the last engine is kept, and it is the one served: each earlier
   one is garbage by the next build's full collection, so the process's
   high-water mark holds one engine plus what serving adds. *)
let cold_setups w =
  let rec go n colds =
    let e, c = setup w in
    if n = 1 then (e, List.rev (c :: colds)) else go (n - 1) (c :: colds)
  in
  go cold_builds []

let attach w e =
  if w.cache_budget > 0 then Engine.attach_cache e ~budget:w.cache_budget

(* ------------------------------------------------------------------ *)
(* serving                                                              *)
(* ------------------------------------------------------------------ *)

let request ~id = function
  | Answer k -> Frame.Answer { id; deadline_us = 0; arity = Array.length k; tuples = [ k ] }
  | Count k ->
      Frame.Agg
        {
          id;
          deadline_us = 0;
          kind = Semiring.to_tag Semiring.Count;
          arity = Array.length k;
          tuples = [ k ];
        }
  | Insert (u, v) | Delete (u, v) as op ->
      let uadd = match op with Insert _ -> true | _ -> false in
      Frame.Update
        {
          id;
          deltas = [ { Frame.urel = Scenario.edge_relation; utuple = [| u; v |]; uadd } ];
        }

(* The client-side check of a reply: its shape and id, and the figure
   the oracle will judge — for an answer whether it holds the request
   tuple, for a COUNT its value, for an update its epoch and whether it
   took effect ([2 * epoch + applied]). *)
let outcome ~id op resp =
  match (op, resp) with
  | Answer k, Ok (Frame.Answers { id = id'; answers = [ a ] }) when id' = id -> (
      match a.Frame.rows with
      | [] -> Ok (0, a.Frame.cost)
      | [ r ] when r = k -> Ok (1, a.Frame.cost)
      | _ -> Error "answer rows other than the request tuple")
  | Count _, Ok (Frame.Agg_reply { id = id'; value; cost }) when id' = id ->
      Ok (value, cost)
  | (Insert _ | Delete _), Ok (Frame.Updated { id = id'; epoch; applied; cost })
    when id' = id && (applied = 0 || applied = 1) ->
      Ok ((2 * epoch) + applied, cost)
  | _, Ok (Frame.Rejected { reject = Frame.Overloaded; _ }) -> Error "overloaded"
  | _, Ok (Frame.Rejected { reject = Frame.Deadline_exceeded; _ }) ->
      Error "deadline exceeded"
  | _, Ok (Frame.Rejected { reject = Frame.Bad_request m; _ }) ->
      Error ("bad request: " ^ m)
  | _, Ok _ -> Error "reply of the wrong kind or id"
  | _, Error e -> Error (Frame.error_to_string e)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Memory is read once a connection has served this many operations
   (warm-up included), or at the end of the window if it serves fewer.
   A churn stream grows the graph with every delta it applies, so the
   high-water mark at the end of a timed window would grow with the
   churn path's speed; after a fixed amount of work it does not. *)
let rss_ops = 1000

(* A connection's log: five ints per operation (index, start, latency,
   ok, value) in one growing array, so a run of a hundred thousand
   requests neither allocates per operation nor counts its own
   bookkeeping in peak_rss_mb.  Costs are summed as replies arrive. *)
let stride = 5

type log = {
  mutable cells : int array;
  mutable n : int;
  mutable errors : string list;  (** the first failure messages *)
  mutable answer_cost : Cost.snapshot;  (** over measured answers *)
  mutable answers_costed : int;
  mutable agg_ops : int;  (** over measured COUNT replies *)
  mutable aggs_costed : int;
  mutable first_delta_ops : int;  (** -1 until an update is applied *)
  mutable rss_mb : float option;  (** VmHWM after [rss_ops] operations *)
}

let new_log () =
  {
    cells = Array.make (stride * 4096) 0;
    n = 0;
    errors = [];
    answer_cost = Cost.zero;
    answers_costed = 0;
    agg_ops = 0;
    aggs_costed = 0;
    first_delta_ops = -1;
    rss_mb = None;
  }

let note log ~measured ~index ~start ~latency op out =
  if (log.n + 1) * stride > Array.length log.cells then begin
    let bigger = Array.make (2 * Array.length log.cells) 0 in
    Array.blit log.cells 0 bigger 0 (log.n * stride);
    log.cells <- bigger
  end;
  let base = log.n * stride in
  log.cells.(base) <- index;
  log.cells.(base + 1) <- start;
  log.cells.(base + 2) <- latency;
  log.n <- log.n + 1;
  match out with
  | Error m -> if List.length log.errors < 5 then log.errors <- m :: log.errors
  | Ok (value, cost) -> (
      log.cells.(base + 3) <- 1;
      log.cells.(base + 4) <- value;
      match op with
      | Answer _ when measured ->
          log.answer_cost <- Cost.add log.answer_cost cost;
          log.answers_costed <- log.answers_costed + 1
      | Count _ when measured ->
          log.agg_ops <- log.agg_ops + Cost.total cost;
          log.aggs_costed <- log.aggs_costed + 1
      | (Insert _ | Delete _) when log.first_delta_ops < 0 ->
          log.first_delta_ops <- Cost.total cost
      | _ -> ())

(* One closed-loop caller: send, wait for the reply, repeat until the
   measured window [lo, hi) closes or the stream ends.  A transport
   error ends the connection (its operation is logged as failed). *)
let drive ~port ~stream ~lo ~hi =
  let log = new_log () in
  (match Client.connect ~port () with
  | Error e ->
      note log ~measured:false ~index:0 ~start:(now_ns ()) ~latency:0 (Answer [||])
        (Error (Frame.error_to_string e))
  | Ok c ->
      let rec loop i =
        if now_ns () < hi then
          match stream i with
          | None -> ()
          | Some op -> (
              let start = now_ns () in
              let resp = Client.rpc c (request ~id:i op) in
              let latency = now_ns () - start in
              note log ~measured:(start >= lo) ~index:i ~start ~latency op
                (outcome ~id:i op resp);
              if i + 1 = rss_ops then log.rss_mb <- Some (peak_rss_mb ());
              match resp with Error _ -> () | Ok _ -> loop (i + 1))
      in
      loop 0;
      Client.close c);
  log

(* Handler time, accumulated over requests that start inside the
   measured window; safe to bump from every worker domain. *)
type timer = { sum_ns : int Atomic.t; count : int Atomic.t }

let timer () = { sum_ns = Atomic.make 0; count = Atomic.make 0 }

let timer_ms t =
  let n = Atomic.get t.count in
  if n = 0 then 0.0 else ms_of (Atomic.get t.sum_ns) /. float_of_int n

let clocked t ~window:(lo, hi) f =
  let t0 = now_ns () in
  let r = f () in
  if t0 >= lo && t0 < hi then begin
    ignore (Atomic.fetch_and_add t.sum_ns (now_ns () - t0));
    Atomic.incr t.count
  end;
  r

type timers = { answer_t : timer; agg_t : timer; update_t : timer }

type served = {
  logs : log list;  (** per connection, warm-up included *)
  lo : int;  (** measured window start *)
  hi : int;  (** measured window end *)
  io_backend : string;
  server : Server.t;
}

let warmup_s = 1.0

let serve ?timers w e ~seconds =
  (* start every serving phase from a collected heap, so the garbage of
     the builds is not collected inside the measured window *)
  Gc.compact ();
  let t_begin = now_ns () in
  let lo = t_begin + int_of_float (warmup_s *. 1e9) in
  let hi = lo + int_of_float (seconds *. 1e9) in
  let wrap sel f =
    match timers with Some ts -> clocked (sel ts) ~window:(lo, hi) f | None -> f ()
  in
  let handler =
    let h = Server.engine_handler e in
    fun ~arity tuples -> wrap (fun ts -> ts.answer_t) (fun () -> h ~arity tuples)
  in
  let agg_handler =
    if w.agg_budget > 0 then
      let h = Server.engine_agg_handler e in
      Some
        (fun ~kind ~arity tuples ->
          wrap (fun ts -> ts.agg_t) (fun () -> h ~kind ~arity tuples))
    else None
  in
  let update_handler =
    if Engine.supports_maintenance e then
      let h = Server.engine_update_handler e in
      Some (fun deltas -> wrap (fun ts -> ts.update_t) (fun () -> h deltas))
    else None
  in
  (* Stt_store.Crc32 builds its table lazily, and two domains forcing it
     at once raise CamlinternalLazy.Undefined; force it here, before the
     server and the callers run *)
  ignore (Frame.encode_request (Frame.Health { id = 0 }));
  let server =
    Server.start ~port:0 ~workers:par ~queue_capacity:64
      ~space:(Engine.space e)
      ~agg_space:(fun () -> Engine.agg_table_size e)
      ~cache_info:(Server.engine_cache_info e) ?update_handler ?agg_handler
      handler
  in
  let port = Server.port server in
  let callers =
    List.init w.connections (fun c ->
        Domain.spawn (fun () -> drive ~port ~stream:(w.stream c) ~lo ~hi))
  in
  let logs = List.map Domain.join callers in
  Server.stop server;
  ignore (Server.wait server);
  { logs; lo; hi; io_backend = Server.io_backend server; server }

(* One served operation, read back from the logs after serving. *)
type entry = {
  op : op;
  index : int;
  start : int;
  latency : int;  (** ns *)
  ok : bool;  (** a well-formed reply arrived *)
  value : int;
}

let entries w s =
  List.concat
    (List.mapi
       (fun c log ->
         List.init log.n (fun j ->
             let cell f = log.cells.((j * stride) + f) in
             let index = cell 0 in
             {
               op = Option.get (w.stream c index);
               index;
               start = cell 1;
               latency = cell 2;
               ok = cell 3 = 1;
               value = cell 4;
             }))
       s.logs)

(* ------------------------------------------------------------------ *)
(* correctness                                                          *)
(* ------------------------------------------------------------------ *)

let describe = function
  | Answer k -> "answer " ^ String.concat "," (Array.to_list (Array.map string_of_int k))
  | Count k -> "count " ^ String.concat "," (Array.to_list (Array.map string_of_int k))
  | Insert (u, v) -> Printf.sprintf "insert %d,%d" u v
  | Delete (u, v) -> Printf.sprintf "delete %d,%d" u v

(* Check every reply against the oracle, outside the timed phase.
   Returns the edge set the stream ends on (churn only). *)
let check w tally s es =
  List.iter
    (fun log -> List.iter (Printf.eprintf "FAILED reply: %s\n%!") (List.rev log.errors))
    s.logs;
  let judge r ok =
    Stats.attempt tally;
    if r.ok && ok then Stats.complete tally
    else begin
      Stats.fail tally;
      if r.ok && tally.Stats.failed <= 5 then
        Printf.eprintf "FAILED %s: wrong answer\n%!" (describe r.op)
    end
  in
  match w.oracle with
  | Keyed right ->
      List.iter (fun r -> judge r (r.ok && right r.op r.value)) es;
      None
  | Stream graph ->
      let live = Oracle.live graph in
      let epoch = ref 0 in
      List.iter
        (fun r ->
          match r.op with
          | Insert (u, v) | Delete (u, v) ->
              let add = match r.op with Insert _ -> true | _ -> false in
              let effective = Oracle.apply live (u, v) ~add in
              if effective then incr epoch;
              judge r (r.value = (2 * !epoch) + Bool.to_int effective)
          | Answer k ->
              judge r (r.ok && r.value = Bool.to_int (Oracle.live_path live ~k:3 k))
          | Count _ -> judge r false)
        (List.sort (fun a b -> compare a.index b.index) es);
      Some (Oracle.live_edges live)

let answer_keys es =
  List.filter_map (fun r -> match r.op with Answer k -> Some k | _ -> None) es

(* After churn, the maintained index must answer like a fresh build of
   the final graph; each compared key counts as one operation. *)
let check_final w tally e final_edges es =
  let db = Db.create () in
  Db.add_pairs db Scenario.edge_relation final_edges;
  let fresh = Engine.build_auto w.query ~db ~budget:w.budget in
  let keys = List.sort_uniq compare (answer_keys es) |> List.filteri (fun i _ -> i < 200) in
  let schema = Engine.access_schema e in
  List.iter
    (fun k ->
      let q_a = Relation.singleton schema k in
      Stats.attempt tally;
      if Relation.equal (Engine.answer e ~q_a) (Engine.answer fresh ~q_a) then
        Stats.complete tally
      else begin
        Stats.fail tally;
        Printf.eprintf "FAILED final-graph rebuild disagrees on %s\n%!"
          (describe (Answer k))
      end)
    keys

(* ------------------------------------------------------------------ *)
(* end-to-end figures                                                   *)
(* ------------------------------------------------------------------ *)

let measured s es = List.filter (fun r -> r.start >= s.lo && r.start < s.hi) es

let latencies pred es =
  List.filter_map (fun r -> if pred r.op && r.ok then Some (ms_of r.latency) else None) es

let is_answer = function Answer _ -> true | _ -> false
let is_count = function Count _ -> true | _ -> false
let is_update = function Insert _ | Delete _ -> true | _ -> false

let ops_per_s s ms =
  let done_ = List.filter (fun r -> r.ok) ms in
  let last = List.fold_left (fun m r -> max m (r.start + r.latency)) s.lo done_ in
  float_of_int (List.length done_) /. max 1e-9 (seconds_of (last - s.lo))

(* ------------------------------------------------------------------ *)
(* build determinism                                                    *)
(* ------------------------------------------------------------------ *)

let record_json r =
  let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
  [
    ("space", Json.Int r.space);
    ("pivots", Json.Int r.pivots);
    ("stored", ints r.stored);
    ("delegated", ints r.delegated);
  ]

let records_dir = Filename.concat "perfbench" "_records"

(* Compare this run's build against the builds of earlier runs of the
   same binary on the same workload, kept under perfbench/_records (the
   dataset, and so the build, does not depend on the seed); returns the
   number of differing fields. *)
let determinism ~workload ~lp_pivots builds =
  let first = List.hd builds in
  let within =
    List.length (List.filter (fun b -> b <> first) builds)
  in
  if within > 0 then
    Printf.printf "determinism: FLAG %d of %d cold builds in this run differ\n"
      within (List.length builds);
  let code = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat records_dir (workload ^ ".json") in
  let fields =
    ("code", Json.String code) :: record_json first
    @ match lp_pivots with
      | Some l -> [ ("lp_pivots", Json.List (List.map (fun i -> Json.Int i) l)) ]
      | None -> []
  in
  let earlier =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> (
        match Json.of_string s with
        | Ok (Json.Obj kv) when List.assoc_opt "code" kv = Some (Json.String code) -> kv
        | _ -> [])
    | exception Sys_error _ -> []
  in
  let across =
    List.fold_left
      (fun n (k, v) ->
        match List.assoc_opt k earlier with
        | Some v' when not (Json.equal v v') ->
            Printf.printf "determinism: FLAG %s differs from an earlier run (%s vs %s)\n"
              k (Json.to_string v) (Json.to_string v');
            n + 1
        | _ -> n)
      0 fields
  in
  let merged =
    fields @ List.filter (fun (k, _) -> not (List.mem_assoc k fields)) earlier
  in
  (try
     if not (Sys.file_exists records_dir) then Sys.mkdir records_dir 0o755;
     Json.to_file path (Json.Obj merged)
   with Sys_error m -> Printf.printf "determinism: record not kept (%s)\n" m);
  within + across

(* ------------------------------------------------------------------ *)
(* traced layer replay                                                  *)
(* ------------------------------------------------------------------ *)

(* Pool.map with one Obs context per task, adopted in task order — the
   same discipline the engine's build uses, so library spans and
   counters from worker domains land in this domain's trace. *)
let pmap f xs =
  let tasks = List.map (fun x -> (x, Obs.create_context ())) xs in
  let res = Pool.map (fun (x, ctx) -> Obs.with_context ctx (fun () -> f x)) tasks in
  List.iter (fun (_, ctx) -> Obs.adopt ctx) tasks;
  res

let view_of targets b =
  List.fold_left
    (fun acc (b', rel) -> if Varset.equal b b' then Relation.union acc rel else acc)
    (Relation.create (Schema.of_list (Varset.to_list b)))
    targets

let preprocess structures pmtds =
  let s_targets = List.concat_map Twopp.s_targets structures in
  pmap
    (fun p ->
      ( p,
        Oy.preprocess p ~s_views:(fun node ->
            view_of s_targets (Pmtd.view p node).Pmtd.vars) ))
    pmtds

(* every (rule, LP budget) pair the library's twopp.build spans recorded:
   one per build pass, two for a rule the amplification pass revisited *)
let rec lp_passes acc = function
  | Json.Obj kv as span ->
      let acc =
        match Json.member "attrs" span with
        | Some attrs -> (
            match (Json.member "rule" attrs, Json.member "budget_lp" attrs) with
            | Some (Json.String rule), Some (Json.Int b) -> (rule, b) :: acc
            | _ -> acc)
        | None -> acc
      in
      List.fold_left (fun acc (_, v) -> lp_passes acc v) acc kv
  | Json.List l -> List.fold_left lp_passes acc l
  | _ -> acc

let lp_cut_s = 30.0

type layers = {
  enum_s : float;
  rules_s : float;
  twopp_s : float;
  oy_s : float;
  agg_s : float;
  lp_s : float;
  lp_max_s : float;
  lp_trips : int;
  lp_pivots : int list;  (** per LP solve, in build-pass order *)
  structures : Twopp.t list;
  trace : Json.t;
}

let replay_build w e =
  let q = w.query in
  let pmtds, enum_s = timed (fun () -> Obs.span "decomp.enum" (fun () -> Enum.pmtds q)) in
  let rules, rules_s =
    timed (fun () -> Obs.span "rule.generate" (fun () -> Rule.generate q pmtds))
  in
  let structures, twopp_s =
    timed (fun () ->
        Obs.span "twopp.build_phase" (fun () ->
            pmap (fun r -> Twopp.build r ~db:w.db ~budget:w.budget) rules))
  in
  let _, oy_s =
    timed (fun () -> Obs.span "oy.preprocess" (fun () -> preprocess structures pmtds))
  in
  let (), agg_s =
    timed (fun () ->
        if w.agg_budget > 0 then
          Obs.span "agg.enable" (fun () ->
              Engine.enable_agg ~kinds:[ Semiring.Count ] e ~db:w.db
                ~budget:w.agg_budget))
  in
  let trace = Obs.trace () in
  (* the joint Shannon-flow LP of every build pass, on the inputs
     Twopp.build derives from the rule, the database and the budget *)
  let by_name = List.map (fun r -> (Format.asprintf "%a" Rule.pp r, r)) rules in
  let passes =
    List.rev (lp_passes [] trace)
    |> List.filter_map (fun (name, b) ->
           Option.map (fun r -> (r, b)) (List.assoc_opt name by_name))
  in
  let logd_abs = Float.log2 (float_of_int (max 2 (Db.size w.db))) in
  let solve (r, budget_lp) =
    let cqap = r.Rule.cqap in
    let logs =
      Stt_lp.Rat.of_float_approx ~max_den:1024
        (Float.log2 (float_of_int (max 2 budget_lp)) /. logd_abs)
    in
    let p0 = Stt_lp.Simplex.pivot_count () in
    let (), s =
      timed (fun () ->
          ignore
            (try
               Some
                 (Jointflow.obj r ~dc:(Degree.default_dc cqap.Cq.cq)
                    ~ac:(Degree.default_ac cqap) ~logd:Stt_lp.Rat.one
                    ~logq:Stt_lp.Rat.zero ~logs)
             with Stt_lp.Rat.Overflow -> None))
    in
    (s, Stt_lp.Simplex.pivot_count () - p0)
  in
  let solves, lp_s = timed (fun () -> Obs.span "lp.solve" (fun () -> pmap solve passes)) in
  {
    enum_s;
    rules_s;
    twopp_s;
    oy_s;
    agg_s;
    lp_s;
    lp_max_s = List.fold_left (fun m (s, _) -> max m s) 0.0 solves;
    lp_trips = List.length (List.filter (fun (s, _) -> s >= lp_cut_s) solves);
    lp_pivots = List.map snd solves;
    structures;
    trace;
  }

(* Replay Twopp.online then Online_yannakakis.answer on the served
   index, timing each, and require the result to equal Engine.answer. *)
let replay_answers e keys =
  let structures = Engine.structures e in
  let oys = preprocess structures (Engine.pmtds e) in
  let head = Schema.of_list (Varset.to_list (Engine.cqap e).Cq.cq.Cq.head) in
  let schema = Engine.access_schema e in
  let online = ref 0 and oy = ref 0 and mismatches = ref 0 in
  List.iter
    (fun k ->
      let q_a = Relation.singleton schema k in
      let t0 = now_ns () in
      let t_targets =
        Obs.span "twopp.online" (fun () ->
            List.concat_map (fun s -> Twopp.online s ~q_a) structures)
      in
      let t1 = now_ns () in
      let got =
        Obs.span "oy.answer" (fun () ->
            List.fold_left
              (fun acc (p, pre) ->
                let t_views node = view_of t_targets (Pmtd.view p node).Pmtd.vars in
                Relation.union acc (Oy.answer pre ~t_views ~q_a))
              (Relation.create head) oys)
      in
      let t2 = now_ns () in
      online := !online + (t1 - t0);
      oy := !oy + (t2 - t1);
      if not (Relation.equal got (Engine.answer e ~q_a)) then incr mismatches)
    keys;
  let n = float_of_int (max 1 (List.length keys)) in
  (ms_of !online /. n, ms_of !oy /. n, !mismatches)

let counter trace name =
  match Option.bind (Json.member "counters" trace) (Json.member name) with
  | Some (Json.Int n) -> n
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* output                                                               *)
(* ------------------------------------------------------------------ *)

let metric name value unit = (name, value, unit)

let print_block title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.6f %s\n" n v u) ms

let latency_lines label (s : Stats.summary) =
  let tail =
    match s.Stats.tail_pm with
    | Some pm -> Printf.sprintf "p%g" (float_of_int pm /. 10.0)
    | None -> "max"
  in
  Printf.printf "  %s latency: n=%d p50=%.4f ms p95=%.4f ms %s=%.4f ms mean=%.4f ms\n"
    label s.Stats.n s.Stats.p50 s.Stats.p95 tail s.Stats.p99 s.Stats.mean

let result_line ~correct tally ms =
  let metrics =
    List.map
      (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
      ms
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.Stats.attempted);
            ("failed", Json.Int tally.Stats.failed);
            ("metrics", Json.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n

let () =
  let args = parse_args () in
  let make =
    match List.assoc_opt args.workload workloads with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" args.workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  Pool.set_jobs par;
  let w = make args.seed in
  let e, colds = cold_setups w in
  attach w e;
  (* what the build stored, before churn thaws or changes it *)
  let space = Engine.space e
  and factorized = Engine.factorized_views e
  and rows = Engine.materialized_rows e in
  let setup_s = Stats.median (List.map (fun c -> c.setup_s) colds) in
  let build_s = Stats.median (List.map (fun c -> c.build_s) colds) in
  let builds = List.map (fun c -> c.record) colds in
  let timers = { answer_t = timer (); agg_t = timer (); update_t = timer () } in
  let served =
    serve ?timers:(if args.trace then Some timers else None) w e ~seconds:args.seconds
  in
  let rss =
    match List.filter_map (fun log -> log.rss_mb) served.logs with
    | [] -> peak_rss_mb ()
    | l -> List.fold_left max 0.0 l
  in
  let es = entries w served in
  let tally = Stats.tally () in
  let final = check w tally served es in
  Option.iter (fun edges -> check_final w tally e edges es) final;
  let ms = measured served es in
  let answers = Stats.summarize (latencies is_answer ms) in
  let aggs = Stats.summarize (latencies is_count ms) in
  let updates = Stats.summarize (latencies is_update ms) in
  Printf.printf
    "workload %s seed %d: nproc %d, pool jobs %d, server workers %d, \
     connections %d (closed loop), io %s, %.1f s warm-up + %.1f s measured\n"
    w.name args.seed
    (Domain.recommended_domain_count ())
    (Pool.jobs ()) par w.connections served.io_backend warmup_s args.seconds;
  Printf.printf "  setup: %d cold build(s), median %.4f s (build %.4f s), space %d\n"
    cold_builds setup_s build_s space;
  latency_lines "answer" answers;
  latency_lines "agg" aggs;
  latency_lines "update" updates;
  Printf.printf "  failed_share %.6f (%d failed of %d attempted)\n"
    (Stats.failed_share tally) tally.Stats.failed tally.Stats.attempted;
  let end_to_end =
    [
      metric "setup_s" setup_s "s";
      metric "ops_per_s" (ops_per_s served ms) "1/s";
      metric "answer_p50_ms" answers.Stats.p50 "ms";
      metric "answer_p95_ms" answers.Stats.p95 "ms";
      metric "peak_rss_mb" rss "MB";
    ]
  in
  print_block "end-to-end" end_to_end;
  if not args.trace then begin
    let flags = determinism ~workload:w.name ~lp_pivots:None builds in
    Printf.printf "  build.determinism_flags %d\n" flags;
    let correct = tally.Stats.failed = 0 && Stats.balanced tally in
    result_line ~correct tally end_to_end;
    exit (if correct then 0 else 1)
  end;
  (* ---- traced run: layers replayed under Stt_obs ---- *)
  Obs.set_enabled true;
  Obs.reset ();
  let l = replay_build w e in
  let flags =
    determinism ~workload:w.name ~lp_pivots:(Some l.lp_pivots) builds
  in
  (* a churned index no longer matches its inputs: serve a fresh one *)
  let e2 =
    if Engine.epoch e > 0 then begin
      let e2 = Engine.build_auto w.query ~db:w.db ~budget:w.budget in
      attach w e2;
      e2
    end
    else e
  in
  (* long enough for the library's counters; overhead is a mean *)
  let traced = serve w e2 ~seconds:(args.seconds /. 3.0) in
  let traced_es = entries w traced in
  let final2 = check w tally traced traced_es in
  Option.iter (fun edges -> check_final w tally e2 edges traced_es) final2;
  let server_trace =
    match Json.of_string (Server.trace_json traced.server) with
    | Ok j -> j
    | Error _ -> Json.Null
  in
  let traced_answers = Stats.summarize (latencies is_answer (measured traced traced_es)) in
  let keys = List.filteri (fun i _ -> i < 300) (answer_keys ms) in
  let online_ms, oy_ms, replay_mismatches = replay_answers e2 keys in
  if replay_mismatches > 0 then
    Printf.printf "trace: FAILED replay differs from Engine.answer on %d of %d keys\n"
      replay_mismatches (List.length keys);
  let hits = counter server_trace "cache.hit" and misses = counter server_trace "cache.miss" in
  let hit_rate = per (hits + misses) hits in
  let deltas = List.length (List.filter (fun r -> is_update r.op) traced_es) in
  let maintain_ops =
    counter server_trace "maintain.probes" + counter server_trace "maintain.tuples"
    + counter server_trace "maintain.scans"
  in
  let sum f = List.fold_left (fun a log -> a + f log) 0 served.logs in
  let answer_cost = List.fold_left (fun a log -> Cost.add a log.answer_cost) Cost.zero served.logs in
  let costed = sum (fun log -> log.answers_costed) in
  let first_delta_ops =
    List.fold_left (fun a log -> max a log.first_delta_ops) 0 traced.logs
  in
  let engine_ms = timer_ms timers.answer_t in
  let parts_s = l.enum_s +. l.rules_s +. l.twopp_s +. l.oy_s +. l.agg_s in
  let per_layer =
    [
      metric "decomp.enum_s" l.enum_s "s";
      metric "rule.generate_s" l.rules_s "s";
      metric "twopp.build_s" l.twopp_s "s";
      metric "lp.solve_s" l.lp_s "s";
      metric "lp.max_solve_s" l.lp_max_s "s";
      metric "lp.pivots" (float_of_int (List.fold_left ( + ) 0 l.lp_pivots)) "count";
      metric "lp.cut_trips" (float_of_int l.lp_trips) "count";
      metric "simplex.pivots" (float_of_int (counter l.trace "simplex.pivots")) "count";
      metric "twopp.amplified_rules" (float_of_int (counter l.trace "twopp.amplified")) "count";
      metric "twopp.stored_subproblems"
        (float_of_int (List.fold_left (fun a s -> a + Twopp.stored_subproblems s) 0 l.structures))
        "count";
      metric "twopp.delegated_subproblems"
        (float_of_int
           (List.fold_left (fun a s -> a + Twopp.delegated_subproblems s) 0 l.structures))
        "count";
      metric "oy.preprocess_s" l.oy_s "s";
      metric "agg.enable_s" l.agg_s "s";
      metric "build.unattributed_s" (setup_s -. parts_s) "s";
      metric "factorized.views" (float_of_int factorized) "count";
      metric "factorized.rows_per_singleton" (per space rows) "ratio";
      metric "engine.space" (float_of_int space) "count";
      metric "engine.total_space" (float_of_int (Engine.total_space e)) "count";
      metric "answer_p99_ms" answers.Stats.p99 "ms";
      metric "answer.rtt_mean_ms" answers.Stats.mean "ms";
      metric "engine.answer_ms" engine_ms "ms";
      metric "net.overhead_ms" (answers.Stats.mean -. engine_ms) "ms";
      metric "twopp.online_ms" online_ms "ms";
      metric "oy.answer_ms" oy_ms "ms";
      metric "answer.unattributed_ms"
        (engine_ms -. ((1.0 -. hit_rate) *. (online_ms +. oy_ms)))
        "ms";
      metric "relation.probes_per_answer" (per costed answer_cost.Cost.probes) "count";
      metric "relation.tuples_per_answer" (per costed answer_cost.Cost.tuples) "count";
      metric "relation.scans_per_answer" (per costed answer_cost.Cost.scans) "count";
      metric "agg_p50_ms" aggs.Stats.p50 "ms";
      metric "agg_p99_ms" aggs.Stats.p99 "ms";
      metric "agg.engine_ms" (timer_ms timers.agg_t) "ms";
      metric "agg.ops_per_request"
        (per (sum (fun log -> log.aggs_costed)) (sum (fun log -> log.agg_ops)))
        "count";
      metric "update_p50_ms" updates.Stats.p50 "ms";
      metric "update_p99_ms" updates.Stats.p99 "ms";
      metric "maintain.engine_ms" (timer_ms timers.update_t) "ms";
      metric "maintain.ops_per_delta" (per deltas maintain_ops) "count";
      metric "maintain.first_delta_ops" (float_of_int first_delta_ops) "count";
      metric "cache.hit_rate" hit_rate "ratio";
      metric "cache.invalidated" (float_of_int (counter server_trace "cache.invalidate")) "count";
      metric "cache.evictions" (float_of_int (counter server_trace "cache.evict")) "count";
      metric "trace.overhead_ms" (traced_answers.Stats.mean -. answers.Stats.mean) "ms";
      metric "build.determinism_flags" (float_of_int flags) "count";
    ]
  in
  print_block "per-layer (traced run)" per_layer;
  (* the bench-side spans and the replayed build's library spans *)
  let trace_file =
    Filename.concat records_dir (Printf.sprintf "%s-%d.trace.json" w.name args.seed)
  in
  (try
     Json.to_file trace_file (Obs.trace ());
     Printf.printf "  spans and counters written to %s\n" trace_file
   with Sys_error m -> Printf.printf "  trace not kept (%s)\n" m);
  Printf.printf "  traced serve: answer n=%d mean %.4f ms (untraced %.4f ms)\n"
    traced_answers.Stats.n traced_answers.Stats.mean answers.Stats.mean;
  let correct = replay_mismatches = 0 && tally.Stats.failed = 0 && Stats.balanced tally in
  result_line ~correct tally per_layer;
  exit (if correct then 0 else 1)
