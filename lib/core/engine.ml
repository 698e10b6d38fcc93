open Stt_relation
open Stt_hypergraph
open Stt_decomp
open Stt_yannakakis
open Stt_lp
open Stt_obs
module Cache = Stt_cache.Cache
module Ckey = Stt_cache.Key
module Frep = Stt_factorized.Frep
module Semiring = Stt_semiring.Semiring
module Agg_eval = Stt_semiring.Eval

(* A per-kind aggregate table over the access variables.  [complete]
   means every access tuple with at least one derivation has an entry,
   so a miss soundly contributes the semiring zero; a partial table only
   covers the heavy access keys and misses fall back to online
   elimination. *)
type agg_table = { complete : bool; entries : int Tuple.Tbl.t }

type agg_state = {
  agg_budget : int;
  agg_factors : (string * Relation.t) list;
      (* annotated base relations, aligned positionally with the CQ's
         atoms (a self-joined relation appears once per atom) *)
  mutable agg_tables : (Semiring.kind * agg_table) list;
}

type t = {
  cqap : Cq.cqap;
  pmtds : Pmtd.t list;
  rules : Rule.t list;
  structures : Twopp.t list;
  mutable preprocessed : (Pmtd.t * Online_yannakakis.preprocessed) list;
  mutable space : int;
  mutable cache : Cache.t option;
      (* workload-adaptive answer cache; None = disabled.  Charged
         against its own budget, not [space] — [space] stays the
         intrinsic S-view footprint the paper's bound talks about. *)
  mutable epoch : int;
      (* number of effective base-tuple deltas applied since build;
         recorded in snapshots so a replica can tell stale from fresh *)
  mutable thawed : bool;
      (* S-views re-materialized unreduced for incremental maintenance *)
  mutable agg : agg_state option;
      (* semiring aggregate answering; None until [enable_agg] (or a
         snapshot with an "agg" section) provides annotated factors *)
}

(* Carry the per-domain simplex pivot counter across the pool's worker
   domains: capture each worker's local total, merge it into the parent
   after the join, so pivot counts stay exact under any job count. *)
let () =
  Pool.register_worker_hook (fun () ->
      let n = Simplex.pivot_count () in
      fun () -> Simplex.add_pivots n)

let cqap t = t.cqap
let pmtds t = t.pmtds
let rules t = t.rules
let space t = t.space
let structures t = t.structures
let cache t = t.cache

let attach_cache t ~budget =
  t.cache <- (if budget <= 0 then None else Some (Cache.create ~budget ()))

let cache_space t = match t.cache with None -> 0 | Some c -> Cache.used c
let cache_budget t = match t.cache with None -> 0 | Some c -> Cache.budget c
let cache_stats t = Option.map Cache.stats t.cache

let per_pmtd_space t =
  List.map (fun (p, oy) -> (p, Online_yannakakis.space oy)) t.preprocessed

let materialized_rows t =
  List.fold_left
    (fun acc (_, oy) -> acc + Online_yannakakis.logical_rows oy)
    0 t.preprocessed

let factorized_views t =
  List.fold_left
    (fun acc (_, oy) ->
      acc + List.length (Online_yannakakis.factorized_views oy))
    0 t.preprocessed

let access_schema t = Schema.of_list (Varset.to_list t.cqap.Cq.access)

let schema_of_set b = Schema.of_list (Varset.to_list b)

(* union of target relations whose schema equals [b] *)
let view_of_targets targets b =
  let empty = Relation.create (schema_of_set b) in
  List.fold_left
    (fun acc (b', rel) -> if Varset.equal b b' then Relation.union acc rel else acc)
    empty targets

(* Parallel map over the domain pool for build phases.  Each task runs
   under its own Obs context (worker domains have isolated DLS traces),
   adopted back in input order — so the trace, like the results and the
   Cost counters, is independent of the job count. *)
let pmap f xs =
  match xs with
  | [] | [ _ ] -> List.map f xs
  | xs ->
      let tasks = List.map (fun x -> (x, Obs.create_context ())) xs in
      let res =
        Pool.map (fun (x, ctx) -> Obs.with_context ctx (fun () -> f x)) tasks
      in
      List.iter (fun (_, ctx) -> Obs.adopt ctx) tasks;
      res

let build ?(counted = false) cqap pmtd_list ~db ~budget =
  Obs.span "engine.build" ~attrs:[ ("budget", Json.Int budget) ] @@ fun () ->
  let rules = Rule.generate cqap pmtd_list in
  Obs.set_attr "pmtds" (Json.Int (List.length pmtd_list));
  Obs.set_attr "rules" (Json.Int (List.length rules));
  Obs.set_attr "jobs" (Json.Int (Pool.jobs ()));
  (* phase 1: the 2PP structure of every rule, in parallel across rules *)
  let structures = pmap (fun r -> Twopp.build ~counted r ~db ~budget) rules in
  let all_s_targets = List.concat_map Twopp.s_targets structures in
  (* phase 2: Yannakakis preprocessing, in parallel across PMTDs (reads
     the shared S-targets, writes only per-PMTD state) *)
  let preprocessed =
    Cost.with_counting counted (fun () ->
        pmap
          (fun p ->
            let s_views node =
              view_of_targets all_s_targets (Pmtd.view p node).Pmtd.vars
            in
            (p, Online_yannakakis.preprocess p ~s_views))
          pmtd_list)
  in
  let space =
    List.fold_left
      (fun acc (_, oy) -> acc + Online_yannakakis.space oy)
      0 preprocessed
  in
  Obs.set_attr "space" (Json.Int space);
  Obs.set_attr "pmtd_space"
    (Json.List
       (List.map
          (fun (_, oy) -> Json.Int (Online_yannakakis.space oy))
          preprocessed));
  {
    cqap;
    pmtds = pmtd_list;
    rules;
    structures;
    preprocessed;
    space;
    cache = None;
    epoch = 0;
    thawed = false;
    agg = None;
  }

let build_auto ?counted ?max_pmtds cqap ~db ~budget =
  build ?counted cqap (Enum.pmtds ?max_pmtds cqap) ~db ~budget

(* The online pipeline without observability wrapping: every rule's 2PP
   online pass streams into one per-call T-view table (one relation per
   T-target), then Online Yannakakis per PMTD reads its T-views from
   it; results unioned.  Returns the scoped online cost. *)
let answer_scoped t ~q_a =
  Cost.scoped (fun () ->
      let views = Hashtbl.create 8 in
      List.iter (fun s -> Twopp.online_into s ~q_a views) t.structures;
      let head = t.cqap.Cq.cq.Cq.head in
      let result =
        ref (Relation.create (Schema.of_list (Varset.to_list head)))
      in
      List.iter
        (fun (p, oy) ->
          let t_views node =
            let b = (Pmtd.view p node).Pmtd.vars in
            match Hashtbl.find_opt views b with
            | Some rel -> rel
            | None -> Relation.create (schema_of_set b)
          in
          let psi = Online_yannakakis.answer oy ~t_views ~q_a in
          result := Relation.union !result psi)
        t.preprocessed;
      !result)

let answer t ~q_a =
  Obs.span "engine.answer" @@ fun () ->
  let result, cost, via =
    match t.cache with
    | None ->
        let r, c = answer_scoped t ~q_a in
        (r, c, "direct")
    | Some cache -> (
        let access = access_schema t in
        let rows = Ckey.canon ~access q_a in
        let key = Ckey.encode ~arity:(Schema.arity access) rows in
        match Cost.scoped (fun () -> Cache.find cache key) with
        | Some r, c -> (r, c, "hit")
        | None, lookup ->
            let r, c = answer_scoped t ~q_a in
            Cache.add cache ~key ~key_tuples:(List.length rows) r;
            (r, Cost.add lookup c, "miss"))
  in
  if Obs.enabled () then begin
    Obs.set_attr "cache" (Json.String via);
    Obs.set_attr "q_a" (Json.Int (Relation.cardinal q_a));
    Obs.set_attr "result" (Json.Int (Relation.cardinal result));
    Obs.set_attr "cost"
      (Json.Obj
         [
           ("probes", Json.Int cost.Cost.probes);
           ("tuples", Json.Int cost.Cost.tuples);
           ("scans", Json.Int cost.Cost.scans);
         ]);
    Obs.observe "engine.answer.ops" (float_of_int (Cost.total cost))
  end;
  result

let answer_tuple t tup =
  let q_a = Relation.create (access_schema t) in
  Relation.add q_a tup;
  not (Relation.is_empty (answer t ~q_a))

(* ------------------------------------------------------------------ *)
(* batched answering                                                    *)
(* ------------------------------------------------------------------ *)

(* [share total n i] — the i-th request's even share of a batch-shared
   snapshot: quotient everywhere, remainder distributed one op at a time
   to the earliest requests, so shares sum exactly to [total]. *)
let share total n i =
  let part v = (v / n) + if i < v mod n then 1 else 0 in
  {
    Cost.probes = part total.Cost.probes;
    tuples = part total.Cost.tuples;
    scans = part total.Cost.scans;
  }

let answer_batch t reqs =
  Obs.span "engine.answer_batch"
    ~attrs:[ ("requests", Json.Int (List.length reqs)) ]
  @@ fun () ->
  match reqs with
  | [] -> []
  | reqs ->
      let n = List.length reqs in
      let acc_schema = access_schema t in
      let acc_vars = Schema.vars acc_schema in
      let arity = Schema.arity acc_schema in
      (* canonical form of a request — tuples reordered to the access
         schema and sorted (Stt_cache.Key, shared with the answer
         cache so dedup and cache keying can never disagree) *)
      let keyed =
        List.map
          (fun q ->
            let rows = Ckey.canon ~access:acc_schema q in
            (Ckey.encode ~arity rows, rows, q))
          reqs
      in
      let first_idx = Hashtbl.create 16 in
      let uniq = ref [] in
      List.iteri
        (fun i (key, rows, q) ->
          if not (Hashtbl.mem first_idx key) then begin
            Hashtbl.add first_idx key i;
            uniq := (key, rows, q) :: !uniq
          end)
        keyed;
      let uniq = List.rev !uniq in
      let head = t.cqap.Cq.cq.Cq.head in
      let sliceable = Varset.subset t.cqap.Cq.access head in
      Obs.set_attr "unique" (Json.Int (List.length uniq));
      (* per unique request: its answer and the marginal cost of the
         first evaluation; [shared] is the batch-shared cost *)
      let results = Hashtbl.create 16 in
      (* the failed cache probe of a miss, folded into that request's
         marginal below *)
      let miss_lookup = Hashtbl.create 16 in
      let shared = ref Cost.zero in
      let misses =
        match t.cache with
        | None -> uniq
        | Some cache ->
            List.filter
              (fun (key, _, _) ->
                match Cost.scoped (fun () -> Cache.find cache key) with
                | Some r, c ->
                    Hashtbl.add results key (r, c);
                    false
                | None, c ->
                    Hashtbl.add miss_lookup key c;
                    true)
              uniq
      in
      Obs.set_attr "cache_hits"
        (Json.Int (List.length uniq - List.length misses));
      Obs.set_attr "sliced" (Json.Bool (sliceable && List.length misses > 1));
      if sliceable && List.length misses > 1 then begin
        (* access ⊆ head: answer the union of all requests once, then
           slice each request's answer back out.  Sound because
           answer(q) = {h ∈ answer(∪ q_j) : h[access] ∈ q} when the
           access variables survive into the head.  The combined answer
           is grouped by its access-variable values once (shared), so a
           slice costs one probe per request tuple plus its output. *)
        let (head_schema, groups), shared_cost =
          Cost.scoped (fun () ->
              let combined = Relation.create acc_schema in
              List.iter
                (fun (_, rows, _) -> List.iter (Relation.add combined) rows)
                misses;
              let result, _ = answer_scoped t ~q_a:combined in
              let head_schema = Relation.schema result in
              let pos = Schema.positions head_schema acc_vars in
              let scratch = Array.make (Array.length pos) 0 in
              let groups = Tuple.Tbl.create 64 in
              Relation.iter
                (fun tup ->
                  Cost.charge_scan ();
                  Tuple.project_into pos tup scratch;
                  match Tuple.Tbl.find_opt groups scratch with
                  | Some rows -> rows := tup :: !rows
                  | None ->
                      Tuple.Tbl.add groups (Array.copy scratch) (ref [ tup ]))
                result;
              (head_schema, groups))
        in
        shared := shared_cost;
        List.iter
          (fun (key, rows, _) ->
            let sliced, c =
              Cost.scoped (fun () ->
                  let out = Relation.create head_schema in
                  List.iter
                    (fun ktup ->
                      Cost.charge_probe ();
                      match Tuple.Tbl.find_opt groups ktup with
                      | Some rows -> List.iter (Relation.add out) !rows
                      | None -> ())
                    rows;
                  out)
            in
            Hashtbl.add results key (sliced, c))
          misses
      end
      else
        (* access pattern not in the head (or a single distinct miss):
           evaluate each unique request once; duplicates still share *)
        List.iter
          (fun (key, _, q) ->
            let r, c = answer_scoped t ~q_a:q in
            Hashtbl.add results key (r, c))
          misses;
      (* install the freshly evaluated answers for the next batch *)
      (match t.cache with
      | None -> ()
      | Some cache ->
          List.iter
            (fun (key, rows, _) ->
              match Hashtbl.find_opt results key with
              | Some (r, _) ->
                  Cache.add cache ~key ~key_tuples:(List.length rows) r
              | None -> ())
            misses);
      (* input-order results; cost accounting: every request carries an
         even share of the batch-shared cost, the first occurrence of a
         request additionally carries its marginal evaluation cost (for
         a cache miss, including the failed cache probe) *)
      List.mapi
        (fun i (key, _, _) ->
          let r, marginal = Hashtbl.find results key in
          let c = share !shared n i in
          let c =
            if Hashtbl.find first_idx key = i then
              let lookup =
                Option.value ~default:Cost.zero
                  (Hashtbl.find_opt miss_lookup key)
              in
              Cost.add (Cost.add c lookup) marginal
            else c
          in
          (r, c))
        keyed

(* ------------------------------------------------------------------ *)
(* semiring aggregates                                                  *)
(* ------------------------------------------------------------------ *)

(* schema of cached aggregate answers: a one-row, one-column relation
   holding the scalar (the variable id is arbitrary — the cache key's
   kind byte, not the schema, is what distinguishes it from tuple
   answers) *)
let scalar_schema = Schema.of_list [ 0 ]

let agg_enabled t = t.agg <> None
let agg_budget t = match t.agg with None -> 0 | Some st -> st.agg_budget
let agg_kinds t =
  match t.agg with None -> [] | Some st -> List.map fst st.agg_tables

let agg_complete t k =
  match t.agg with
  | None -> false
  | Some st -> (
      match List.assoc_opt k st.agg_tables with
      | Some tbl -> tbl.complete
      | None -> false)

let agg_table_size t =
  match t.agg with
  | None -> 0
  | Some st ->
      List.fold_left
        (fun acc (_, tbl) -> acc + Tuple.Tbl.length tbl.entries)
        0 st.agg_tables

(* Everything the engine holds, in one unit (stored singletons /
   entries): intrinsic S-view space, the answer cache's charged entries,
   and the aggregate tables' rows.  The single number trace JSON and the
   serve-net Health report. *)
let total_space t = t.space + cache_space t + agg_table_size t

let agg_state t =
  match t.agg with
  | Some st -> st
  | None -> failwith "Engine: aggregates not enabled (call enable_agg)"

let factors_of st k =
  List.map (fun (_, r) -> Agg_eval.of_relation k r) st.agg_factors

(* Precompute the per-kind aggregate tables over the access variables by
   full offline elimination (uncounted — preprocessing time is not what
   the paper optimizes).  The COUNT table is always computed first: its
   per-key derivation counts are the work proxy that picks which access
   keys stay in the tables when the full table exceeds the budget (the
   heavy keys — exactly where online answering is expensive).  Partial
   tables are marked incomplete so misses fall back to online
   elimination instead of soundly-looking zeroes. *)
let build_agg_tables t ~kinds =
  match t.agg with
  | None -> ()
  | Some st ->
      Cost.with_counting false @@ fun () ->
      let access = access_schema t in
      let count_tbl =
        Agg_eval.table Semiring.Count (factors_of st Semiring.Count) ~access
      in
      let n = Tuple.Tbl.length count_tbl in
      let heavy =
        if n <= st.agg_budget then None
        else begin
          let all =
            Tuple.Tbl.fold (fun key c acc -> (key, c) :: acc) count_tbl []
          in
          (* ties broken by tuple order so the table is deterministic *)
          let sorted =
            List.sort
              (fun (ka, a) (kb, b) ->
                match compare b a with 0 -> Tuple.compare ka kb | c -> c)
              all
          in
          let keep = Tuple.Tbl.create (max 16 st.agg_budget) in
          List.iteri
            (fun i (key, _) ->
              if i < st.agg_budget then Tuple.Tbl.replace keep key ())
            sorted;
          Some keep
        end
      in
      let restrict tbl =
        match heavy with
        | None -> { complete = true; entries = tbl }
        | Some keep ->
            let entries = Tuple.Tbl.create (max 16 (Tuple.Tbl.length keep)) in
            Tuple.Tbl.iter
              (fun key v ->
                if Tuple.Tbl.mem keep key then Tuple.Tbl.replace entries key v)
              tbl;
            { complete = false; entries }
      in
      st.agg_tables <-
        List.map
          (fun k ->
            let tbl =
              if k = Semiring.Count then count_tbl
              else Agg_eval.table k (factors_of st k) ~access
            in
            (k, restrict tbl))
          kinds

let enable_agg ?(kinds = Semiring.all) t ~db ~budget =
  Obs.span "engine.enable_agg" ~attrs:[ ("budget", Json.Int budget) ]
  @@ fun () ->
  if budget < 0 then invalid_arg "Engine.enable_agg: negative budget";
  let agg_factors =
    Cost.with_counting false (fun () ->
        List.map
          (fun (a : Cq.atom) -> (a.Cq.rel, Db.relation db a))
          t.cqap.Cq.cq.Cq.atoms)
  in
  t.agg <- Some { agg_budget = budget; agg_factors; agg_tables = [] };
  build_agg_tables t ~kinds;
  Obs.set_attr "table_rows" (Json.Int (agg_table_size t))

(* The online aggregate of canonical access rows.  A table hit charges
   one probe per request row plus one tuple per combined row — never
   less than what answering the same request from a materialized answer
   would charge.  Rows missing from a partial table are collected and
   answered by one annotated-elimination run (counted: it is online
   work). *)
let answer_agg_scoped t k ~rows =
  let st = agg_state t in
  Cost.scoped (fun () ->
      let online light =
        let q = Relation.create (access_schema t) in
        List.iter (Relation.add q) light;
        Agg_eval.aggregate k (factors_of st k) ~q_a:q
      in
      match List.assoc_opt k st.agg_tables with
      | Some { complete; entries } ->
          let acc = ref (Semiring.zero k) in
          let light = ref [] in
          List.iter
            (fun row ->
              Cost.charge_probe ();
              match Tuple.Tbl.find_opt entries row with
              | Some v ->
                  Cost.charge_tuple ();
                  acc := Semiring.add k !acc v
              | None -> if not complete then light := row :: !light)
            rows;
          if !light <> [] then acc := Semiring.add k !acc (online !light);
          !acc
      | None -> online rows)

(* the materialize-then-fold reference at the same request: flat join of
   the annotated factors (request included), then ⊕-fold.  Counted —
   this is the baseline the benchmarks and the differential op-sanity
   check compare against. *)
let agg_baseline t k ~q_a =
  let st = agg_state t in
  Cost.scoped (fun () -> Agg_eval.brute k (factors_of st k) ~q_a)

let answer_agg t k ~q_a =
  Obs.span "engine.answer_agg"
    ~attrs:[ ("kind", Json.String (Semiring.name k)) ]
  @@ fun () ->
  let access = access_schema t in
  let rows = Ckey.canon ~access q_a in
  let kind = Semiring.to_tag k in
  let value, cost, via =
    match t.cache with
    | None ->
        let v, c = answer_agg_scoped t k ~rows in
        (v, c, "direct")
    | Some cache -> (
        let key = Ckey.encode ~kind ~arity:(Schema.arity access) rows in
        match Cost.scoped (fun () -> Cache.find cache key) with
        | Some r, c ->
            let v = Relation.fold (fun tup _ -> tup.(0)) r (Semiring.zero k) in
            (v, c, "hit")
        | None, lookup ->
            let v, c = answer_agg_scoped t k ~rows in
            (* the tropical sentinels (MIN's "no row" = [max_int], MAX's
               [min_int]) don't survive the cache's zigzag row codec, so
               empty-aggregate answers are recomputed rather than cached *)
            if v <> max_int && v <> min_int then begin
              let r =
                Cost.with_counting false (fun () ->
                    let r = Relation.create scalar_schema in
                    Relation.add r [| v |];
                    r)
              in
              Cache.add cache ~key ~key_tuples:(List.length rows) r
            end;
            (v, Cost.add lookup c, "miss"))
  in
  if Obs.enabled () then begin
    Obs.set_attr "cache" (Json.String via);
    Obs.set_attr "q_a" (Json.Int (Relation.cardinal q_a));
    Obs.observe "engine.answer_agg.ops" (float_of_int (Cost.total cost))
  end;
  (value, cost)

let answer_batch_agg t k reqs =
  Obs.span "engine.answer_batch_agg"
    ~attrs:
      [
        ("kind", Json.String (Semiring.name k));
        ("requests", Json.Int (List.length reqs));
      ]
  @@ fun () -> List.map (fun q_a -> answer_agg t k ~q_a) reqs

(* ------------------------------------------------------------------ *)
(* incremental maintenance                                              *)
(* ------------------------------------------------------------------ *)

let epoch t = t.epoch

let supports_maintenance t =
  t.structures <> [] && List.for_all Twopp.supports_maintenance t.structures

(* First delta against a built engine: re-materialize the S-views
   without the SS semijoin reduction (a pure space optimization that
   [answer] never depends on), because reduced views cannot absorb
   single-tuple deltas additively.  The conversion is charged as one
   scan per re-materialized view tuple — a one-time reorganization cost
   that lands on the first delta and amortizes over the stream. *)
let thaw t =
  if not t.thawed then begin
    let all_s_targets = List.concat_map Twopp.s_targets t.structures in
    let preprocessed =
      Cost.with_counting false (fun () ->
          List.map
            (fun (p, _) ->
              let s_views node =
                view_of_targets all_s_targets (Pmtd.view p node).Pmtd.vars
              in
              ( p,
                Online_yannakakis.preprocess ~reduce:false ~factorize:false p
                  ~s_views ))
            t.preprocessed)
    in
    t.preprocessed <- preprocessed;
    let space =
      List.fold_left
        (fun acc (_, oy) -> acc + Online_yannakakis.space oy)
        0 preprocessed
    in
    for _ = 1 to space do
      Cost.charge_scan ()
    done;
    t.space <- space;
    t.thawed <- true;
    Obs.incr "maintain.thaw"
  end

let known_relation t rel =
  List.exists (fun (a : Cq.atom) -> a.Cq.rel = rel) t.cqap.Cq.cq.Cq.atoms

(* Access requests whose answers can change with the delta: the
   access-variable projections of every body derivation that uses the
   tuple at some atom.  Computed against the base relations — before
   applying a delete (the dying derivations), after applying an insert
   (the new ones).  The pinned singleton is the smallest join input, so
   the greedy join stays narrow around the tuple. *)
let affected_access t ~rel ~tuple =
  match t.structures with
  | [] -> Tuple.Tbl.create 1
  | s :: _ ->
      let base = Twopp.base_relations s in
      let access = Varset.to_list t.cqap.Cq.access in
      let acc = Tuple.Tbl.create 16 in
      List.iter
        (fun ((a : Cq.atom), _) ->
          if a.Cq.rel = rel then begin
            let single =
              Relation.singleton (Schema.of_list a.Cq.vars) tuple
            in
            let others =
              List.filter_map
                (fun (a', r) -> if a' == a then None else Some r)
                base
            in
            let reach = Db.join_greedy (single :: others) ~keep:access in
            Relation.iter
              (fun row ->
                if not (Tuple.Tbl.mem acc row) then
                  Tuple.Tbl.add acc (Array.copy row) ())
              reach
          end)
        base;
      acc

let invalidate_cache t affected =
  match t.cache with
  | None -> 0
  | Some cache ->
      if Tuple.Tbl.length affected = 0 then 0
      else
        (* all answer kinds alike: a tuple answer and an aggregate over
           the same affected access tuple are both stale *)
        Cache.invalidate cache (fun key ->
            let _, _, rows = Ckey.decode key in
            List.exists (Tuple.Tbl.mem affected) rows)

(* S-view routing: an S-view row change for target [b] lands on every
   materialized node whose view variables equal [b], across all PMTDs. *)
let nodes_for t b =
  List.concat_map
    (fun (p, oy) ->
      List.filter_map
        (fun node ->
          if Varset.equal (Pmtd.view p node).Pmtd.vars b then Some (oy, node)
          else None)
        (Online_yannakakis.materialized_nodes oy))
    t.preprocessed

let apply_one t ~rel ~tuple ~add =
  if not (known_relation t rel) then
    failwith (Printf.sprintf "Engine: delta against unknown relation %s" rel);
  (* reject malformed deltas before any state is touched, so a bad
     request cannot leave the engine half-updated *)
  List.iter
    (fun (a : Cq.atom) ->
      if a.Cq.rel = rel && List.length a.Cq.vars <> Tuple.arity tuple then
        failwith
          (Printf.sprintf "Engine: arity-%d delta for %d-ary relation %s"
             (Tuple.arity tuple)
             (List.length a.Cq.vars)
             rel))
    t.cqap.Cq.cq.Cq.atoms;
  if not (supports_maintenance t) then
    failwith
      "Engine: snapshot-loaded engines are static replicas and cannot \
       accept deltas";
  thaw t;
  let present =
    Twopp.base_mem (List.hd t.structures) ~rel tuple
  in
  if add = present then false (* redundant delta: no-op *)
  else begin
    (* for a delete, the dying derivations must be probed before the
       base loses the tuple *)
    let pre_affected =
      if (not add) && t.cache <> None then Some (affected_access t ~rel ~tuple)
      else None
    in
    let events =
      List.concat_map
        (fun s ->
          List.map (fun ev -> ev) (Twopp.apply_delta s ~rel ~tuple ~add))
        t.structures
    in
    let inserts, deletes = List.partition (fun (_, _, sign) -> sign) events in
    List.iter
      (fun (b, row, _) ->
        List.iter
          (fun (oy, node) ->
            ignore (Online_yannakakis.insert_view_tuple oy node row))
          (nodes_for t b))
      inserts;
    List.iter
      (fun (b, row, _) ->
        (* the row leaves the views only once no structure stores it *)
        if
          not
            (List.exists (fun s -> Twopp.stored_mem s b row) t.structures)
        then
          List.iter
            (fun (oy, node) ->
              ignore (Online_yannakakis.delete_view_tuple oy node row))
            (nodes_for t b))
      deletes;
    t.space <-
      List.fold_left
        (fun acc (_, oy) -> acc + Online_yannakakis.space oy)
        0 t.preprocessed;
    let affected =
      match pre_affected with
      | Some a -> Some a
      | None ->
          if t.cache <> None then Some (affected_access t ~rel ~tuple)
          else None
    in
    (match affected with
    | Some aff ->
        let n = invalidate_cache t aff in
        if n > 0 then Obs.incr ~by:n "cache.invalidate"
    | None -> ());
    (* aggregate state: patch the annotated factors in place (a delta
       carries no weight, so an inserted tuple starts from the kind's
       default annotation) and drop the precomputed tables — subsequent
       aggregate requests fall back to online elimination *)
    (match t.agg with
    | None -> ()
    | Some st ->
        List.iter
          (fun (name, frel) ->
            if name = rel then
              if add then Relation.add frel tuple
              else ignore (Relation.remove frel tuple))
          st.agg_factors;
        if st.agg_tables <> [] then begin
          st.agg_tables <- [];
          Obs.incr "agg.tables_dropped"
        end);
    t.epoch <- t.epoch + 1;
    true
  end

let apply_deltas t deltas =
  Obs.span "engine.maintain"
    ~attrs:[ ("deltas", Json.Int (List.length deltas)) ]
  @@ fun () ->
  let applied = ref 0 in
  let (), cost =
    Cost.scoped (fun () ->
        List.iter
          (fun (rel, tuple, add) ->
            if apply_one t ~rel ~tuple ~add then incr applied)
          deltas)
  in
  if Obs.enabled () then begin
    Obs.set_attr "applied" (Json.Int !applied);
    Obs.set_attr "epoch" (Json.Int t.epoch);
    Obs.incr ~by:cost.Cost.probes "maintain.probes";
    Obs.incr ~by:cost.Cost.tuples "maintain.tuples";
    Obs.incr ~by:cost.Cost.scans "maintain.scans";
    Obs.observe "engine.maintain.ops" (float_of_int (Cost.total cost))
  end;
  (!applied, cost)

let insert t rel tuple =
  let applied, cost = apply_deltas t [ (rel, tuple, true) ] in
  (applied > 0, cost)

let delete t rel tuple =
  let applied, cost = apply_deltas t [ (rel, tuple, false) ] in
  (applied > 0, cost)

(* ------------------------------------------------------------------ *)
(* snapshots                                                            *)
(* ------------------------------------------------------------------ *)

module Store = Stt_store.Store
module C = Stt_store.Codec

let format_version = 1

(* Semantic violations raise [Codec.Corrupt] so the store layer surfaces
   them as [Malformed] — a snapshot whose every CRC checks out can still
   describe an impossible structure, and loading must reject it rather
   than crash later during [answer]. *)
let corrupt fmt = Printf.ksprintf (fun s -> raise (C.Corrupt s)) fmt

let guard ctx f =
  try f () with
  | Invalid_argument msg | Failure msg -> corrupt "%s: %s" ctx msg
  | Not_found -> corrupt "%s: missing binding" ctx

let write_vs e vs = C.write_uint e (Varset.to_int vs)
let read_vs d = Varset.of_int_unsafe (C.read_uint d)

let read_vs_in full ctx d =
  let vs = read_vs d in
  if not (Varset.subset vs full) then corrupt "%s: variables out of range" ctx;
  vs

(* relations: schema variables, then the tuple block sorted so the
   column-major delta codec sees slowly-changing columns *)
let write_relation e rel =
  let schema = Relation.schema rel in
  C.write_list e (C.write_uint e) (Schema.vars schema);
  C.write_rows e
    ~arity:(Schema.arity schema)
    (List.sort Tuple.compare (Relation.to_list rel))

let read_relation d =
  let vars = C.read_list d (fun () -> C.read_uint d) in
  let schema = guard "relation schema" (fun () -> Schema.of_list vars) in
  let rows = C.read_rows d ~arity:(Schema.arity schema) in
  let rel = Relation.create schema in
  List.iter (fun r -> guard "relation row" (fun () -> Relation.add rel r)) rows;
  rel

(* Semiring values: the zigzag varint cannot carry the tropical
   ±infinity sentinels (MIN's [max_int], MAX's [min_int]) — [v lsl 1]
   overflows — so they get their own tag bytes. *)
let write_val e v =
  if v = max_int then C.write_u8 e 1
  else if v = min_int then C.write_u8 e 2
  else begin
    C.write_u8 e 0;
    C.write_int e v
  end

let read_val d =
  match C.read_u8 d with
  | 0 -> C.read_int d
  | 1 -> max_int
  | 2 -> min_int
  | n -> corrupt "semiring value: tag %d" n

(* annotated relations: the plain tuple block, then one presence flag
   (and value) per row in the same sorted order write_relation used *)
let write_annotated e rel =
  write_relation e rel;
  List.iter
    (fun tup ->
      match Relation.annotation_opt rel tup with
      | Some v ->
          C.write_bool e true;
          write_val e v
      | None -> C.write_bool e false)
    (List.sort Tuple.compare (Relation.to_list rel))

let read_annotated d =
  let rel = read_relation d in
  List.iter
    (fun tup -> if C.read_bool d then Relation.annotate rel tup (read_val d))
    (List.sort Tuple.compare (Relation.to_list rel));
  rel

(* indexes: the row-major data array (in index order — bucket offsets
   point into it) plus one (key, offset, length) triple per bucket,
   sorted by key for determinism *)
let write_index e idx =
  let schema = Index.source_schema idx in
  let arity = Schema.arity schema in
  let key_vars = Index.key_vars idx in
  C.write_list e (C.write_uint e) key_vars;
  C.write_list e (C.write_uint e) (Schema.vars schema);
  let data = Index.raw_data idx in
  let n_rows = if arity > 0 then Array.length data / arity else Index.space idx in
  C.write_rows e ~arity (List.init n_rows (fun i -> Array.sub data (i * arity) arity));
  let buckets =
    List.sort (fun (a, _, _) (b, _, _) -> Tuple.compare a b) (Index.buckets idx)
  in
  C.write_rows e ~arity:(List.length key_vars)
    (List.map (fun (k, _, _) -> k) buckets);
  List.iter
    (fun (_, start, len) ->
      C.write_uint e start;
      C.write_uint e len)
    buckets

let read_index d =
  let key_vars = C.read_list d (fun () -> C.read_uint d) in
  let vars = C.read_list d (fun () -> C.read_uint d) in
  let schema = guard "index schema" (fun () -> Schema.of_list vars) in
  let data = Array.concat (C.read_rows d ~arity:(Schema.arity schema)) in
  let keys = C.read_rows d ~arity:(List.length key_vars) in
  let buckets =
    List.rev
      (List.fold_left
         (fun acc key ->
           let start = C.read_uint d in
           let len = C.read_uint d in
           (key, start, len) :: acc)
         [] keys)
  in
  guard "index" (fun () ->
      Index.of_buckets ~key_vars ~source_schema:schema ~data ~buckets)

let write_cqap e (q : Cq.cqap) =
  let cq = q.Cq.cq in
  C.write_uint e cq.Cq.n;
  C.write_list e (C.write_string e) (Array.to_list cq.Cq.var_names);
  write_vs e cq.Cq.head;
  write_vs e q.Cq.access;
  C.write_list e
    (fun (a : Cq.atom) ->
      C.write_string e a.Cq.rel;
      C.write_list e (C.write_uint e) a.Cq.vars)
    cq.Cq.atoms

let read_cqap d =
  let n = C.read_uint d in
  if n > 62 then corrupt "cqap: %d variables (max 62)" n;
  let var_names = Array.of_list (C.read_list d (fun () -> C.read_string d)) in
  if Array.length var_names <> n then corrupt "cqap: var_names length";
  let full = Varset.full n in
  let head = read_vs_in full "cqap head" d in
  let access = read_vs_in full "cqap access" d in
  let atoms =
    C.read_list d (fun () ->
        let rel = C.read_string d in
        let vars = C.read_list d (fun () -> C.read_uint d) in
        { Cq.rel; vars })
  in
  let cq = guard "cqap" (fun () -> Cq.create ~var_names ~head atoms) in
  (* [head] was normalized to contain [access] when the index was built,
     so [with_access] reconstructs the head verbatim *)
  guard "cqap access" (fun () -> Cq.with_access cq access)

let write_pmtd e (p : Pmtd.t) =
  let tree = p.Pmtd.td.Td.tree in
  let size = Rtree.size tree in
  C.write_uint e size;
  for i = 0 to size - 1 do
    C.write_int e (match Rtree.parent tree i with None -> -1 | Some q -> q)
  done;
  Array.iter (write_vs e) p.Pmtd.td.Td.bags;
  Array.iter (C.write_bool e) p.Pmtd.materialized

let read_pmtd cqap d =
  let size = C.read_uint d in
  if size = 0 then corrupt "pmtd: empty tree";
  let parent = Array.make size 0 in
  for i = 0 to size - 1 do
    parent.(i) <- C.read_int d
  done;
  let full = Varset.full cqap.Cq.cq.Cq.n in
  let bags = Array.make size Varset.empty in
  for i = 0 to size - 1 do
    bags.(i) <- read_vs_in full "pmtd bag" d
  done;
  let materialized = Array.make size false in
  for i = 0 to size - 1 do
    materialized.(i) <- C.read_bool d
  done;
  let tree = guard "pmtd tree" (fun () -> Rtree.create ~parent) in
  let td = guard "pmtd td" (fun () -> Td.create tree bags) in
  match Pmtd.create cqap td ~materialized with
  | Ok p -> p
  | Error msg -> corrupt "pmtd: %s" msg

let write_rule e (r : Rule.t) =
  C.write_list e (write_vs e) r.Rule.s_targets;
  C.write_list e (write_vs e) r.Rule.t_targets

let read_rule cqap d =
  let full = Varset.full cqap.Cq.cq.Cq.n in
  let s_targets = C.read_list d (fun () -> read_vs_in full "rule s-target" d) in
  let t_targets = C.read_list d (fun () -> read_vs_in full "rule t-target" d) in
  guard "rule" (fun () -> Rule.make cqap ~s_targets ~t_targets)

let write_step e (s : Twopp.step) =
  write_index e s.Twopp.idx;
  C.write_list e (C.write_uint e) s.Twopp.keep

let read_step d =
  let idx = read_index d in
  let keep = C.read_list d (fun () -> C.read_uint d) in
  { Twopp.idx; keep }

let write_structure e st =
  C.write_uint e (Twopp.stored_subproblems st);
  C.write_list e
    (fun (vs, rel) ->
      write_vs e vs;
      write_relation e rel)
    (List.sort (fun (a, _) (b, _) -> Varset.compare a b) (Twopp.s_targets st));
  C.write_list e
    (fun (sub : Twopp.subproblem) ->
      write_vs e sub.Twopp.t_target;
      C.write_uint e sub.Twopp.cap;
      C.write_list e (write_step e) sub.Twopp.probe_plan;
      C.write_list e (write_step e) sub.Twopp.safe_plan)
    (Twopp.delegated st)

let read_structure cqap rule d =
  let full = Varset.full cqap.Cq.cq.Cq.n in
  let stored_subs = C.read_uint d in
  let stored =
    C.read_list d (fun () ->
        let vs = read_vs_in full "stored s-target" d in
        let rel = read_relation d in
        if not (Schema.equal (Relation.schema rel) (schema_of_set vs)) then
          corrupt "stored s-target: relation schema differs from target";
        (vs, rel))
  in
  let delegated =
    C.read_list d (fun () ->
        let t_target = read_vs_in full "delegated t-target" d in
        let cap = C.read_uint d in
        let probe_plan = C.read_list d (fun () -> read_step d) in
        let safe_plan = C.read_list d (fun () -> read_step d) in
        { Twopp.t_target; probe_plan; safe_plan; cap })
  in
  Twopp.import rule ~stored ~delegated ~stored_subs

let write_preprocessed e oy =
  C.write_list e
    (fun (node, rel, idx) ->
      C.write_uint e node;
      write_relation e rel;
      write_index e idx)
    (Online_yannakakis.export oy)

let read_preprocessed (p : Pmtd.t) d =
  let size = Td.size p.Pmtd.td in
  let seen = Array.make size false in
  let entries =
    C.read_list d (fun () ->
        let node = C.read_uint d in
        if node >= size then corrupt "s-view node %d out of range" node;
        if not p.Pmtd.materialized.(node) then
          corrupt "s-view at non-materialized node %d" node;
        if seen.(node) then corrupt "duplicate s-view for node %d" node;
        seen.(node) <- true;
        let rel = read_relation d in
        if
          not
            (Schema.equal (Relation.schema rel)
               (schema_of_set (Pmtd.view p node).Pmtd.vars))
        then corrupt "s-view %d: relation schema differs from the view" node;
        let idx = read_index d in
        (node, rel, idx))
  in
  Array.iteri
    (fun i m -> if m && not seen.(i) then corrupt "missing s-view for node %d" i)
    p.Pmtd.materialized;
  Online_yannakakis.import p entries

let save t path =
  Obs.span "engine.save" ~attrs:[ ("path", Json.String path) ] @@ fun () ->
  Cost.with_counting false @@ fun () ->
  let sections =
    [
      ("cqap", fun e -> write_cqap e t.cqap);
      ("pmtds", fun e -> C.write_list e (write_pmtd e) t.pmtds);
      ("rules", fun e -> C.write_list e (write_rule e) t.rules);
      ("twopp", fun e -> C.write_list e (write_structure e) t.structures);
      ( "yannakakis",
        fun e ->
          C.write_list e (fun (_, oy) -> write_preprocessed e oy) t.preprocessed
      );
      ( "summary",
        fun e ->
          C.write_uint e t.space;
          C.write_uint e (List.length t.pmtds);
          C.write_uint e (List.length t.rules) );
    ]
  in
  (* optional section: the delta epoch.  Written only after the engine
     has absorbed deltas, so snapshots of pristine builds are unchanged
     byte for byte; a replica uses it to tell stale from fresh. *)
  let sections =
    if t.epoch = 0 then sections
    else sections @ [ ("epoch", fun e -> C.write_uint e t.epoch) ]
  in
  (* optional trailing section: a warm answer cache.  Written only when
     one is attached, so snapshots from cache-less engines are unchanged
     byte for byte and readers predating the section still load them. *)
  let sections =
    match t.cache with
    | None -> sections
    | Some cache ->
        sections
        @ [
            ( "cache",
              fun e ->
                C.write_uint e (Cache.budget cache);
                C.write_uint e (Cache.stripes cache);
                C.write_list e
                  (fun (key, _, rel) ->
                    C.write_string e key;
                    (* the key's kind byte picks the value layout: tuple
                       answers are relations, aggregate answers a single
                       scalar (whose tropical sentinels write_rows could
                       not encode) *)
                    match Ckey.decode key with
                    | 0, _, _ -> write_relation e rel
                    | _ ->
                        write_val e
                          (Relation.fold (fun tup _ -> tup.(0)) rel 0))
                  (Cache.export cache) );
          ]
  in
  (* optional section: semiring aggregate state — the annotated factors
     and the precomputed per-kind tables, so a snapshot-shipped replica
     serves aggregates without the base database *)
  let sections =
    match t.agg with
    | None -> sections
    | Some st ->
        let access_arity = Schema.arity (access_schema t) in
        sections
        @ [
            ( "agg",
              fun e ->
                C.write_uint e st.agg_budget;
                C.write_list e
                  (fun (name, rel) ->
                    C.write_string e name;
                    write_annotated e rel)
                  st.agg_factors;
                C.write_list e
                  (fun (k, { complete; entries }) ->
                    C.write_u8 e (Semiring.to_tag k);
                    C.write_bool e complete;
                    let rows =
                      List.sort
                        (fun (a, _) (b, _) -> Tuple.compare a b)
                        (Tuple.Tbl.fold
                           (fun key v acc -> (key, v) :: acc)
                           entries [])
                    in
                    C.write_rows e ~arity:access_arity (List.map fst rows);
                    List.iter (fun (_, v) -> write_val e v) rows)
                  st.agg_tables );
          ]
  in
  (* optional section: the d-representations behind factorized S-views.
     The yannakakis section stays flat (readers predating this section
     load the same views uncompressed); this one restores the compressed
     holders — and with them the compressed space accounting that the
     summary section records. *)
  let sections =
    let any_fact =
      List.exists
        (fun (_, oy) -> Online_yannakakis.factorized_views oy <> [])
        t.preprocessed
    in
    if not any_fact then sections
    else
      sections
      @ [
          ( "factorized",
            fun e ->
              C.write_list e
                (fun (_, oy) ->
                  C.write_list e
                    (fun (node, f) ->
                      C.write_uint e node;
                      Frep.write e f)
                    (Online_yannakakis.factorized_views oy))
                t.preprocessed );
        ]
  in
  match Store.write ~version:format_version path sections with
  | Ok bytes as ok ->
      Obs.incr ~by:bytes "snapshot.write.bytes";
      Obs.set_attr "bytes" (Json.Int bytes);
      ok
  | Error _ as e -> e

let ( let* ) = Result.bind

(* decode in file-section order, pairing aligned sections (structures
   with rules, preprocessed state with PMTDs) by position; [fold_left]
   fixes the evaluation order the shared decoder requires *)
let map_in_order f xs d =
  let n = C.read_uint d in
  if n <> List.length xs then
    corrupt "aligned section: %d entries for %d owners" n (List.length xs);
  List.rev (List.fold_left (fun acc x -> f x d :: acc) [] xs)

let load path =
  Obs.span "engine.load" ~attrs:[ ("path", Json.String path) ] @@ fun () ->
  Cost.with_counting false @@ fun () ->
  let* r = Store.Reader.load ~version:format_version path in
  let bytes = Store.Reader.bytes r in
  Obs.incr ~by:bytes "snapshot.read.bytes";
  Obs.set_attr "bytes" (Json.Int bytes);
  let* cqap = Store.Reader.section r "cqap" read_cqap in
  let* pmtds =
    Store.Reader.section r "pmtds" (fun d ->
        C.read_list d (fun () -> read_pmtd cqap d))
  in
  let* rules =
    Store.Reader.section r "rules" (fun d ->
        C.read_list d (fun () -> read_rule cqap d))
  in
  let* structures =
    Store.Reader.section r "twopp" (map_in_order (read_structure cqap) rules)
  in
  let* preprocessed =
    Store.Reader.section r "yannakakis"
      (map_in_order (fun p d -> (p, read_preprocessed p d)) pmtds)
  in
  (* the factorized section is optional; when present it swaps flat
     holders for the saved d-representations, and must be applied before
     the summary check below — the saved space is the compressed
     accounting.  Each d-rep is revalidated against the flat view it
     replaces: same tuple set, same probe key. *)
  let* () =
    if not (List.mem "factorized" (Store.Reader.section_names r)) then Ok ()
    else
      Store.Reader.section r "factorized"
        (map_in_order
           (fun (_, oy) d ->
             C.read_list d (fun () ->
                 let node = C.read_uint d in
                 let f = Frep.read d in
                 let rel =
                   match Online_yannakakis.view_relation oy node with
                   | Some rel -> rel
                   | None ->
                       corrupt "factorized: node %d has no stored view" node
                 in
                 let mat = Frep.to_relation f in
                 let proj =
                   try
                     Relation.project mat (Schema.vars (Relation.schema rel))
                   with Not_found ->
                     corrupt "factorized: node %d schema differs from view"
                       node
                 in
                 if not (Relation.equal proj rel) then
                   corrupt "factorized: node %d tuples differ from view" node;
                 try Online_yannakakis.set_factorized oy node f
                 with Invalid_argument msg -> corrupt "factorized: %s" msg))
           preprocessed)
      |> Result.map (fun (_ : unit list list) -> ())
  in
  let space =
    List.fold_left
      (fun acc (_, oy) -> acc + Online_yannakakis.space oy)
      0 preprocessed
  in
  let* () =
    Store.Reader.section r "summary" (fun d ->
        let stored_space = C.read_uint d in
        let np = C.read_uint d in
        let nr = C.read_uint d in
        if np <> List.length pmtds then corrupt "summary: pmtd count mismatch";
        if nr <> List.length rules then corrupt "summary: rule count mismatch";
        if stored_space <> space then
          corrupt "summary: space %d but loaded S-views hold %d" stored_space
            space)
  in
  (* the cache section is optional (older snapshots predate it); its
     keys must be canonical encodings over the access schema and its
     answers must live over the head schema, or a hit would silently
     return a wrong or differently-shaped answer *)
  let* cache =
    if not (List.mem "cache" (Store.Reader.section_names r)) then Ok None
    else
      Store.Reader.section r "cache" (fun d ->
          let budget = C.read_uint d in
          let stripes = C.read_uint d in
          if budget <= 0 then corrupt "cache: non-positive budget";
          if stripes <= 0 || stripes > 4096 then
            corrupt "cache: %d stripes out of range" stripes;
          let access = schema_of_set cqap.Cq.access in
          let head_schema = schema_of_set cqap.Cq.cq.Cq.head in
          let cache = Cache.create ~stripes ~budget () in
          let entries =
            C.read_list d (fun () ->
                let key = C.read_string d in
                (* a Short inside the nested key string is a malformed
                   section, not a truncated file *)
                let kind, arity, rows =
                  try Ckey.decode key
                  with C.Short _ -> corrupt "cache key: truncated encoding"
                in
                if kind <> 0 && Semiring.of_tag kind = None then
                  corrupt "cache key: unknown answer kind %d" kind;
                if arity <> Schema.arity access then
                  corrupt "cache key: arity %d for a %d-ary access" arity
                    (Schema.arity access);
                if not (String.equal (Ckey.encode ~kind ~arity rows) key) then
                  corrupt "cache key: not in canonical form";
                let rel =
                  if kind = 0 then begin
                    let rel = read_relation d in
                    if not (Schema.equal (Relation.schema rel) head_schema)
                    then corrupt "cache entry: schema differs from the head";
                    rel
                  end
                  else begin
                    (* aggregate answers are stored as a bare scalar *)
                    let v = read_val d in
                    let rel = Relation.create scalar_schema in
                    Relation.add rel [| v |];
                    rel
                  end
                in
                (key, List.length rows, rel))
          in
          List.iter
            (fun (key, key_tuples, rel) ->
              Cache.install cache ~key ~key_tuples rel)
            entries;
          Some cache)
  in
  let* epoch =
    if not (List.mem "epoch" (Store.Reader.section_names r)) then Ok 0
    else
      Store.Reader.section r "epoch" (fun d ->
          let epoch = C.read_uint d in
          if epoch = 0 then corrupt "epoch: zero epoch should be omitted";
          epoch)
  in
  (* the agg section is optional; a replica that loads one serves
     aggregates without ever seeing the base database *)
  let* agg =
    if not (List.mem "agg" (Store.Reader.section_names r)) then Ok None
    else
      Store.Reader.section r "agg" (fun d ->
          let agg_budget = C.read_uint d in
          let atoms = cqap.Cq.cq.Cq.atoms in
          let agg_factors =
            C.read_list d (fun () ->
                let name = C.read_string d in
                (name, read_annotated d))
          in
          if List.length agg_factors <> List.length atoms then
            corrupt "agg: %d factors for %d atoms"
              (List.length agg_factors) (List.length atoms);
          List.iter2
            (fun (a : Cq.atom) (name, rel) ->
              if not (String.equal name a.Cq.rel) then
                corrupt "agg factor: %s where atom %s expected" name a.Cq.rel;
              if
                not
                  (Schema.equal (Relation.schema rel)
                     (Schema.of_list a.Cq.vars))
              then corrupt "agg factor %s: schema differs from the atom" name)
            atoms agg_factors;
          let access_arity = Varset.cardinal cqap.Cq.access in
          let seen = Hashtbl.create 8 in
          let agg_tables =
            C.read_list d (fun () ->
                let tag = C.read_u8 d in
                let k =
                  match Semiring.of_tag tag with
                  | Some k -> k
                  | None -> corrupt "agg table: unknown kind tag %d" tag
                in
                if Hashtbl.mem seen tag then
                  corrupt "agg table: duplicate kind %s" (Semiring.name k);
                Hashtbl.add seen tag ();
                let complete = C.read_bool d in
                let keys = C.read_rows d ~arity:access_arity in
                let entries = Tuple.Tbl.create (max 16 (List.length keys)) in
                List.iter
                  (fun key ->
                    let v = read_val d in
                    if Tuple.Tbl.mem entries key then
                      corrupt "agg table: duplicate access key";
                    Tuple.Tbl.replace entries key v)
                  keys;
                (k, { complete; entries }))
          in
          Some { agg_budget; agg_factors; agg_tables })
  in
  Obs.set_attr "space" (Json.Int space);
  Obs.set_attr "epoch" (Json.Int epoch);
  Ok
    {
      cqap;
      pmtds;
      rules;
      structures;
      preprocessed;
      space;
      cache;
      epoch;
      (* a snapshot of a thawed engine stores the unreduced views; the
         flag only matters for further maintenance, which imported
         structures reject anyway *)
      thawed = epoch > 0;
      agg;
    }
