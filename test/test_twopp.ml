(* The executable 2PP: budget compliance, model coverage (every answer
   tuple is witnessed by stored S-targets or online T-targets), and
   storage behaviour across budgets. *)

open Stt_relation
open Stt_hypergraph
open Stt_decomp
open Stt_core
open Stt_workload

let path2 = Cq.Library.k_path 2
let rule2 = List.hd (Rule.generate path2 (Enum.pmtds path2))

let db_of edges =
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  db

let skewed = Graphs.zipf_both ~seed:11 ~vertices:200 ~edges:2000 ~s:1.1

let test_budget_respected_per_target () =
  List.iter
    (fun budget ->
      let s = Twopp.build rule2 ~db:(db_of skewed) ~budget in
      (* each stored S-target union stays within a small factor of the
         budget (one slice per subproblem) *)
      List.iter
        (fun (_, rel) ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "budget %d, stored %d" budget
               (Relation.cardinal rel))
            true
            (Relation.cardinal rel <= 4 * budget))
        (Twopp.s_targets s))
    [ 50; 500; 5000 ]

let test_more_budget_fewer_delegations () =
  let delegated budget =
    Twopp.delegated_subproblems (Twopp.build rule2 ~db:(db_of skewed) ~budget)
  in
  Alcotest.check Alcotest.bool "monotone-ish" true
    (delegated 1_000_000 <= delegated 50)

let test_model_coverage () =
  (* union of stored S13 and online T123 projections must cover the true
     answer of the access CQ *)
  let db = db_of skewed in
  let s = Twopp.build rule2 ~db ~budget:800 in
  let q_a =
    Relation.of_list
      (Schema.of_list [ 0; 2 ])
      (List.init 50 (fun i -> [| i * 3 mod 200; i * 7 mod 200 |]))
  in
  let truth = Db.eval_access db path2 ~q_a in
  let stored = Twopp.s_targets s in
  let online = Twopp.online s ~q_a in
  let covered tup =
    let find b lst =
      List.find_map
        (fun (b', rel) -> if Varset.equal b b' then Some rel else None)
        lst
    in
    let s13 = Varset.of_list [ 0; 2 ] and t123 = Varset.of_list [ 0; 1; 2 ] in
    (match find s13 stored with
    | Some rel -> Relation.mem rel tup
    | None -> false)
    || (match find s13 online with
       | Some rel -> Relation.mem rel tup
       | None -> false)
    ||
    match find t123 online with
    | Some rel ->
        Relation.fold
          (fun t acc -> acc || (t.(0) = tup.(0) && t.(2) = tup.(1)))
          rel false
    | None -> false
  in
  Relation.iter
    (fun tup ->
      Alcotest.check Alcotest.bool "answer covered" true (covered tup))
    truth

let test_online_soundness () =
  (* T-targets may over-approximate (local exactness) but must never
     contain a tuple violating the atoms inside the target bag *)
  let db = db_of skewed in
  let s = Twopp.build rule2 ~db ~budget:200 in
  let q_a = Relation.of_list (Schema.of_list [ 0; 2 ]) [ [| 0; 1 |]; [| 5; 9 |] ] in
  let edges = Tuple.Tbl.create 64 in
  List.iter (fun (a, b) -> Tuple.Tbl.replace edges [| a; b |] ()) skewed;
  List.iter
    (fun (b, rel) ->
      if Varset.equal b (Varset.of_list [ 0; 1; 2 ]) then
        Relation.iter
          (fun t ->
            Alcotest.check Alcotest.bool "edge x1->x2 present" true
              (Tuple.Tbl.mem edges [| t.(0); t.(1) |]);
            Alcotest.check Alcotest.bool "edge x2->x3 present" true
              (Tuple.Tbl.mem edges [| t.(1); t.(2) |]))
          rel)
    (Twopp.online s ~q_a)

let test_impossible_rule () =
  (* a rule with only S-targets at a hopeless budget must fail *)
  let r = Rule.make path2 ~s_targets:[ Varset.of_list [ 0; 2 ] ] ~t_targets:[] in
  (* dense bipartite-ish graph: S13 is large *)
  let edges =
    List.concat_map (fun i -> List.map (fun j -> (i, 100 + j)) (List.init 40 Fun.id))
      (List.init 40 Fun.id)
    @ List.concat_map
        (fun i -> List.map (fun j -> (100 + i, 200 + j)) (List.init 40 Fun.id))
        (List.init 40 Fun.id)
  in
  (try
     ignore (Twopp.build r ~db:(db_of edges) ~budget:5);
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  (* but with a huge budget it stores fine *)
  let s = Twopp.build r ~db:(db_of edges) ~budget:10_000_000 in
  Alcotest.check Alcotest.bool "stored" true (Twopp.space s > 0)

(* ---- pipelined executor vs a materialize-then-project reference ---- *)

(* The step-at-a-time executor: join the whole accumulator with each
   step index, check the cap on the join's cardinality, project to
   [keep]; finally project onto the target. *)
let reference_run ?cap plan q_a ~target =
  let acc = ref q_a in
  List.iter
    (fun { Twopp.idx; keep } ->
      acc := Index.join !acc idx;
      (match cap with
      | Some c when Relation.cardinal !acc > c -> raise Twopp.Plan_abort
      | _ -> ());
      acc := Relation.project !acc keep)
    plan;
  Relation.project !acc target

(* A random plan over variables 0..5 starting from a random access
   request: each step indexes a random relation on the variables it
   shares with the current row and keeps a random (shuffled) subset of
   the joined variables; about half the step indexes carry a live
   overlay (rows inserted and removed after the build). *)
type case = {
  plan : Twopp.step list;
  q_a : Relation.t;
  target : Schema.var list;
  drops : bool;   (* an intermediate step projects variables away *)
  overlay : bool; (* some step index has extra and dead rows *)
}

let random_case st =
  let int n = Random.State.int st n in
  let shuffle l =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
  in
  let take k l = List.filteri (fun i _ -> i < k) l in
  let dom = 2 + int 4 in
  let rand_rows vars k =
    List.init k (fun _ -> Array.init (List.length vars) (fun _ -> int dom))
  in
  let access = take (1 + int 2) (shuffle [ 0; 1; 2 ]) in
  let q_a = Relation.of_list (Schema.of_list access) (rand_rows access (1 + int 4)) in
  let cur = ref access and drops = ref false and overlay = ref false in
  let steps = 1 + int 3 in
  let plan =
    List.init steps (fun i ->
        let vars = take (1 + int 3) (shuffle [ 0; 1; 2; 3; 4; 5 ]) in
        let vars =
          if List.exists (fun v -> List.mem v !cur) vars then vars
          else List.hd !cur :: vars
        in
        let vars = shuffle (List.sort_uniq compare vars) in
        let rel = Relation.of_list (Schema.of_list vars) (rand_rows vars (int 30)) in
        let idx = Index.build rel (List.filter (fun v -> List.mem v !cur) vars) in
        if int 2 = 0 then begin
          let added =
            List.filter (Index.insert idx) (rand_rows vars (1 + int 4))
          in
          let removed =
            List.filter (Index.remove idx) (take 3 (Relation.to_list rel))
          in
          if added <> [] && removed <> [] then overlay := true
        end;
        let joined = !cur @ List.filter (fun v -> not (List.mem v !cur)) vars in
        let keep = List.filter (fun _ -> int 3 > 0) joined in
        let keep = if keep = [] then [ List.hd joined ] else shuffle keep in
        if i < steps - 1 && List.length keep < List.length joined then
          drops := true;
        cur := keep;
        { Twopp.idx; keep })
  in
  let target = List.filter (fun _ -> int 2 = 0) !cur in
  let target = if target = [] then [ List.hd !cur ] else target in
  { plan; q_a; target = List.sort compare target; drops = !drops;
    overlay = !overlay }

let test_pipelined_vs_reference () =
  let st = Random.State.make [| 13 |] in
  let check_le what a b = Alcotest.check Alcotest.bool what true (a <= b) in
  let aborts = ref 0 and projecting = ref 0 and multi = ref 0
  and overlays = ref 0 in
  for _ = 1 to 400 do
    let { plan; q_a; target; drops; overlay } = random_case st in
    let schema = Schema.of_list target in
    if Relation.cardinal q_a > 1 then incr multi;
    if drops then incr projecting;
    if overlay then incr overlays;
    (* uncapped: same rows, same probes, never more tuples or scans *)
    let expect, rc = Cost.measure (fun () -> reference_run plan q_a ~target) in
    let got = Relation.create schema in
    let (), pc = Cost.measure (fun () -> Twopp.run_plan ~into:got plan q_a) in
    Alcotest.check Alcotest.bool "rows" true (Relation.equal expect got);
    Alcotest.check Alcotest.int "probes" rc.Cost.probes pc.Cost.probes;
    check_le "tuples" pc.Cost.tuples rc.Cost.tuples;
    check_le "scans" pc.Cost.scans rc.Cost.scans;
    (* capped: the abort fires on exactly the same runs, and the safe
       rerun into the same relation yields the same rows *)
    List.iter
      (fun cap ->
        let run_ref () =
          try (false, reference_run ~cap plan q_a ~target)
          with Twopp.Plan_abort -> (true, reference_run plan q_a ~target)
        in
        let run_pip () =
          let into = Relation.create schema in
          let aborted =
            try Twopp.run_plan ~cap ~into plan q_a; false
            with Twopp.Plan_abort -> Twopp.run_plan ~into plan q_a; true
          in
          (aborted, into)
        in
        let (ra, expect), rc = Cost.measure run_ref in
        let (pa, got), pc = Cost.measure run_pip in
        if ra then incr aborts;
        Alcotest.check Alcotest.bool "abort agrees" ra pa;
        Alcotest.check Alcotest.bool "capped rows" true
          (Relation.equal expect got);
        if cap = 0 then begin
          (* the reference probes every access tuple before aborting,
             the pipeline stops at the first match *)
          check_le "abort probes" pc.Cost.probes rc.Cost.probes;
          check_le "abort tuples" pc.Cost.tuples rc.Cost.tuples;
          check_le "abort scans" pc.Cost.scans rc.Cost.scans
        end)
      [ 0; 1; 3 ]
  done;
  (* the random cases really cover aborts, projections, multi-tuple
     requests and live overlays *)
  check_le "aborts covered" 51 !aborts;
  check_le "projections covered" 51 !projecting;
  check_le "multi-tuple q_a covered" 51 !multi;
  check_le "overlays covered" 51 !overlays

let () =
  Alcotest.run "twopp"
    [
      ( "twopp",
        [
          Alcotest.test_case "budget respected" `Quick
            test_budget_respected_per_target;
          Alcotest.test_case "delegations shrink with budget" `Quick
            test_more_budget_fewer_delegations;
          Alcotest.test_case "model coverage" `Quick test_model_coverage;
          Alcotest.test_case "online local soundness" `Quick
            test_online_soundness;
          Alcotest.test_case "impossible rule" `Quick test_impossible_rule;
          Alcotest.test_case "pipelined executor = reference" `Quick
            test_pipelined_vs_reference;
        ] );
    ]
