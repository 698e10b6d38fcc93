(* Self-tests of the benchmark's own code: tail percentile choice,
   operation accounting, and the oracles against the engine and its
   maintenance on tiny instances. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
open Perfbench

let opt = Alcotest.(option int)

let test_tail_choice () =
  (* the highest rung with at least ten samples beyond its rank *)
  Alcotest.check opt "10000 samples" (Some 999) (Stats.tail_permille 10_000);
  Alcotest.check opt "1000 samples" (Some 990) (Stats.tail_permille 1000);
  Alcotest.check opt "999 samples" (Some 950) (Stats.tail_permille 999);
  Alcotest.check opt "200 samples" (Some 950) (Stats.tail_permille 200);
  Alcotest.check opt "199 samples" (Some 900) (Stats.tail_permille 199);
  Alcotest.check opt "20 samples" (Some 500) (Stats.tail_permille 20);
  Alcotest.check opt "19 samples" None (Stats.tail_permille 19);
  Alcotest.check opt "no samples" None (Stats.tail_permille 0)

let test_summary () =
  let s = Stats.summarize (List.init 1000 (fun i -> float_of_int (1000 - i))) in
  Alcotest.(check int) "n" 1000 s.Stats.n;
  Alcotest.(check (float 0.0)) "p50" 500.0 s.Stats.p50;
  Alcotest.(check (float 0.0)) "p95" 950.0 s.Stats.p95;
  Alcotest.(check (float 0.0)) "p99" 990.0 s.Stats.p99;
  Alcotest.check opt "rung" (Some 990) s.Stats.tail_pm;
  (* beyond 10000 samples p99 stays p99 rather than moving to p99.9 *)
  let big = Stats.summarize (List.init 20_000 float_of_int) in
  Alcotest.check opt "p99 kept" (Some 990) big.Stats.tail_pm;
  let few = Stats.summarize [ 3.0; 1.0; 2.0 ] in
  Alcotest.check opt "too few" None few.Stats.tail_pm;
  Alcotest.(check (float 0.0)) "p95 of three" 3.0 few.Stats.p95;
  Alcotest.(check (float 0.0)) "max reported" 3.0 few.Stats.p99;
  Alcotest.(check (float 0.0)) "median" 2.0 few.Stats.p50

let test_accounting () =
  let t = Stats.tally () in
  Alcotest.(check bool) "empty balanced" true (Stats.balanced t);
  Alcotest.(check (float 0.0)) "empty share" 0.0 (Stats.failed_share t);
  for i = 1 to 8 do
    Stats.attempt t;
    Alcotest.(check bool) "in flight" false (Stats.balanced t);
    if i mod 4 = 0 then Stats.fail t else Stats.complete t
  done;
  Alcotest.(check bool) "balanced" true (Stats.balanced t);
  Alcotest.(check int) "attempted = completed + failed" t.Stats.attempted
    (t.Stats.completed + t.Stats.failed);
  Alcotest.(check (float 1e-12)) "share" 0.25 (Stats.failed_share t)

let tiny_graph =
  [ (0, 1); (1, 2); (2, 3); (0, 4); (4, 2); (3, 0); (2, 5); (5, 3); (1, 4) ]

let rows_of key b = if b then [ key ] else []

let engine_rows e key =
  let q_a = Relation.singleton (Engine.access_schema e) key in
  List.sort compare (Relation.to_list (Engine.answer e ~q_a))

let reach_engine graph =
  let db = Db.create () in
  Db.add_pairs db "R" graph;
  (db, Engine.build_auto (Cq.Library.k_path 3) ~db ~budget:4)

let test_reach_oracle () =
  let db, e = reach_engine tiny_graph in
  Engine.enable_agg ~kinds:[ Stt_semiring.Semiring.Count ] e ~db ~budget:3;
  let o = Oracle.reach ~k:3 tiny_graph in
  for u = 0 to 5 do
    for v = 0 to 5 do
      let key = [| u; v |] in
      Alcotest.(check (list (array int)))
        (Printf.sprintf "rows %d,%d" u v) (engine_rows e key)
        (rows_of key (Oracle.reach_path o key));
      let q_a = Relation.singleton (Engine.access_schema e) key in
      Alcotest.(check int)
        (Printf.sprintf "count %d,%d" u v)
        (fst (Engine.answer_agg e Stt_semiring.Semiring.Count ~q_a))
        (Oracle.reach_count o key)
    done
  done

let test_live_oracle () =
  let _, e = reach_engine tiny_graph in
  let live = Oracle.live tiny_graph in
  let deltas = [ ((0, 1), false); ((3, 1), true); ((3, 1), true); ((4, 2), false); ((5, 0), true) ] in
  List.iter
    (fun ((u, v), add) ->
      let applied, _ =
        (if add then Engine.insert else Engine.delete) e "R" [| u; v |]
      in
      Alcotest.(check bool) "effective" applied (Oracle.apply live (u, v) ~add);
      for a = 0 to 5 do
        for b = 0 to 5 do
          Alcotest.(check (list (array int)))
            (Printf.sprintf "after delta, %d,%d" a b)
            (engine_rows e [| a; b |])
            (rows_of [| a; b |] (Oracle.live_path live ~k:3 [| a; b |]))
        done
      done)
    deltas

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile choice" `Quick test_tail_choice;
          Alcotest.test_case "summaries" `Quick test_summary;
          Alcotest.test_case "failed_share accounting" `Quick test_accounting;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "reach3 rows and COUNT agree with the engine" `Quick
            test_reach_oracle;
          Alcotest.test_case "live edge set agrees with maintenance" `Quick
            test_live_oracle;
        ] );
    ]
