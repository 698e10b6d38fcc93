(* Direct tests for the flat-bucket hash index: build/probe/semijoin/
   join/space, plus the O(1) [count] behavior the rework guarantees. *)

open Stt_relation

let schema = Schema.of_list
let rel vars tuples = Relation.of_list (schema vars) tuples
let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let sorted_tuples ts = List.sort compare (List.map Array.to_list ts)

let test_build_probe () =
  (* R(x0, x1, x2) indexed on x1: buckets group by the middle column *)
  let r =
    rel [ 0; 1; 2 ]
      [
        [| 1; 10; 100 |];
        [| 2; 10; 200 |];
        [| 3; 20; 300 |];
        [| 1; 10; 100 |];
        (* duplicate: relations deduplicate *)
      ]
  in
  let idx = Index.build r [ 1 ] in
  Alcotest.(check (list int)) "key vars" [ 1 ] (Index.key_vars idx);
  Alcotest.check Alcotest.int "space = indexed tuples" 3 (Index.space idx);
  Alcotest.(check (list (list int)))
    "bucket of 10"
    [ [ 1; 10; 100 ]; [ 2; 10; 200 ] ]
    (sorted_tuples (Index.probe idx [| 10 |]));
  Alcotest.(check (list (list int)))
    "bucket of 20"
    [ [ 3; 20; 300 ] ]
    (sorted_tuples (Index.probe idx [| 20 |]));
  Alcotest.(check (list (list int)))
    "missing key" [] (sorted_tuples (Index.probe idx [| 99 |]));
  Alcotest.check Alcotest.bool "probe_mem hit" true (Index.probe_mem idx [| 20 |]);
  Alcotest.check Alcotest.bool "probe_mem miss" false
    (Index.probe_mem idx [| 21 |])

let test_count () =
  let r =
    rel [ 0; 1 ]
      (List.init 50 (fun i -> [| (if i < 47 then 7 else i); i |]))
  in
  let idx = Index.build r [ 0 ] in
  Alcotest.check Alcotest.int "heavy key degree" 47 (Index.count idx [| 7 |]);
  Alcotest.check Alcotest.int "light key degree" 1 (Index.count idx [| 48 |]);
  Alcotest.check Alcotest.int "absent key degree" 0 (Index.count idx [| 999 |]);
  (* counting probes are charged like any other probe *)
  let (), snap = Cost.scoped (fun () -> ignore (Index.count idx [| 7 |])) in
  Alcotest.check Alcotest.int "one probe per count" 1 snap.Cost.probes

let test_count_constant_time () =
  (* O(1) count: time many lookups against a tiny bucket and a huge one;
     a bucket-walking implementation would be ~25000x slower on the huge
     bucket, the stored-length one is within noise (generous 20x gate) *)
  let n = 50_000 in
  let tuples =
    List.init n (fun i -> [| (if i < 2 then 1 else 2); i |])
  in
  let idx = Index.build (rel [ 0; 1 ] tuples) [ 0 ] in
  Alcotest.check Alcotest.int "small bucket" 2 (Index.count idx [| 1 |]);
  Alcotest.check Alcotest.int "huge bucket" (n - 2) (Index.count idx [| 2 |]);
  let time key =
    let reps = 100_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Index.count idx key)
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time [| 1 |]);
  (* warm up *)
  let small = time [| 1 |] and huge = time [| 2 |] in
  if huge > small *. 20.0 +. 0.005 then
    Alcotest.failf
      "count not O(1): %.4fs on a %d-tuple bucket vs %.4fs on a 2-tuple one"
      huge (n - 2) small

let test_semijoin () =
  let r = rel [ 0; 1 ] [ [| 1; 2 |]; [| 3; 4 |]; [| 5; 6 |] ] in
  let s = rel [ 1; 2 ] [ [| 2; 9 |]; [| 6; 9 |] ] in
  let idx = Index.build s [ 1 ] in
  Alcotest.(check (list (list int)))
    "semijoin keeps matching keys"
    [ [ 1; 2 ]; [ 5; 6 ] ]
    (sorted (Index.semijoin r idx));
  (* cost: one scan + one probe per probe-side tuple, nothing per stored
     tuple *)
  let (), snap = Cost.scoped (fun () -> ignore (Index.semijoin r idx)) in
  Alcotest.check Alcotest.int "semijoin scans" 3 snap.Cost.scans;
  Alcotest.check Alcotest.int "semijoin probes" 3 snap.Cost.probes

let test_join () =
  let r = rel [ 0; 1 ] [ [| 1; 2 |]; [| 3; 4 |] ] in
  let s = rel [ 1; 2 ] [ [| 2; 7 |]; [| 2; 8 |]; [| 4; 9 |]; [| 5; 0 |] ] in
  let idx = Index.build s [ 1 ] in
  let out = Index.join r idx in
  Alcotest.(check (list (list int)))
    "join extends with bucket rows"
    [ [ 1; 2; 7 ]; [ 1; 2; 8 ]; [ 3; 4; 9 ] ]
    (sorted out);
  Alcotest.(check (list int))
    "join schema starts with probe side" [ 0; 1; 2 ]
    (Schema.vars (Relation.schema out))

let test_multi_var_key () =
  (* composite key, key vars in non-schema order *)
  let r = rel [ 0; 1; 2 ] [ [| 1; 2; 3 |]; [| 1; 2; 4 |]; [| 9; 2; 3 |] ] in
  let idx = Index.build r [ 2; 0 ] in
  Alcotest.(check (list (list int)))
    "composite key (3, 1)"
    [ [ 1; 2; 3 ] ]
    (sorted_tuples (Index.probe idx [| 3; 1 |]));
  Alcotest.check Alcotest.int "composite count" 1 (Index.count idx [| 4; 1 |])

let test_empty_relation () =
  let idx = Index.build (rel [ 0; 1 ] []) [ 0 ] in
  Alcotest.check Alcotest.int "empty space" 0 (Index.space idx);
  Alcotest.(check (list (list int)))
    "empty probe" [] (sorted_tuples (Index.probe idx [| 1 |]));
  Alcotest.check Alcotest.int "empty count" 0 (Index.count idx [| 1 |])

let test_build_charges_nothing () =
  let r = rel [ 0; 1 ] (List.init 100 (fun i -> [| i; i |])) in
  let (), snap = Cost.scoped (fun () -> ignore (Index.build r [ 0 ])) in
  Alcotest.check Alcotest.int "building is preprocessing (free online)" 0
    (Cost.total snap)

(* ---- the mutable overlay vs a reference relation ---- *)

(* Seeded random runs of inserts, removes and resurrections (re-inserting
   a removed row, which revives a dead flat row in place when the row
   was flat) against a plain [Relation] holding the same set.  The fresh
   inserts grow the overlay past its compaction threshold several times
   per run.  After every step each read path must agree with the
   reference, on every key in play. *)
let test_overlay_differential () =
  let src = [ 0; 1; 2 ] in
  for seed = 1 to 24 do
    let st = Random.State.make [| seed |] in
    let int n = Random.State.int st n in
    let rand_row () = [| int 5; int 5; int 40 |] in
    let key_vars =
      match seed mod 4 with 0 -> [ 1 ] | 1 -> [ 2; 0 ] | 2 -> [] | _ -> [ 0; 1 ]
    in
    let kpos = Schema.positions (schema src) key_vars in
    let reference = rel src (List.init (int 120) (fun _ -> rand_row ())) in
    let idx = Index.build reference key_vars in
    let removed = ref [] in
    let check step =
      let what name = Printf.sprintf "seed %d step %d: %s" seed step name in
      Alcotest.(check int) (what "space") (Relation.cardinal reference)
        (Index.space idx);
      (* the reference bucket of every key in play *)
      let buckets = Tuple.Tbl.create 64 in
      List.iter
        (fun r -> Tuple.Tbl.replace buckets (Tuple.project kpos r) [])
        (rand_row () :: !removed);
      Relation.iter
        (fun r ->
          let key = Tuple.project kpos r in
          let rows = Option.value ~default:[] (Tuple.Tbl.find_opt buckets key) in
          Tuple.Tbl.replace buckets key (Array.to_list r :: rows))
        reference;
      Tuple.Tbl.iter
        (fun key rows ->
          let expect = List.sort compare rows in
          (* plain comparisons: this loop runs millions of times *)
          let agree name ok = if not ok then Alcotest.fail (what name) in
          agree "probe" (sorted_tuples (Index.probe idx key) = expect);
          let iterated = ref [] in
          Index.probe_iter idx key (fun a base ->
              iterated := Array.sub a base 3 :: !iterated);
          agree "probe_iter" (sorted_tuples !iterated = expect);
          agree "probe_mem" (Index.probe_mem idx key = (expect <> []));
          agree "count" (Index.count idx key = List.length expect))
        buckets;
      (* a probe side sharing exactly the key variables, plus var 9 *)
      let probe_side =
        rel (key_vars @ [ 9 ])
          (List.init 8 (fun i ->
               Array.append
                 (Tuple.project kpos (rand_row ()))
                 [| i |]))
      in
      Alcotest.(check bool) (what "semijoin") true
        (Relation.equal
           (Relation.semijoin probe_side reference)
           (Index.semijoin probe_side idx));
      Alcotest.(check bool) (what "join") true
        (Relation.equal
           (Relation.natural_join probe_side reference)
           (Index.join probe_side idx))
    in
    check 0;
    for step = 1 to 300 do
      (match int 10 with
      | 0 | 1 | 2 | 3 | 4 ->
          (* insert: usually fresh, sometimes already present *)
          let r = rand_row () in
          let fresh = not (Relation.mem reference r) in
          Relation.add reference r;
          Alcotest.(check bool) "insert result" fresh (Index.insert idx r)
      | 5 | 6 | 7 -> (
          (* remove a present row, or occasionally an absent one *)
          match Relation.to_list reference with
          | rows when rows <> [] && int 8 > 0 ->
              let r = List.nth rows (int (List.length rows)) in
              ignore (Relation.remove reference r);
              removed := r :: !removed;
              Alcotest.(check bool) "remove present" true (Index.remove idx r)
          | _ ->
              let r = rand_row () in
              let present = Relation.remove reference r in
              Alcotest.(check bool) "remove result" present (Index.remove idx r))
      | _ -> (
          (* resurrect a removed row *)
          match !removed with
          | [] -> ()
          | rows ->
              let r = List.nth rows (int (List.length rows)) in
              let fresh = not (Relation.mem reference r) in
              Relation.add reference r;
              Alcotest.(check bool) "resurrect result" fresh
                (Index.insert idx r)));
      check step
    done
  done

let () =
  Alcotest.run "index"
    [
      ( "index",
        [
          Alcotest.test_case "build and probe" `Quick test_build_probe;
          Alcotest.test_case "count" `Quick test_count;
          Alcotest.test_case "count is O(1)" `Slow test_count_constant_time;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "multi-variable key" `Quick test_multi_var_key;
          Alcotest.test_case "empty relation" `Quick test_empty_relation;
          Alcotest.test_case "build charges nothing" `Quick
            test_build_charges_nothing;
          Alcotest.test_case "overlay differential" `Quick
            test_overlay_differential;
        ] );
    ]
