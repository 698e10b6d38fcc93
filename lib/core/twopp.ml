open Stt_relation
open Stt_hypergraph
open Stt_polymatroid
open Stt_lp
open Stt_obs
module Fconfig = Stt_factorized.Config
module Frep = Stt_factorized.Frep

(* One probing step of an online plan: probe the indexed relation with
   each incoming row, then project every match to [keep]. *)
type step = { idx : Index.t; keep : Schema.var list }

type subproblem = {
  t_target : Varset.t;
  probe_plan : step list; (* greedy degree order: great average case *)
  safe_plan : step list;  (* min worst-case-estimate order *)
  cap : int;              (* abort threshold for the probe plan *)
}

(* ------------------------------------------------------------------ *)
(* incremental maintenance state                                        *)
(* ------------------------------------------------------------------ *)

(* A delegated combo remembers which atom each plan step indexes, so a
   leaf delta can patch exactly the affected step indexes in place. *)
type dsub = {
  sub : subproblem;
  probe_atoms : Cq.atom list; (* aligned with sub.probe_plan *)
  safe_atoms : Cq.atom list;  (* aligned with sub.safe_plan *)
}

type decision =
  | M_absent (* some leaf empty at build (or never activated since) *)
  | M_stored of Varset.t
  | M_delegated of dsub

type combo = {
  crel : (Cq.atom * Relation.t) list; (* this combo's leaf per atom *)
  mutable cdecision : decision;
}

(* The heavy/light subproblem lattice as an explicit binary tree, one
   node per split occurrence (exactly mirroring [expand]'s recursion).
   Each node tracks the degree state deg(Y|X) of its input set so a
   tuple delta re-routes — and, when a key crosses the threshold,
   re-classifies — only the affected keys. *)
type ctree =
  | CLeaf of combo
  | CNode of {
      catom : Cq.atom;
      x_pos : int array; (* positions in the atom schema *)
      y_pos : int array;
      cthreshold : int;
      ycount : int Tuple.Tbl.t;  (* y-projection multiplicity *)
      xdeg : int Tuple.Tbl.t;    (* distinct-y degree per x key *)
      members : Tuple.t list ref Tuple.Tbl.t; (* x key -> input tuples *)
      cheavy : ctree;
      clight : ctree;
    }

type maint = {
  mbudget : int;
  base : (Cq.atom * Relation.t) list; (* live base relation per atom *)
  tree : ctree;
  combos : combo list; (* leaves in canonical heavy-first order *)
}

type t = {
  rule : Rule.t;
  mutable stored : (Varset.t * Relation.t) list;
  mutable space : int;
  mutable delegated : subproblem list;
  mutable stored_subs : int; (* subproblems materialized within the budget *)
  maint : maint option; (* None for snapshot-loaded (static) structures *)
}

let rule t = t.rule
let s_targets t = t.stored
let space t = t.space
let delegated t = t.delegated
let delegated_subproblems t = List.length t.delegated
let stored_subproblems t = t.stored_subs
let supports_maintenance t = t.maint <> None

let base_relations t =
  match t.maint with Some m -> m.base | None -> []

let base_mem t ~rel tuple =
  match t.maint with
  | None -> false
  | Some m ->
      List.exists
        (fun ((a : Cq.atom), base_rel) ->
          a.Cq.rel = rel
          && Tuple.arity tuple = List.length a.Cq.vars
          && Relation.mem base_rel tuple)
        m.base

let stored_mem t b row =
  match List.find_opt (fun (b', _) -> Varset.equal b b') t.stored with
  | Some (_, rel) -> Relation.mem rel row
  | None -> false

let import rule ~stored ~delegated ~stored_subs =
  let space =
    List.fold_left (fun acc (_, rel) -> acc + Relation.cardinal rel) 0 stored
  in
  { rule; stored; space; delegated; stored_subs; maint = None }

(* Quantized to 1/16 so the target-selection LPs keep small denominators
   (exact simplex on native-int rationals). *)
let log2_rat x =
  let bits = Float.log2 (float_of_int (max 2 x)) in
  Rat.make (int_of_float (Float.round (16.0 *. bits))) 16

(* Partition an atom's relation into (heavy, light) by the degree
   deg(Y | X) measured on distinct Y-projections.  Runs under the
   caller's counting mode: quiet inside a default build, charged inside
   a [~counted] rebuild. *)
let split_atom rel ~x_vars ~y_vars ~threshold =
  let proj = Relation.project rel y_vars in
  let degs = Relation.degrees proj x_vars in
  let schema = Relation.schema rel in
  let x_pos = Schema.positions schema x_vars in
  let heavy = Relation.create schema and light = Relation.create schema in
  Relation.iter
    (fun tup ->
      let key = Tuple.project x_pos tup in
      let d =
        match Tuple.Tbl.find_opt degs key with Some d -> d | None -> 0
      in
      if d > threshold then Relation.add heavy tup else Relation.add light tup)
    rel;
  (heavy, light)

(* Measured degree constraints of a subproblem, for target selection. *)
let measured_dc rels =
  List.concat_map
    (fun ((atom : Cq.atom), rel) ->
      let fvars = Cq.atom_vars atom in
      let card =
        Degree.cardinality fvars
          { Degree.d = log2_rat (max 1 (Relation.cardinal rel)); q = Rat.zero }
      in
      let per_var =
        List.filter_map
          (fun v ->
            if Varset.cardinal fvars < 2 then None
            else
              let d = Relation.max_degree rel [ v ] in
              Some
                (Degree.make ~x:(Varset.singleton v) ~y:fvars
                   { Degree.d = log2_rat (max 1 d); q = Rat.zero }))
          (Varset.to_list fvars)
      in
      card :: per_var)
    rels

let pick_target n ~dc targets =
  match targets with
  | [ b ] -> b
  | _ ->
      let scored =
        List.map
          (fun b ->
            ( b,
              Polymatroid.log_size_bound ~n ~dc ~targets:[ b ] ~logd:Rat.one
                ~logq:Rat.zero ))
          targets
      in
      let best =
        List.fold_left
          (fun acc (b, bound) ->
            match (acc, bound) with
            | None, Some v -> Some (b, v)
            | Some (_, v0), Some v when Rat.compare v v0 < 0 -> Some (b, v)
            | acc, _ -> acc)
          None scored
      in
      (match best with Some (b, _) -> b | None -> List.hd targets)

let pick_target n ~dc targets =
  try pick_target n ~dc targets with Rat.Overflow -> List.hd targets

(* The atoms joined for a local T-target: every atom contained in the
   target bag (required for the Yannakakis soundness argument), extended
   greedily until the target's variables are covered. *)
let local_atoms rels ~access b =
  let inside, outside =
    List.partition (fun (a, _) -> Varset.subset (Cq.atom_vars a) b) rels
  in
  let covered =
    List.fold_left
      (fun acc (a, _) -> Varset.union acc (Cq.atom_vars a))
      access inside
  in
  let rec extend covered chosen pool =
    if Varset.subset b covered then List.rev chosen
    else
      let missing = Varset.diff b covered in
      let gain (a, _) = Varset.cardinal (Varset.inter (Cq.atom_vars a) missing) in
      match
        List.filter (fun ar -> gain ar > 0) pool
        |> List.sort (fun a b -> compare (gain b) (gain a))
      with
      | [] -> List.rev chosen (* cannot happen: every var is in an atom *)
      | best :: _ ->
          extend
            (Varset.union covered (Cq.atom_vars (fst best)))
            (best :: chosen)
            (List.filter (fun ar -> ar != best) pool)
  in
  inside @ extend covered [] outside

(* Worst-case cost of joining the atoms in a given order, starting from
   the access schema with |Q_A| = 1: each step multiplies the running
   size bound by the relation's max degree on the shared variables —
   or by its full cardinality when no variable is shared (a product,
   which PANDA-style plans legitimately use to hit D·|Q| bounds).  The
   accumulated intermediate sizes are summed. *)
let order_cost ~access order =
  let rec go bound seen total = function
    | [] -> total
    | (a, rel) :: rest ->
        let shared =
          List.filter (fun v -> Varset.mem v seen)
            (Varset.to_list (Cq.atom_vars a))
        in
        let step_factor =
          match shared with
          | [] -> Relation.cardinal rel
          | sh -> Relation.max_degree rel sh
        in
        let bound' =
          if step_factor <= 0 then 0
          else if bound > max_int / max 1 step_factor then max_int / 2
          else bound * step_factor
        in
        let seen' = Varset.union seen (Cq.atom_vars a) in
        let total' = if total > max_int - bound' then max_int / 2 else total + bound' in
        go bound' seen' total' rest

  in
  go 1 access 0 order

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* materialize an ordered atom list into indexed steps with early
   projection *)
let steps_of_order ~access ~target order =
  let acc_schema = ref (Varset.to_list access) in
  let steps = ref [] in
  List.iteri
    (fun i (atom, rel) ->
      let key =
        List.filter
          (fun v -> List.mem v !acc_schema)
          (Varset.to_list (Cq.atom_vars atom))
      in
      let idx = Index.build rel key in
      acc_schema :=
        !acc_schema
        @ List.filter
            (fun v -> not (List.mem v !acc_schema))
            (Varset.to_list (Cq.atom_vars atom));
      (* early projection: keep target vars, access vars and anything a
         later atom still joins on *)
      let rest = List.filteri (fun j _ -> j > i) order in
      let needed =
        List.fold_left
          (fun acc (a, _) -> Varset.union acc (Cq.atom_vars a))
          (Varset.union target access)
          rest
      in
      let keep = List.filter (fun v -> Varset.mem v needed) !acc_schema in
      acc_schema := keep;
      steps := { idx; keep } :: !steps)
    order;
  List.rev !steps

(* greedy order: cheapest connected extension first — excellent on
   average but can cascade through hubs in the worst case *)
let greedy_order ~access atoms =
  let seen = ref access in
  let remaining = ref atoms in
  let out = ref [] in
  while !remaining <> [] do
    let cost (a, rel) =
      let shared =
        List.filter (fun v -> Varset.mem v !seen)
          (Varset.to_list (Cq.atom_vars a))
      in
      match shared with
      | [] -> max_int
      | sh -> Relation.max_degree rel sh
    in
    let best =
      List.fold_left
        (fun acc ar ->
          match acc with
          | Some b when cost b <= cost ar -> acc
          | _ -> Some ar)
        None !remaining
    in
    let chosen = Option.get best in
    remaining := List.filter (fun ar -> ar != chosen) !remaining;
    seen := Varset.union !seen (Cq.atom_vars (fst chosen));
    out := chosen :: !out
  done;
  List.rev !out

(* min worst-case-estimate order: considers product-then-filter plans,
   which realize the paper's D·|Q|-style bounds *)
let safe_order ~access atoms =
  if List.length atoms > 5 then atoms
  else
    match permutations atoms with
    | [] -> []
    | first :: _ as perms ->
        List.fold_left
          (fun best o ->
            if order_cost ~access o < order_cost ~access best then o else best)
          first perms

(* Build both plans for one subproblem; online execution runs the greedy
   plan with the safe plan's worst-case estimate as an abort cap and
   falls back when it trips — adaptive, at most ~2x the worst-case
   bound, near-greedy on typical requests.  Also returns the atom behind
   each step, so incremental maintenance can patch step indexes. *)
let build_plan rels ~access ~target =
  Cost.with_counting false (fun () ->
      let atoms = local_atoms rels ~access target in
      let safe = safe_order ~access atoms in
      let greedy = greedy_order ~access atoms in
      let cap = 2 * (1 + order_cost ~access safe) in
      ( steps_of_order ~access ~target greedy,
        List.map fst greedy,
        steps_of_order ~access ~target safe,
        List.map fst safe,
        cap ))

(* evaluate the (partial) body join projected onto each target, giving
   up early on any materialization that cannot fit the budget; joins are
   bounded by a small multiple of the budget because intermediates can
   legitimately overshoot the projected result *)
let eval_targets rels targets ~budget =
  let relations = List.map snd rels in
  let limit = 16 * max 1 budget in
  List.filter_map
    (fun b ->
      match
        Db.join_greedy_bounded relations ~keep:(Varset.to_list b) ~limit
      with
      | Some rel -> Some (b, rel)
      | None -> None)
    targets

(* ------------------------------------------------------------------ *)
(* the split tree                                                       *)
(* ------------------------------------------------------------------ *)

let combo_nonempty c =
  List.for_all (fun (_, r) -> not (Relation.is_empty r)) c.crel

let rec combos_of = function
  | CLeaf c -> [ c ]
  | CNode n -> combos_of n.cheavy @ combos_of n.clight

(* [tree_insert]/[tree_delete] keep the invariant that every tuple lives
   in the branch matching its x key's *current* distinct-y degree, so
   the leaves always equal what a batch rebuild of the splits would
   produce.  Leaf changes are appended to [events] as
   [(combo, tuple, added?)] — all for the same atom. *)
let rec tree_insert tr atom tup events =
  match tr with
  | CLeaf c ->
      let rel = List.assq atom c.crel in
      Relation.add rel tup;
      events := (c, tup, true) :: !events
  | CNode n ->
      if n.catom != atom then begin
        (* a split of another atom: the tuple flows into both branches *)
        tree_insert n.cheavy atom tup events;
        tree_insert n.clight atom tup events
      end
      else begin
        Cost.charge_probe ();
        let y = Tuple.project n.y_pos tup in
        let x = Tuple.project n.x_pos tup in
        let yc =
          Option.value ~default:0 (Tuple.Tbl.find_opt n.ycount y)
        in
        Tuple.Tbl.replace n.ycount y (yc + 1);
        if yc = 0 then begin
          let xd = Option.value ~default:0 (Tuple.Tbl.find_opt n.xdeg x) in
          Tuple.Tbl.replace n.xdeg x (xd + 1);
          if xd = n.cthreshold then begin
            (* the key crossed upward: its resident tuples move
               light -> heavy before the new tuple lands *)
            let ms =
              match Tuple.Tbl.find_opt n.members x with
              | Some l -> !l
              | None -> []
            in
            List.iter
              (fun m ->
                Cost.charge_scan ();
                tree_delete n.clight atom m events;
                tree_insert n.cheavy atom m events)
              ms
          end
        end;
        (match Tuple.Tbl.find_opt n.members x with
        | Some l -> l := tup :: !l
        | None -> Tuple.Tbl.add n.members x (ref [ tup ]));
        let xd = Tuple.Tbl.find n.xdeg x in
        if xd > n.cthreshold then tree_insert n.cheavy atom tup events
        else tree_insert n.clight atom tup events
      end

and tree_delete tr atom tup events =
  match tr with
  | CLeaf c ->
      let rel = List.assq atom c.crel in
      ignore (Relation.remove rel tup);
      events := (c, tup, false) :: !events
  | CNode n ->
      if n.catom != atom then begin
        tree_delete n.cheavy atom tup events;
        tree_delete n.clight atom tup events
      end
      else begin
        Cost.charge_probe ();
        let y = Tuple.project n.y_pos tup in
        let x = Tuple.project n.x_pos tup in
        let yc = Option.value ~default:0 (Tuple.Tbl.find_opt n.ycount y) in
        let old_xd = Option.value ~default:0 (Tuple.Tbl.find_opt n.xdeg x) in
        if yc <= 1 then Tuple.Tbl.remove n.ycount y
        else Tuple.Tbl.replace n.ycount y (yc - 1);
        let crossed_down = yc = 1 && old_xd = n.cthreshold + 1 in
        if yc = 1 then
          if old_xd <= 1 then Tuple.Tbl.remove n.xdeg x
          else Tuple.Tbl.replace n.xdeg x (old_xd - 1);
        (match Tuple.Tbl.find_opt n.members x with
        | Some l ->
            l := List.filter (fun m -> not (Tuple.equal m tup)) !l;
            if !l = [] then Tuple.Tbl.remove n.members x
        | None -> ());
        (* the tuple lives in the branch of its old classification *)
        let was_heavy = old_xd > n.cthreshold in
        tree_delete (if was_heavy then n.cheavy else n.clight) atom tup events;
        if crossed_down then begin
          let ms =
            match Tuple.Tbl.find_opt n.members x with
            | Some l -> !l
            | None -> []
          in
          List.iter
            (fun m ->
              Cost.charge_scan ();
              tree_delete n.cheavy atom m events;
              tree_insert n.clight atom m events)
            ms
        end
      end

(* ------------------------------------------------------------------ *)
(* build                                                                *)
(* ------------------------------------------------------------------ *)

(* One materialization pass.  [budget_lp] drives the guide LP's space
   exponent and the candidate-evaluation limit — how aggressively the
   splits steer tuples toward storage; [budget] is the stored-singleton
   budget every admitted candidate is charged against (at its effective,
   possibly compressed, size).  A plain build has [budget_lp = budget];
   the amplified second pass of {!build} raises only [budget_lp].
   Besides the structure, returns the total cardinality and effective
   size of the best candidates seen, the measured compression evidence
   {!build} amplifies on. *)
let build_pass ~counted (r : Rule.t) ~db ~budget ~budget_lp =
  Obs.span "twopp.build"
    ~attrs:
      [
        ("rule", Json.String (Format.asprintf "%a" Rule.pp r));
        ("budget", Json.Int budget);
        ("budget_lp", Json.Int budget_lp);
      ]
  @@ fun () ->
  Cost.with_counting counted (fun () ->
      let cqap = r.Rule.cqap in
      let cq = cqap.Cq.cq in
      let n = cq.Cq.n in
      let vs_str b =
        "{"
        ^ String.concat ","
            (List.map (fun v -> cq.Cq.var_names.(v)) (Varset.to_list b))
        ^ "}"
      in
      let access = cqap.Cq.access in
      let dc = Degree.default_dc cq and ac = Degree.default_ac cqap in
      let dsize = max 2 (Db.size db) in
      let logd_abs = Float.log2 (float_of_int dsize) in
      let logs =
        Rat.of_float_approx ~max_den:1024
          (Float.log2 (float_of_int (max 2 budget_lp)) /. logd_abs)
      in
      let pivots_before = Simplex.pivot_count () in
      let point =
        (* if the guide LP overflows, build an unguided (split-free)
           structure — correct, just without heavy/light partitioning *)
        try Jointflow.obj r ~dc ~ac ~logd:Rat.one ~logq:Rat.zero ~logs
        with Rat.Overflow ->
          {
            Jointflow.value = Jointflow.Time Rat.zero;
            tradeoff = None;
            split_pairs = [];
            hs = [];
            split_duals = [];
            lp_vars = 0;
            lp_cstrs = 0;
          }
      in
      let lp_pivots = Simplex.pivot_count () - pivots_before in
      Obs.incr ~by:lp_pivots "simplex.pivots";
      Obs.set_attr "lp"
        (Json.Obj
           [
             ("vars", Json.Int point.Jointflow.lp_vars);
             ("cstrs", Json.Int point.Jointflow.lp_cstrs);
             ("pivots", Json.Int lp_pivots);
             ( "split_duals",
               Json.List
                 (List.map
                    (fun (x, y, g) ->
                      Json.Obj
                        [
                          ("x", Json.String (vs_str x));
                          ("y", Json.String (vs_str y));
                          ("dual", Json.String (Rat.to_string g));
                        ])
                    point.Jointflow.split_duals) );
           ]);
      (* [Impossible] is a worst-case prediction; actual materialization is
         still attempted below and only fails if the real data does not
         fit either. *)
      let base = List.map (fun a -> (a, Db.relation db a)) cq.Cq.atoms in
      let hs_of x =
        match List.assoc_opt x point.Jointflow.hs with
        | Some v -> v
        | None -> Rat.zero
      in
      (* attach each dual-positive split pair to its first guarding atom *)
      let splits =
        List.filter_map
          (fun (x, y) ->
            match
              List.find_opt
                (fun (a, _) -> Varset.subset y (Cq.atom_vars a))
                base
            with
            | None -> None
            | Some (atom, rel) ->
                let exp = Rat.to_float (hs_of x) *. logd_abs in
                let t =
                  float_of_int (max 1 (Relation.cardinal rel))
                  /. Float.pow 2.0 exp
                in
                Some (atom, x, y, max 1 (int_of_float (Float.round t))))
          (List.sort_uniq compare point.Jointflow.split_pairs)
      in
      (* subproblems: every heavy/light choice over the split pairs,
         materialized as an explicit tree whose nodes carry the degree
         state needed to re-route tuple deltas later *)
      let rec expand_tree rels = function
        | [] -> CLeaf { crel = rels; cdecision = M_absent }
        | (atom, x, y, threshold) :: rest ->
            let rel = List.assq atom rels in
            let heavy, light =
              Obs.span "twopp.split" (fun () ->
                  let h, l =
                    split_atom rel
                      ~x_vars:(Varset.to_list x)
                      ~y_vars:(Varset.to_list y)
                      ~threshold
                  in
                  Obs.set_attr "atom" (Json.String atom.Cq.rel);
                  Obs.set_attr "x" (Json.String (vs_str x));
                  Obs.set_attr "y" (Json.String (vs_str y));
                  Obs.set_attr "threshold" (Json.Int threshold);
                  Obs.set_attr "heavy" (Json.Int (Relation.cardinal h));
                  Obs.set_attr "light" (Json.Int (Relation.cardinal l));
                  (h, l))
            in
            let schema = Relation.schema rel in
            let x_pos = Schema.positions schema (Varset.to_list x) in
            let y_pos = Schema.positions schema (Varset.to_list y) in
            let ycount = Tuple.Tbl.create 64 in
            let xdeg = Tuple.Tbl.create 64 in
            let members = Tuple.Tbl.create 64 in
            Relation.iter
              (fun tup ->
                let yk = Tuple.project y_pos tup in
                let xk = Tuple.project x_pos tup in
                (match Tuple.Tbl.find_opt ycount yk with
                | Some c -> Tuple.Tbl.replace ycount yk (c + 1)
                | None ->
                    Tuple.Tbl.add ycount yk 1;
                    (match Tuple.Tbl.find_opt xdeg xk with
                    | Some d -> Tuple.Tbl.replace xdeg xk (d + 1)
                    | None -> Tuple.Tbl.add xdeg xk 1));
                match Tuple.Tbl.find_opt members xk with
                | Some l -> l := tup :: !l
                | None -> Tuple.Tbl.add members xk (ref [ tup ]))
              rel;
            let with_rel repl =
              List.map
                (fun (a, r0) -> if a == atom then (a, repl) else (a, r0))
                rels
            in
            let cheavy = expand_tree (with_rel heavy) rest in
            let clight = expand_tree (with_rel light) rest in
            CNode
              {
                catom = atom; x_pos; y_pos; cthreshold = threshold;
                ycount; xdeg; members; cheavy; clight;
              }
      in
      let tree = expand_tree base splits in
      let combos = combos_of tree in
      let stored_acc : (Varset.t, Relation.t) Hashtbl.t = Hashtbl.create 8 in
      let union_into b rel =
        let acc =
          match Hashtbl.find_opt stored_acc b with
          | Some existing -> existing
          | None ->
              let fresh =
                Relation.create (Schema.of_list (Varset.to_list b))
              in
              Hashtbl.add stored_acc b fresh;
              fresh
        in
        let pos =
          Schema.positions (Relation.schema rel)
            (Schema.vars (Relation.schema acc))
        in
        Relation.iter (fun row -> Relation.add acc (Tuple.project pos row)) rel
      in
      let delegated = ref [] in
      let stored_subs = ref 0 in
      let n_live = ref 0 in
      let cand_rows = ref 0 in
      let cand_eff = ref 0 in
      List.iter
        (fun c ->
          if combo_nonempty c then begin
            incr n_live;
            Obs.span "twopp.subproblem" @@ fun () ->
            let rels = c.crel in
            let candidates =
              match r.Rule.s_targets with
              | [] -> []
              | s_targets -> eval_targets rels s_targets ~budget:budget_lp
            in
            (* admission charges a candidate at the stored-singleton
               size it would actually occupy: its d-representation size
               when factorization is on and the measured ratio clears
               the gate, its flat cardinality otherwise.  Under mode
               [Off] this is exactly the pre-factorization cardinality
               test. *)
            let admission_size rel =
              let rows = Relation.cardinal rel in
              if Fconfig.mode () = Fconfig.Off then rows
              else
                Fconfig.effective_size ~rows
                  ~size:(Frep.size (Frep.of_relation rel))
            in
            let best =
              List.fold_left
                (fun acc (b, rel) ->
                  let eff = admission_size rel in
                  match acc with
                  | Some (_, _, best_eff) when best_eff <= eff -> acc
                  | _ -> Some (b, rel, eff))
                None candidates
            in
            (match best with
            | Some (_, rel, eff) ->
                cand_rows := !cand_rows + Relation.cardinal rel;
                cand_eff := !cand_eff + eff
            | None -> ());
            match best with
            | Some (b, rel, eff) when eff <= budget ->
                incr stored_subs;
                Obs.set_attr "decision" (Json.String "stored");
                Obs.set_attr "target" (Json.String (vs_str b));
                Obs.set_attr "tuples" (Json.Int (Relation.cardinal rel));
                union_into b rel;
                c.cdecision <- M_stored b
            | _ -> (
                (match best with
                | Some (_, _, eff) ->
                    (* best S-candidate existed but blew the budget *)
                    Obs.set_attr "best_eff" (Json.Int eff)
                | None -> ());
                match r.Rule.t_targets with
                | [] -> failwith "Twopp.build: rule impossible at this budget"
                | t_targets ->
                    let sub_dc = measured_dc rels in
                    let t_target = pick_target n ~dc:sub_dc t_targets in
                    Obs.set_attr "decision" (Json.String "delegated");
                    Obs.set_attr "target" (Json.String (vs_str t_target));
                    let probe_plan, probe_atoms, safe_plan, safe_atoms, cap =
                      build_plan rels ~access ~target:t_target
                    in
                    let sub = { t_target; probe_plan; safe_plan; cap } in
                    delegated := sub :: !delegated;
                    c.cdecision <- M_delegated { sub; probe_atoms; safe_atoms })
          end)
        combos;
      let stored =
        Hashtbl.fold (fun b rel acc -> (b, rel) :: acc) stored_acc []
      in
      let space =
        List.fold_left
          (fun acc (_, rel) -> acc + Relation.cardinal rel)
          0 stored
      in
      Obs.set_attr "subproblems" (Json.Int !n_live);
      Obs.set_attr "stored" (Json.Int !stored_subs);
      Obs.set_attr "delegated" (Json.Int (List.length !delegated));
      Obs.set_attr "space" (Json.Int space);
      ( {
          rule = r;
          stored;
          space;
          delegated = List.rev !delegated;
          stored_subs = !stored_subs;
          maint = Some { mbudget = budget; base; tree; combos };
        },
        !cand_rows,
        !cand_eff ))

(* Adaptive space amplification: when the best candidates of a plain
   pass measurably compress as d-representations (cardinality at least
   1.5x their effective size), the same stored-singleton budget
   can fund a more aggressive split structure.  Rebuild with the LP
   budget scaled by the measured ratio (capped at 4x) — admission still
   charges every candidate's effective size against the {e true} budget,
   so the amplified structure occupies no more stored singletons than
   the budget allows; it just materializes more logical tuples per
   singleton.  The amplified pass is kept only if it strictly increases
   materialized tuples without delegating any subproblem the plain pass
   stored; on any failure the plain structure stands, so answers and
   worst-case behavior are unchanged when compression does not show. *)
let build ?(counted = false) (r : Rule.t) ~db ~budget =
  let s1, rows1, eff1 = build_pass ~counted r ~db ~budget ~budget_lp:budget in
  if Fconfig.mode () = Fconfig.Off || eff1 = 0 || 2 * rows1 < 3 * eff1 then s1
  else
    (* nearest-integer measured ratio, clamped to [2, 4] *)
    let amp = max 2 (min 4 ((rows1 + (eff1 / 2)) / eff1)) in
    match build_pass ~counted r ~db ~budget ~budget_lp:(budget * amp) with
    | s2, _, _ when s2.space > s1.space && s2.stored_subs >= s1.stored_subs ->
        Obs.incr "twopp.amplified";
        s2
    | _ -> s1
    | exception Failure _ -> s1

(* ------------------------------------------------------------------ *)
(* online                                                               *)
(* ------------------------------------------------------------------ *)

exception Plan_abort

(* One plan step compiled for a pipelined run: where the probe key and
   each output column come from, plus the run's scratch buffers.  The
   output is the step's [keep] row, or for the last step the T-target
   row itself. *)
type stage = {
  sidx : Index.t;
  key_pos : int array; (* probe key, as positions in the input row *)
  key : int array;     (* scratch probe key *)
  col_in : int array;  (* output column from this input position, or -1 *)
  col_ix : int array;  (* ... otherwise from this index-row position *)
  out : int array;     (* scratch output row *)
  seen : unit Tuple.Tbl.t option; (* rows already forwarded (projecting steps) *)
  mutable matches : int;
}

let compile_stage ~in_schema ~out_vars ~last { idx; keep } =
  let src = Index.source_schema idx in
  let from_input v = Schema.mem v in_schema in
  let key_pos = Schema.positions in_schema (Index.key_vars idx) in
  {
    sidx = idx;
    key_pos;
    key = Array.make (Array.length key_pos) 0;
    col_in =
      Array.of_list
        (List.map
           (fun v -> if from_input v then Schema.position in_schema v else -1)
           out_vars);
    col_ix =
      Array.of_list
        (List.map
           (fun v -> if from_input v then -1 else Schema.position src v)
           out_vars);
    out = Array.make (List.length out_vars) 0;
    (* the last step's rows land in the deduplicating output relation *)
    seen =
      (if
         (not last)
         && List.length keep < Schema.arity (Schema.union in_schema src)
       then Some (Tuple.Tbl.create 64)
       else None);
    matches = 0;
  }

(* Pipelined plan execution: every access tuple is pushed depth-first
   through the step indexes with [Index.probe_iter], each step writing
   its projected row into a scratch buffer, and every final row is
   projected straight onto the T-target and added to [into].  No
   intermediate relation is built.  A step that projects variables away
   forwards each distinct row once (its seen-set), so every step probes
   exactly the rows a materialize-then-project run would.  [cap] bounds
   each step's join matches — the cardinality of that step's join in a
   materializing run — and [Plan_abort] leaves the rows emitted so far
   in [into]. *)
let run_plan ?cap ~into plan q_a =
  let target_vars = Schema.vars (Relation.schema into) in
  let n = List.length plan in
  let final_vars =
    match List.rev plan with
    | [] -> Schema.vars (Relation.schema q_a)
    | last :: _ -> last.keep
  in
  if List.for_all (fun v -> List.mem v final_vars) target_vars then begin
    let stages =
      let in_schema = ref (Relation.schema q_a) in
      Array.of_list
        (List.mapi
           (fun i step ->
             let last = i = n - 1 in
             let out_vars = if last then target_vars else step.keep in
             let st = compile_stage ~in_schema:!in_schema ~out_vars ~last step in
             in_schema := Schema.of_list step.keep;
             st)
           plan)
    in
    let cap = Option.value cap ~default:max_int in
    let emit row =
      if not (Relation.mem into row) then Relation.add into (Array.copy row)
    in
    let rec push i row =
      if i = n then emit row
      else begin
        let st = stages.(i) in
        Tuple.project_into st.key_pos row st.key;
        Index.probe_iter st.sidx st.key (fun src base ->
            st.matches <- st.matches + 1;
            if st.matches > cap then raise Plan_abort;
            Cost.charge_scan ();
            let out = st.out in
            for k = 0 to Array.length out - 1 do
              let p = st.col_in.(k) in
              out.(k) <- (if p >= 0 then row.(p) else src.(base + st.col_ix.(k)))
            done;
            match st.seen with
            | None -> push (i + 1) out
            | Some seen ->
                if not (Tuple.Tbl.mem seen out) then begin
                  Cost.charge_tuple ();
                  let kept = Array.copy out in
                  Tuple.Tbl.add seen kept ();
                  push (i + 1) kept
                end)
      end
    in
    if n = 0 then begin
      let pos = Schema.positions (Relation.schema q_a) target_vars in
      let out = Array.make (List.length target_vars) 0 in
      Relation.iter
        (fun tup ->
          Cost.charge_scan ();
          Tuple.project_into pos tup out;
          emit out)
        q_a
    end
    else Relation.iter (push 0) q_a
  end

let target_relation views b =
  match Hashtbl.find_opt views b with
  | Some rel -> rel
  | None ->
      let rel = Relation.create (Schema.of_list (Varset.to_list b)) in
      Hashtbl.add views b rel;
      rel

let online_into t ~q_a views =
  let cap_scale = max 1 (Relation.cardinal q_a) in
  List.iter
    (fun sub ->
      let into = target_relation views sub.t_target in
      (* adaptive execution: greedy plan within the cap, safe plan on
         overflow; rows the probe plan already emitted are a subset of
         the safe plan's (same projection), so they stay *)
      try run_plan ~cap:(sub.cap * cap_scale) ~into sub.probe_plan q_a
      with Plan_abort -> run_plan ~into sub.safe_plan q_a)
    t.delegated

let online t ~q_a =
  let views = Hashtbl.create 4 in
  online_into t ~q_a views;
  Hashtbl.fold (fun b rel acc -> (b, rel) :: acc) views []

(* ------------------------------------------------------------------ *)
(* incremental maintenance                                              *)
(* ------------------------------------------------------------------ *)

let stored_rel_for t b =
  match List.find_opt (fun (b', _) -> Varset.equal b b') t.stored with
  | Some (_, rel) -> rel
  | None ->
      let rel = Relation.create (Schema.of_list (Varset.to_list b)) in
      t.stored <- t.stored @ [ (b, rel) ];
      rel

(* Early-exit witness search.  [find_witness binding rels] asks whether
   some extension of [binding] satisfies every (vars, relation) atom in
   [rels] — an existence check, so it stops at the first witness instead
   of enumerating all of them (around a heavy key the witness count is a
   degree product; a full join would pay for every one).  Scan-based:
   one [scan] charged per tuple visited. *)
let consistent binding vs tup =
  let ok = ref true in
  List.iteri
    (fun i v ->
      if !ok then
        match Hashtbl.find_opt binding v with
        | Some x -> if x <> tup.(i) then ok := false
        | None -> ())
    vs;
  !ok

(* bind the atom's unbound variables to the tuple's values; [None] (and
   no binding change) if the tuple contradicts the current binding *)
let extend binding vs tup =
  let added = ref [] in
  let ok = ref true in
  List.iteri
    (fun i v ->
      if !ok then
        match Hashtbl.find_opt binding v with
        | Some x -> if x <> tup.(i) then ok := false
        | None ->
            Hashtbl.add binding v tup.(i);
            added := v :: !added)
    vs;
  if !ok then Some !added
  else begin
    List.iter (Hashtbl.remove binding) !added;
    None
  end

let rec find_witness binding rels =
  match rels with
  | [] -> true
  | _ ->
      (* one counting scan per remaining atom, then recurse through the
         atom with the fewest matches under the current binding — around
         a heavy key the fan-out atom is deferred until its variables
         are pinned, so branching stays near the cold side's degrees *)
      let scored =
        List.map
          (fun ((vs, rel) as atom) ->
            let matches = ref [] in
            Relation.iter
              (fun tup ->
                Cost.charge_scan ();
                if consistent binding vs tup then matches := tup :: !matches)
              rel;
            (List.length !matches, !matches, atom))
          rels
      in
      let n, matches, ((vs, _) as atom) =
        List.fold_left
          (fun ((bn, _, _) as b) ((n, _, _) as x) -> if n < bn then x else b)
          (List.hd scored) (List.tl scored)
      in
      n > 0
      &&
      let rest = List.filter (fun a -> not (a == atom)) rels in
      List.exists
        (fun tup ->
          match extend binding vs tup with
          | None -> false
          | Some added ->
              let hit = find_witness binding rest in
              if not hit then List.iter (Hashtbl.remove binding) added;
              hit)
        matches

(* Which rows of [cand_rel : keep] does the combo's body join still
   derive?  Semijoin-reduce the body under the candidate pinning (one
   pass against the candidates, then a forward/backward neighbor sweep
   — linear in the slice sizes), then run {!find_witness} per row over
   the reduced slices. *)
let derivable_rows c ~keep cand_rel =
  let rels = Array.of_list (List.map snd c.crel) in
  (* pin the atoms that see candidate columns (one linear semijoin each);
     atoms with no candidate column are shared by reference, not copied —
     the witness search prunes them by match counting instead *)
  let shares a b = Schema.inter (Relation.schema a) (Relation.schema b) <> [] in
  Array.iteri
    (fun i r -> if shares r cand_rel then rels.(i) <- Relation.semijoin r cand_rel)
    rels;
  let out = Relation.create (Schema.of_list keep) in
  let any_empty = ref false in
  Array.iter (fun r -> if Relation.is_empty r then any_empty := true) rels;
  if not !any_empty then begin
    let atoms =
      Array.to_list
        (Array.map (fun r -> (Schema.vars (Relation.schema r), r)) rels)
    in
    Relation.iter
      (fun row ->
        let binding = Hashtbl.create 16 in
        List.iteri (fun i v -> Hashtbl.replace binding v row.(i)) keep;
        if find_witness binding atoms then Relation.add out row)
      cand_rel
  end;
  out

(* a combo that was empty at build (never classified) just became
   non-empty: run the build-time decision logic on its current leaves.
   May raise [Failure] exactly like [build] when the rule has no
   T-targets and the stored candidates no longer fit the budget. *)
let activate t m c out_events =
  let r = t.rule in
  let rels = c.crel in
  let candidates =
    match r.Rule.s_targets with
    | [] -> []
    | s_targets -> eval_targets rels s_targets ~budget:m.mbudget
  in
  let best =
    List.fold_left
      (fun acc (b, rel) ->
        match acc with
        | Some (_, best_rel)
          when Relation.cardinal best_rel <= Relation.cardinal rel ->
            acc
        | _ -> Some (b, rel))
      None candidates
  in
  match best with
  | Some (b, rel) when Relation.cardinal rel <= m.mbudget ->
      t.stored_subs <- t.stored_subs + 1;
      c.cdecision <- M_stored b;
      let union_rel = stored_rel_for t b in
      let pos =
        Schema.positions (Relation.schema rel)
          (Schema.vars (Relation.schema union_rel))
      in
      Relation.iter
        (fun row0 ->
          let row = Tuple.project pos row0 in
          if not (Relation.mem union_rel row) then begin
            Relation.add union_rel row;
            t.space <- t.space + 1;
            out_events := (b, row, true) :: !out_events
          end)
        rel
  | _ -> (
      match r.Rule.t_targets with
      | [] -> failwith "Twopp.build: rule impossible at this budget"
      | t_targets ->
          let sub_dc = measured_dc rels in
          let t_target =
            pick_target r.Rule.cqap.Cq.cq.Cq.n ~dc:sub_dc t_targets
          in
          let probe_plan, probe_atoms, safe_plan, safe_atoms, cap =
            build_plan rels ~access:r.Rule.cqap.Cq.access ~target:t_target
          in
          let sub = { t_target; probe_plan; safe_plan; cap } in
          t.delegated <- t.delegated @ [ sub ];
          c.cdecision <- M_delegated { sub; probe_atoms; safe_atoms })


(* one leaf change of [atom] in combo [c], already applied to the leaf
   relation; update the combo's decision artifacts and record the
   stored-row (S-view) changes *)
let propagate t m c atom tup sign out_events =
  match c.cdecision with
  | M_absent ->
      if sign && combo_nonempty c then activate t m c out_events
  | M_delegated d ->
      let patch plan atoms =
        List.iter2
          (fun (st : step) a ->
            if a == atom then
              ignore
                (if sign then Index.insert st.idx tup
                 else Index.remove st.idx tup))
          plan atoms
      in
      patch d.sub.probe_plan d.probe_atoms;
      patch d.sub.safe_plan d.safe_atoms
  | M_stored b ->
      let union_rel = stored_rel_for t b in
      let single =
        Relation.singleton (Relation.schema (List.assq atom c.crel)) tup
      in
      let others =
        List.filter_map
          (fun (a, rel) -> if a == atom then None else Some rel)
          c.crel
      in
      let keep = Varset.to_list b in
      if sign then
        let delta = Db.join_greedy (single :: others) ~keep in
        Relation.iter
          (fun row ->
            if not (Relation.mem union_rel row) then begin
              Relation.add union_rel row;
              t.space <- t.space + 1;
              out_events := (b, row, true) :: !out_events
            end)
          delta
      else begin
        (* candidate rows that may have lost their last witness: exactly
           the rows that were derivable through the removed tuple.  The
           delta join's intermediates are degree products, so it blows
           up when both endpoints of the removed tuple are heavy; the
           stored union, in contrast, is budget-bounded.  Run the delta
           join only while it stays small and otherwise recheck every
           stored row — either set over-approximates the victims. *)
        let limit = 4 * (1 + Relation.cardinal union_rel) in
        let cands =
          match Db.join_greedy_bounded (single :: others) ~keep ~limit with
          | Some delta -> Relation.to_list delta
          | None -> Relation.to_list union_rel
        in
        let victims =
          (* last-witness check: a candidate row dies only if NO sibling
             combo with the same target still derives it.  Each combo is
             checked by semijoin reduction plus early-exit witness
             search — never by enumerating the (degree-product many)
             witnesses around a heavy key. *)
          let cand_rel = Relation.create (Schema.of_list keep) in
          List.iter
            (fun row ->
              if Relation.mem union_rel row then Relation.add cand_rel row)
            cands;
          let surviving = ref cand_rel in
          List.iter
            (fun c' ->
              match c'.cdecision with
              | M_stored b'
                when Varset.equal b b'
                     && not (Relation.is_empty !surviving) ->
                  let derived = derivable_rows c' ~keep !surviving in
                  surviving := Relation.antijoin !surviving derived
              | _ -> ())
            m.combos;
          Relation.to_list !surviving
        in
        List.iter
          (fun row ->
            ignore (Relation.remove union_rel row);
            t.space <- t.space - 1;
            out_events := (b, row, false) :: !out_events)
          victims
      end

let apply_delta t ~rel ~tuple ~add =
  match t.maint with
  | None ->
      failwith
        "Twopp.apply_delta: structure has no maintenance state (loaded from \
         a static snapshot)"
  | Some m ->
      let out_events = ref [] in
      List.iter
        (fun ((atom : Cq.atom), base_rel) ->
          if atom.Cq.rel = rel then begin
            if Tuple.arity tuple <> List.length atom.Cq.vars then
              failwith
                (Printf.sprintf
                   "Twopp.apply_delta: arity-%d tuple for %d-ary relation %s"
                   (Tuple.arity tuple)
                   (List.length atom.Cq.vars)
                   rel);
            let changed =
              if add then
                if Relation.mem base_rel tuple then false
                else begin
                  Relation.add base_rel tuple;
                  true
                end
              else Relation.remove base_rel tuple
            in
            if changed then begin
              let levs = ref [] in
              if add then tree_insert m.tree atom tuple levs
              else tree_delete m.tree atom tuple levs;
              List.iter
                (fun (c, tup, sign) -> propagate t m c atom tup sign out_events)
                (List.rev !levs)
            end
          end)
        m.base;
      List.rev !out_events
