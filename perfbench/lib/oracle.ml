(* Reference answers for the served workloads, memoized per key: the
   naive evaluators are exhaustive and Zipf streams repeat keys. *)

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

type reach = {
  edges : Stt_apps.Reach.edges;
  k : int;
  paths : (int * int, bool) Hashtbl.t;
  walks : (int * int, int) Hashtbl.t;
}

let reach ~k edges =
  { edges; k; paths = Hashtbl.create 1024; walks = Hashtbl.create 1024 }

let reach_path o tuple =
  let u = tuple.(0) and v = tuple.(1) in
  memo o.paths (u, v) (fun () -> Stt_apps.Reach.naive o.edges ~k:o.k u v)

let reach_count o tuple =
  let u = tuple.(0) and v = tuple.(1) in
  memo o.walks (u, v) (fun () -> Stt_apps.Reach.naive_count o.edges ~k:o.k u v)

(* The live edge set of a churn stream, replayed in stream order. *)
type live = {
  set : (int * int, unit) Hashtbl.t;
  mutable oracle : reach option;  (** over the current set; dropped on change *)
}

let live edges =
  let set = Hashtbl.create (2 * List.length edges) in
  List.iter (fun e -> Hashtbl.replace set e ()) edges;
  { set; oracle = None }

let live_edges l =
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) l.set [])

let apply l e ~add =
  let present = Hashtbl.mem l.set e in
  let effective = add <> present in
  if effective then begin
    if add then Hashtbl.replace l.set e () else Hashtbl.remove l.set e;
    l.oracle <- None
  end;
  effective

let live_path l ~k tuple =
  let o =
    match l.oracle with
    | Some o -> o
    | None ->
        let o = reach ~k (live_edges l) in
        l.oracle <- Some o;
        o
  in
  reach_path o tuple
