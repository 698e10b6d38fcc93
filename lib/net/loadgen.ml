module Obs = Stt_obs.Obs
module Scenario = Stt_workload.Scenario

type config = {
  host : string;
  port : int;
  connections : int;
  requests : int;
  batch : int;
  arity : int;
  values : int;
  skew : float;
  seed : int;
  deadline_ms : int;
  drivers : int;
  active : int;
}

type report = {
  sent : int;
  answered : int;
  rows : int;
  rejected_overload : int;
  rejected_deadline : int;
  lost : int;
  duplicated : int;
  mismatched : int;
  errors : int;
  elapsed_s : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  throughput : float;
}

(* per-connection tallies, merged in connection order at the end *)
type tally = {
  mutable t_sent : int;
  mutable t_answered : int;
  mutable t_rows : int;
  mutable t_overload : int;
  mutable t_deadline : int;
  mutable t_lost : int;
  mutable t_dup : int;
  mutable t_mismatched : int;
  mutable t_errors : int;
  mutable t_connected : bool;
}

let new_tally () =
  { t_sent = 0; t_answered = 0; t_rows = 0; t_overload = 0; t_deadline = 0;
    t_lost = 0; t_dup = 0; t_mismatched = 0; t_errors = 0; t_connected = false }

let rec chunks k = function
  | [] -> []
  | l ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let c, rest = take k [] l in
      c :: chunks k rest

let check_answers tally ?verify ~batch answers =
  let n_batch = List.length batch and n_ans = List.length answers in
  tally.t_answered <- tally.t_answered + Stdlib.min n_batch n_ans;
  (* a short reply loses the tail of the batch; a long one duplicated *)
  if n_ans < n_batch then tally.t_lost <- tally.t_lost + (n_batch - n_ans);
  if n_ans > n_batch then tally.t_dup <- tally.t_dup + (n_ans - n_batch);
  List.iter
    (fun (a : Frame.answer) -> tally.t_rows <- tally.t_rows + List.length a.rows)
    answers;
  match verify with
  | None -> ()
  | Some f ->
      let expected = f ~arity:(match batch with
        | t :: _ -> Array.length t
        | [] -> 0) batch
      in
      List.iteri
        (fun i (a : Frame.answer) ->
          match List.nth_opt expected i with
          | Some rows when List.equal (fun x y -> Stt_relation.Tuple.compare x y = 0) a.rows rows -> ()
          | _ -> tally.t_mismatched <- tally.t_mismatched + 1)
        answers

(* One driver domain multiplexes many connections.  OCaml 5 caps live
   domains at a few dozen, so a domain per connection tops out long
   before the server does; a driver keeps each of its connections
   closed-loop (one outstanding frame) but runs them in lockstep
   rounds — send on every idle connection, then collect one reply per
   in-flight connection.  The server interleaves the work across its
   own domains, so concurrency is [connections], not [drivers]. *)
type conn_state = {
  cs_index : int;
  cs_requests : int;
  cs_tally : tally;
  mutable cs_client : Client.t option;
  mutable cs_batches : int array list list;
  mutable cs_seq : int;
  mutable cs_inflight : (int * int array list * float) option;
}

let drive_slice ?verify cfg states =
  List.iter
    (fun cs ->
      match Client.connect ~host:cfg.host ~port:cfg.port () with
      | Error _ -> ()
      | Ok c ->
          cs.cs_tally.t_connected <- true;
          cs.cs_client <- Some c;
          cs.cs_batches <-
            chunks cfg.batch
              (Scenario.zipf_requests
                 ~seed:(cfg.seed + (7919 * (cs.cs_index + 1)))
                 ~n:cfg.values ~requests:cs.cs_requests ~skew:cfg.skew
                 ~arity:cfg.arity))
    states;
  let deadline_us = cfg.deadline_ms * 1000 in
  let abandon cs =
    (match cs.cs_client with Some c -> Client.close c | None -> ());
    cs.cs_client <- None;
    cs.cs_inflight <- None;
    cs.cs_batches <- []
  in
  let live cs =
    cs.cs_client <> None
    && (cs.cs_batches <> [] || cs.cs_inflight <> None)
  in
  while List.exists live states do
    (* send phase: one frame per idle connection *)
    List.iter
      (fun cs ->
        match (cs.cs_client, cs.cs_inflight, cs.cs_batches) with
        | Some c, None, batch :: rest ->
            cs.cs_batches <- rest;
            let id = (cs.cs_index * 1_000_000) + cs.cs_seq in
            cs.cs_seq <- cs.cs_seq + 1;
            let n = List.length batch in
            let req =
              Frame.Answer { id; deadline_us; arity = cfg.arity;
                             tuples = batch }
            in
            let t0 = Mono.now_s () in
            (match Client.send c req with
            | Ok () ->
                cs.cs_tally.t_sent <- cs.cs_tally.t_sent + n;
                cs.cs_inflight <- Some (id, batch, t0)
            | Error _ ->
                (* the frame may or may not have left; either way these
                   tuples got no answer *)
                cs.cs_tally.t_sent <- cs.cs_tally.t_sent + n;
                cs.cs_tally.t_errors <- cs.cs_tally.t_errors + n;
                abandon cs)
        | _ -> ())
      states;
    (* recv phase: collect one reply per in-flight connection *)
    List.iter
      (fun cs ->
        match (cs.cs_client, cs.cs_inflight) with
        | Some c, Some (id, batch, t0) -> (
            cs.cs_inflight <- None;
            let n = List.length batch in
            let tally = cs.cs_tally in
            match Client.recv c with
            | Error _ ->
                tally.t_errors <- tally.t_errors + n;
                abandon cs
            | Ok resp -> (
                Obs.observe "net.rtt_us"
                  ((Mono.now_s () -. t0) *. 1e6);
                match resp with
                | Frame.Answers { id = rid; answers } when rid = id ->
                    check_answers tally ?verify ~batch answers
                | Frame.Rejected { id = rid; reject } when rid = id -> (
                    match reject with
                    | Frame.Overloaded ->
                        tally.t_overload <- tally.t_overload + n
                    | Frame.Deadline_exceeded ->
                        tally.t_deadline <- tally.t_deadline + n
                    | Frame.Bad_request _ ->
                        tally.t_errors <- tally.t_errors + n)
                | _ ->
                    (* a reply for a request we are not waiting on *)
                    tally.t_dup <- tally.t_dup + 1;
                    tally.t_lost <- tally.t_lost + n))
        | _ -> ())
      states
  done;
  List.iter abandon states

let run ?verify cfg =
  if cfg.connections < 1 then Error "connections must be >= 1"
  else if cfg.requests < 1 then Error "requests must be >= 1"
  else if cfg.batch < 1 then Error "batch must be >= 1"
  else if cfg.drivers < 1 then Error "drivers must be >= 1"
  else if cfg.active < 0 || cfg.active > cfg.connections then
    Error "active must be in [0, connections]"
  else begin
    let was_enabled = Obs.enabled () in
    Obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
    (* requests go to the first [driven] connections; the rest connect,
       say hello, and park idle until the run ends *)
    let driven = if cfg.active = 0 then cfg.connections else cfg.active in
    (* every driver slice must hold at least one driven connection, or
       its parked connections would close as soon as the slice starts *)
    let drivers = Stdlib.min cfg.drivers driven in
    let per_conn =
      let base = cfg.requests / driven
      and extra = cfg.requests mod driven in
      List.init cfg.connections (fun i ->
          if i >= driven then 0 else base + if i < extra then 1 else 0)
    in
    let states =
      List.mapi
        (fun i n ->
          {
            cs_index = i;
            cs_requests = n;
            cs_tally = new_tally ();
            cs_client = None;
            cs_batches = [];
            cs_seq = 0;
            cs_inflight = None;
          })
        per_conn
    in
    (* round-robin over drivers so the +1-request connections spread out *)
    let slices =
      List.init drivers (fun d ->
          List.filter (fun cs -> cs.cs_index mod drivers = d) states)
    in
    let t0 = Mono.now_s () in
    let domains =
      List.map
        (fun slice ->
          let ctx = Obs.create_context () in
          let d =
            Domain.spawn (fun () ->
                Obs.with_context ctx (fun () ->
                    drive_slice ?verify cfg slice))
          in
          (d, ctx))
        slices
    in
    List.iter (fun (d, _) -> Domain.join d) domains;
    let elapsed_s = Mono.now_s () -. t0 in
    let tallies = List.map (fun cs -> cs.cs_tally) states in
    if not (List.exists (fun t -> t.t_connected) tallies) then
      Error
        (Printf.sprintf "no connection could reach %s:%d" cfg.host cfg.port)
    else begin
      (* merge the per-driver traces into the caller's context, in
         driver order: the report's percentiles and the caller's
         [Obs.trace] read the same merged histogram *)
      List.iter (fun (_, ctx) -> Obs.adopt ctx) domains;
      let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
      let answered = sum (fun t -> t.t_answered) in
      Ok
        {
          sent = sum (fun t -> t.t_sent);
          answered;
          rows = sum (fun t -> t.t_rows);
          rejected_overload = sum (fun t -> t.t_overload);
          rejected_deadline = sum (fun t -> t.t_deadline);
          lost = sum (fun t -> t.t_lost);
          duplicated = sum (fun t -> t.t_dup);
          mismatched = sum (fun t -> t.t_mismatched);
          errors = sum (fun t -> t.t_errors);
          elapsed_s;
          p50_us = Obs.percentile "net.rtt_us" 0.50;
          p95_us = Obs.percentile "net.rtt_us" 0.95;
          p99_us = Obs.percentile "net.rtt_us" 0.99;
          throughput =
            (if elapsed_s > 0.0 then float_of_int answered /. elapsed_s
             else 0.0);
        }
    end
  end
