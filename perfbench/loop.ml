(* The load generator: a closed loop over a few connections from one
   process.  Each connection has at most one request in flight and sends
   its next one only after checking the previous answer, because the
   callers of a storage engine wait for each reply.

   Connections own disjoint keys, so with a fixed seed every connection
   issues the same requests in the same order on every run.  A barrier
   after [n] requests per connection stops them all at one point, so what
   the server holds there — and every count taken over the requests before
   it — repeats exactly, however the connections interleaved.  After the
   barrier the loop runs on until the deadline. *)

module Wire = Fbremote.Wire

let now = Fbremote.Clock.monotonic

type kind = Get | Put | Fork | Merge

let kind_index = function Get -> 0 | Put -> 1 | Fork -> 2 | Merge -> 3

type op = {
  kind : kind;
  req : Wire.request;
  user_bytes : int;  (** value bytes a successful put writes *)
  check : Wire.response -> (unit, string) result;
      (** verifies an answer that is not a refusal and advances the
          script's shadow state *)
}

type conn = {
  id : int;
  fd : Unix.file_descr;
  next : unit -> op option;  (** [None]: the script is done *)
  mutable cur : op option;
  mutable t0 : float;
  mutable t1 : float;
  mutable req_bytes : int;
  mutable done_ : int;
  mutable parked : bool;
  mutable finished : bool;
}

type result = {
  lat : Stat.t array;  (** seconds, per {!kind_index} *)
  done_at : Stat.t;  (** completion stamp of every request *)
  enc : Stat.t;  (** traced only: [Wire.encode_request] *)
  rt : Stat.t;  (** traced only: [write_frame] through [read_frame] *)
  dec : Stat.t;  (** traced only: [Wire.decode_response] *)
  mutable ops : int;
  mutable failed : int;
  mutable mismatches : string list;
  mutable ops_pre : int;
      (** requests answered before the barrier (all of them, without one) *)
  mutable bytes_pre : int;  (** their request + response frame bytes *)
  mutable user_bytes_pre : int;  (** value bytes their puts wrote *)
  pages_pre : string list array;
      (** per connection, the blob values its puts wrote before the
          barrier, newest first and capped at {!max_pages_pre} *)
  mutable t_start : float;
  mutable t_first_park : float;
  mutable t_release : float;
  mutable t_stop : float;
  deadline : float;
}

let max_pages_pre = 128

let run ?(trace = false) ?barrier ?(deadline = infinity)
    ?(on_barrier = fun () -> ()) specs =
  let r =
    {
      lat = Array.init 4 (fun _ -> Stat.create ());
      done_at = Stat.create ();
      enc = Stat.create ();
      rt = Stat.create ();
      dec = Stat.create ();
      ops = 0;
      failed = 0;
      mismatches = [];
      ops_pre = 0;
      bytes_pre = 0;
      user_bytes_pre = 0;
      pages_pre = Array.make (Array.length specs) [];
      t_start = now ();
      t_first_park = nan;
      t_release = nan;
      t_stop = nan;
      deadline;
    }
  in
  let conns =
    Array.mapi
      (fun id (fd, next) ->
        {
          id;
          fd;
          next;
          cur = None;
          t0 = 0.;
          t1 = 0.;
          req_bytes = 0;
          done_ = 0;
          parked = false;
          finished = false;
        })
      specs
  in
  let barrier_done = ref (Option.is_none barrier) in
  let stamp () = if trace then now () else 0. in
  let send c =
    if (not c.finished) && not c.parked then
      if !barrier_done && now () >= deadline then c.finished <- true
      else
        match c.next () with
        | None -> c.finished <- true
        | Some op ->
            let t0 = now () in
            let body = Wire.encode_request op.req in
            let t1 = stamp () in
            Wire.write_frame c.fd body;
            c.cur <- Some op;
            c.t0 <- t0;
            c.t1 <- t1;
            c.req_bytes <- Wire.header_bytes + String.length body
  in
  let maybe_release () =
    if (not !barrier_done)
       && Array.for_all (fun c -> c.parked || c.finished) conns
    then begin
      on_barrier ();
      r.t_release <- now ();
      barrier_done := true;
      Array.iter (fun c -> c.parked <- false) conns;
      Array.iter send conns
    end
  in
  let complete c op =
    let frame =
      match Wire.read_frame c.fd with
      | Some f -> f
      | None -> failwith "server closed a benchmark connection"
    in
    let t3 = stamp () in
    let resp = Wire.decode_response frame in
    let t4 = now () in
    c.cur <- None;
    let pre = Option.is_none barrier || not !barrier_done in
    r.ops <- r.ops + 1;
    Stat.add r.lat.(kind_index op.kind) (t4 -. c.t0);
    Stat.add r.done_at t4;
    if trace then begin
      Stat.add r.enc (c.t1 -. c.t0);
      Stat.add r.rt (t3 -. c.t1);
      Stat.add r.dec (t4 -. t3)
    end;
    (match resp with
    | Wire.Error _ | Wire.Redirect _ | Wire.Retry _ -> r.failed <- r.failed + 1
    | _ -> (
        match op.check resp with
        | Error m -> r.mismatches <- m :: r.mismatches
        | Ok () ->
            if pre then begin
              r.user_bytes_pre <- r.user_bytes_pre + op.user_bytes;
              match op.req with
              | Wire.Put { value = Wire.Blob text; _ }
                when List.length r.pages_pre.(c.id) < max_pages_pre ->
                  r.pages_pre.(c.id) <- text :: r.pages_pre.(c.id)
              | _ -> ()
            end));
    if pre then begin
      r.ops_pre <- r.ops_pre + 1;
      r.bytes_pre <-
        r.bytes_pre + c.req_bytes + Wire.header_bytes + String.length frame
    end;
    c.done_ <- c.done_ + 1;
    (match barrier with
    | Some n when pre && c.done_ >= n ->
        c.parked <- true;
        if Float.is_nan r.t_first_park then r.t_first_park <- now ()
    | _ -> ());
    send c;
    maybe_release ()
  in
  Array.iter send conns;
  maybe_release ();
  let in_flight () =
    Array.to_list conns
    |> List.filter_map (fun c -> if Option.is_some c.cur then Some c.fd else None)
  in
  let rec loop () =
    match in_flight () with
    | [] -> ()
    | fds ->
        let ready, _ = Wire.select_nb fds [] (-1.) in
        List.iter
          (fun fd ->
            Array.iter
              (fun c ->
                match c.cur with
                | Some op when c.fd == fd -> complete c op
                | _ -> ())
              conns)
          ready;
        loop ()
  in
  loop ();
  r.t_stop <- now ();
  if Float.is_nan r.t_first_park then begin
    r.t_first_park <- r.t_stop;
    r.t_release <- r.t_stop
  end;
  r.mismatches <- List.rev r.mismatches;
  r

(* Requests per second over the timed window, leaving out the stretch in
   which connections waited at the barrier and whatever finished after the
   deadline. *)
let throughput r =
  let hi = Float.min r.deadline r.t_stop in
  let spans =
    [ (r.t_start, Float.min r.t_first_park hi); (r.t_release, hi) ]
    |> List.filter (fun (a, b) -> b > a)
  in
  let secs = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. spans in
  let n =
    List.fold_left
      (fun acc (a, b) -> acc + Stat.count_within ~stamps:r.done_at ~lo:a ~hi:b)
      0 spans
  in
  if secs <= 0. then 0. else float_of_int n /. secs

(* A blocking admin round trip on an idle connection (stats at the phase
   boundaries, Quit at teardown). *)
let call fd req =
  Wire.write_frame fd (Wire.encode_request req);
  match Wire.read_frame fd with
  | Some f -> Wire.decode_response f
  | None -> failwith "server closed a benchmark connection"

type bulk = { n : int; bulk_failed : int; bulk_mismatches : string list; secs : float }

(* A batch of checked requests pipelined on one connection: all of them
   are written before any answer is read, as a caller importing a batch of
   writes would.  The server answers a connection in request order, so
   each answer is checked, in order, against the shadow state the answers
   before it left.  Refusals count as failed and are not retried. *)
let bulk fd ops =
  let failed = ref 0 and mismatches = ref [] in
  let t0 = now () in
  List.iter (fun op -> Wire.write_frame fd (Wire.encode_request op.req)) ops;
  List.iter
    (fun op ->
      match Wire.read_frame fd with
      | None -> failwith "server closed a benchmark connection"
      | Some f -> (
          match Wire.decode_response f with
          | Wire.Error _ | Wire.Redirect _ | Wire.Retry _ -> incr failed
          | resp -> (
              match op.check resp with
              | Ok () -> ()
              | Error m -> mismatches := m :: !mismatches)))
    ops;
  {
    n = List.length ops;
    bulk_failed = !failed;
    bulk_mismatches = List.rev !mismatches;
    secs = now () -. t0;
  }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd
