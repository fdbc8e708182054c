(* Shared machinery for the experiment harness: scaling knobs, timing,
   percentiles, table printing, and a thin Bechamel wrapper for the
   micro-benchmarks. *)

type scale = Small | Paper

let scale_name = function Small -> "small" | Paper -> "paper"

(* [pick scale small paper] selects a parameter by scale. *)
let pick scale small paper = match scale with Small -> small | Paper -> paper

let now = Unix.gettimeofday

let time_it fn =
  let t0 = now () in
  let r = fn () in
  (now () -. t0, r)

(* Average seconds per call over [runs] invocations (after [warmup]). *)
let time_avg ?(warmup = 2) ~runs fn =
  for _ = 1 to warmup do
    ignore (fn ())
  done;
  let t0 = now () in
  for _ = 1 to runs do
    ignore (fn ())
  done;
  (now () -. t0) /. float_of_int runs

(* Interpolated percentile (the common "linear" / type-7 estimator): the
   rank [p * (n-1)] is fractional, so interpolate between the two nearest
   order statistics instead of floor-truncating — truncation systematically
   underestimates high percentiles on small samples (p99 of 100 samples
   would read the 98th rank, p90 of 2 samples the minimum). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let rank = Float.min (float_of_int (n - 1)) (Float.max 0. rank) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let sorted_of_list l =
  let a = Array.of_list l in
  (* [Float.compare], not polymorphic [compare]: a nan sample must sort
     deterministically instead of poisoning the whole ordering. *)
  Array.sort Float.compare a;
  a

(* --- scratch directories --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let temp_counter = ref 0

(* A fresh directory for [f], removed afterwards with everything in it;
   pid + counter names never collide within or across bench processes. *)
let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fbbench-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- output formatting --- *)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "--- %s ---\n%!" title

let row_header columns =
  Printf.printf "%s\n%!" (String.concat "\t" columns)

let row cells = Printf.printf "%s\n%!" (String.concat "\t" cells)

let ms seconds = Printf.sprintf "%.3f" (seconds *. 1000.0)
let us seconds = Printf.sprintf "%.1f" (seconds *. 1_000_000.0)

let human_bytes b =
  if b >= 10 * 1024 * 1024 then Printf.sprintf "%.1fMB" (float_of_int b /. 1048576.0)
  else if b >= 10 * 1024 then Printf.sprintf "%.1fKB" (float_of_int b /. 1024.0)
  else string_of_int b ^ "B"

(* --- bechamel wrapper --- *)

(* Estimated nanoseconds per call for each named thunk, via Bechamel's OLS
   over monotonic-clock samples. *)
let bechamel_ns ?(quota = 0.3) tests =
  let open Bechamel in
  let tests =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) tests
  in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some _ | None -> nan
      in
      (name, ns) :: acc)
    results []
