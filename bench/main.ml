(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (§6).  `main.exe` with no arguments runs everything at the
   small scale; `main.exe fig12 table3` runs a subset; `--scale paper`
   raises sizes to the paper's (slow).  With `--json-dir DIR` every
   experiment's headline numbers are also written as machine-readable
   BENCH_<area>.json files (see Bench_json). *)

(* (id, area, description, run).  The area names the BENCH_<area>.json
   file the experiment's metrics land in. *)
let experiments :
    (string * string * string * (Bench_util.scale -> unit)) list =
  [
    ("table3", "micro", "operation throughput/latency", Bench_micro.table3);
    ("table4", "micro", "Put cost breakdown", Bench_micro.table4);
    ("fig8", "cluster", "scalability with #servlets", Bench_cluster.fig8);
    ("fig9", "blockchain", "blockchain op latencies", Bench_blockchain.fig9);
    ("fig10", "blockchain", "blockchain throughput", Bench_blockchain.fig10);
    ("fig11", "blockchain", "Merkle-tree commit CDF", Bench_blockchain.fig11);
    ("fig12", "blockchain", "state/block scans", Bench_blockchain.fig12);
    ("fig13", "wiki", "wiki edit throughput/storage", Bench_wiki.fig13);
    ("fig14", "wiki", "wiki consecutive-version reads", Bench_wiki.fig14);
    ("fig15", "cluster", "storage distribution under skew", Bench_cluster.fig15);
    ("sharded", "cluster", "real shard processes: scaling + chaos",
     Bench_cluster.sharded);
    ("fig16", "tabular", "dataset modification", Bench_tabular.fig16);
    ("fig17a", "tabular", "version diff", Bench_tabular.fig17a);
    ("fig17b", "tabular", "aggregation queries", Bench_tabular.fig17b);
    ("smallbank", "blockchain", "SmallBank contract across backends",
     Bench_blockchain.smallbank);
    ("ablation-fixed", "ablation", "content-defined vs fixed-size chunking",
     Bench_ablation.ablation_fixed);
    ("ablation-rolling", "ablation", "rolling-hash families",
     Bench_ablation.ablation_rolling);
    ("ablation-size", "ablation", "chunk-size sweep",
     Bench_ablation.ablation_chunk_size);
    ("ablation-delta", "ablation", "POS-Tree vs delta chains",
     Bench_ablation.ablation_delta);
    ("durability", "persist", "journaled puts, recovery, compaction",
     Bench_persist.durability);
    ("remote", "remote", "multi-client serving throughput", Bench_remote.remote);
    ("replica", "replica", "read scaling with a serving follower",
     Bench_replica.replica);
    ("smoke", "smoke", "tiny end-to-end reporter check", Bench_smoke.smoke);
  ]

let run_ids scale json_dir git_rev ids =
  (match json_dir with
  | None -> ()
  | Some dir ->
      Bench_json.set_sink ~dir ~git_rev ~scale:(Bench_util.scale_name scale));
  let selected =
    match ids with
    | [] ->
        (* The smoke experiment is a harness self-check, not part of the
           paper's evaluation; run it only when asked for by id. *)
        List.filter (fun (name, _, _, _) -> name <> "smoke") experiments
    | ids ->
        List.map
          (fun id ->
            match
              List.find_opt (fun (name, _, _, _) -> name = id) experiments
            with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (available: %s)\n" id
                  (String.concat ", "
                     (List.map (fun (n, _, _, _) -> n) experiments));
                exit 2)
          ids
  in
  Printf.printf "ForkBase reproduction benchmarks — scale=%s\n%!"
    (Bench_util.scale_name scale);
  let total, () =
    Bench_util.time_it (fun () ->
        List.iter
          (fun (name, area, _, fn) ->
            Bench_json.begin_experiment ~area ~id:name;
            let elapsed, () = Bench_util.time_it (fun () -> fn scale) in
            Bench_json.metric ~name:"elapsed" ~value:elapsed ~unit:"s";
            Bench_json.end_experiment ();
            Printf.printf "[%s done in %.1fs]\n%!" name elapsed)
          selected)
  in
  Bench_json.flush ();
  Printf.printf "\nAll selected experiments finished in %.1fs.\n%!" total

open Cmdliner

let scale_arg =
  let parse = function
    | "small" -> Ok Bench_util.Small
    | "paper" -> Ok Bench_util.Paper
    | s -> Error (`Msg (Printf.sprintf "invalid scale %S (small|paper)" s))
  in
  let print fmt s = Format.pp_print_string fmt (Bench_util.scale_name s) in
  Arg.(
    value
    & opt (conv (parse, print)) Bench_util.Small
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:
          "Problem sizes: $(b,small) (default, minutes) or $(b,paper) (the \
           paper's sizes, much slower).")

let json_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-dir" ] ~docv:"DIR"
        ~doc:
          "Also write machine-readable results: one BENCH_<area>.json per \
           experiment area into $(docv) (created if missing).")

let git_rev_arg =
  Arg.(
    value & opt string "unknown"
    & info [ "git-rev" ] ~docv:"REV"
        ~doc:
          "Revision stamp recorded in the JSON output (the harness does \
           not shell out to git; pass \\$(git rev-parse --short HEAD)).")

let ids_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "Experiment ids to run (default: all). See DESIGN.md for the \
           experiment index.")

let cmd =
  let doc = "regenerate the ForkBase paper's tables and figures" in
  Cmd.v
    (Cmd.info "forkbase-bench" ~doc)
    Term.(const run_ids $ scale_arg $ json_dir_arg $ git_rev_arg $ ids_arg)

let () = exit (Cmd.eval cmd)
