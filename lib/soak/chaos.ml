module Splitmix = Fbutil.Splitmix

type event =
  | Fault_followers of { fp_seed : int64; arm_ops : int }
  | Kill_restart_primary
  | Force_compaction
  | Promote_follower
  | Kill_restart_shard of int
  | Add_shard

type scheduled = { at : int; event : event }

let kind_name = function
  | Fault_followers _ -> "fault-followers"
  | Kill_restart_primary -> "kill-restart"
  | Force_compaction -> "compaction"
  | Promote_follower -> "promotion"
  | Kill_restart_shard _ -> "shard-kill"
  | Add_shard -> "shard-add"

let all_kind_names =
  [ "fault-followers"; "kill-restart"; "compaction"; "promotion" ]

let shard_kind_names = [ "shard-kill"; "shard-add" ]

let event_to_string = function
  | Fault_followers { fp_seed; arm_ops } ->
      Printf.sprintf "fault-followers(seed=0x%Lx, %d ops)" fp_seed arm_ops
  | Kill_restart_primary -> "kill-restart primary"
  | Force_compaction -> "force checkpoint+compaction"
  | Promote_follower -> "promote follower"
  | Kill_restart_shard i -> Printf.sprintf "kill-restart shard %d" i
  | Add_shard -> "add shard (live fence/copy/lift rebalance)"

let scheduled_to_string { at; event } =
  Printf.sprintf "[op %d] %s" at (event_to_string event)

(* Distinct slot indices in [lo, hi], via seeded rejection sampling. *)
let pick_slots rng ~lo ~hi ~n =
  let span = hi - lo + 1 in
  let n = min n span in
  let chosen = Hashtbl.create 16 in
  let slots = ref [] in
  while List.length !slots < n do
    let at = lo + Splitmix.int rng span in
    if not (Hashtbl.mem chosen at) then begin
      Hashtbl.add chosen at ();
      slots := at :: !slots
    end
  done;
  List.sort compare !slots

let mk_event rng ~total_ops kind =
  match kind with
  | 0 ->
      (* an armed window long enough for faults to actually fire during
         follower syncs, bounded so it closes before the run ends *)
      let arm_ops = max 10 (total_ops / 20) + Splitmix.int rng (max 1 (total_ops / 20)) in
      Fault_followers { fp_seed = Splitmix.next rng; arm_ops }
  | 1 -> Kill_restart_primary
  | 2 -> Force_compaction
  | _ -> Promote_follower

let schedule ~seed ~total_ops ~events =
  if total_ops <= 0 then invalid_arg "Chaos.schedule: total_ops must be positive";
  if events < 0 then invalid_arg "Chaos.schedule: events must be non-negative";
  let rng = Splitmix.create seed in
  let lo = (total_ops / 10) + 1 in
  let hi = total_ops in
  let slots = pick_slots rng ~lo ~hi:(max lo hi) ~n:events in
  let n = List.length slots in
  (* guarantee kind coverage when there is room: the first four slots (in
     a seed-shuffled order) take the four distinct kinds, the rest draw
     uniformly *)
  let forced =
    if n >= 4 then begin
      let order = Array.init 4 (fun i -> i) in
      for i = 3 downto 1 do
        let j = Splitmix.int rng (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      Array.to_list order
    end
    else []
  in
  List.mapi
    (fun i at ->
      let kind =
        match List.nth_opt forced i with
        | Some k -> k
        | None -> Splitmix.int rng 4
      in
      { at; event = mk_event rng ~total_ops kind })
    slots

let shard_schedule ~total_ops =
  [
    { at = total_ops / 3; event = Kill_restart_shard 0 };
    { at = 2 * total_ops / 3; event = Add_shard };
  ]
