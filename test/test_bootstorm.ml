(* Boot-storm bench plumbing: the fleet ladder, and double-run
   determinism on a tiny ladder. *)

module Bs = Nfsg_experiments.Bootstorm
module Rig = Nfsg_experiments.Rig

let test_ladder () =
  Alcotest.(check (list int)) "cap of one" [ 1 ] (Bs.ladder 1);
  Alcotest.(check (list int)) "doubling to the cap" [ 1; 2; 4; 8; 16 ] (Bs.ladder 16);
  Alcotest.(check (list int)) "off-power cap is still walked" [ 1; 2; 4; 6 ] (Bs.ladder 6)

(* The real bench, shrunk to a two-rung ladder, one side each. *)
let tiny = { Bs.default_sweep with Bs.clients_max = 2 }

let test_double_run () =
  let first = Bs.curve tiny ~readahead:true and second = Bs.curve tiny ~readahead:true in
  Alcotest.(check bool) "the same curve across runs" true (first = second);
  Alcotest.(check int) "ladder capped at two rungs" 2 (List.length first.Bs.points)

(* The storm crashes and restarts the server after populating the
   export; the long-op dump must come from the incarnation that served
   the fleet, not the one that served the populate phase. *)
let test_long_ops_follow_restart () =
  let out = Buffer.create 4096 in
  let env =
    {
      Rig.default_env with
      Rig.long_op_threshold = Some (Nfsg_sim.Time.ms 5);
      emit = Some (Buffer.add_string out);
    }
  in
  ignore (Bs.curve ~env tiny ~readahead:false);
  let dump = Buffer.contents out in
  let has affix =
    let n = String.length dump and m = String.length affix in
    let rec at i = i + m <= n && (String.sub dump i m = affix || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "long-op records dumped" true (has "long-op records:");
  Alcotest.(check bool) "a storm client's record" true (has "client=ws")

let suite =
  [
    Alcotest.test_case "fleet ladder shape" `Quick test_ladder;
    Alcotest.test_case "tiny storm is double-run deterministic" `Quick test_double_run;
    Alcotest.test_case "long-op dump follows the restarted server" `Quick test_long_ops_follow_restart;
  ]
