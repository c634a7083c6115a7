(* Boot-storm bench plumbing: the fleet ladder, the sweep restrictions
   the nfsgather flags use, and double-run byte-determinism of the
   committed artifact under those restrictions. *)

module Bs = Nfsg_experiments.Bootstorm
module Json = Nfsg_stats.Json

let test_ladder () =
  Alcotest.(check (list int)) "cap of one" [ 1 ] (Bs.ladder 1);
  Alcotest.(check (list int)) "doubling to the cap" [ 1; 2; 4; 8; 16 ] (Bs.ladder 16);
  Alcotest.(check (list int)) "off-power cap is still walked" [ 1; 2; 4; 6 ] (Bs.ladder 6)

(* The real bench, shrunk to a two-rung ladder on the read-ahead side
   only, restricted through the sweep the way the nfsgather flags do
   it. *)
let run_once () =
  Bs.bench_bootstorm
    ~sweep:{ Bs.default_sweep with Bs.clients_max = 2; readahead_side = Some true }
    ()

let test_double_run () =
  let first = run_once () and second = run_once () in
  Alcotest.(check bool) "byte-identical across runs" true
    (String.equal (Json.to_string ~pretty:true first) (Json.to_string ~pretty:true second));
  (* And the restrictions really took: one config, two rungs. *)
  let configs = Option.bind (Json.member "configs" first) Json.to_list in
  let labels =
    match configs with
    | Some cs -> List.filter_map (fun c -> Option.bind (Json.member "config" c) Json.to_str) cs
    | None -> []
  in
  Alcotest.(check (list string)) "restricted to the read-ahead side" [ "readahead" ] labels;
  let rungs =
    match configs with
    | Some (c :: _) ->
        (match Option.bind (Json.member "points" c) Json.to_list with
        | Some ps -> List.length ps
        | None -> 0)
    | _ -> 0
  in
  Alcotest.(check int) "ladder capped at two rungs" 2 rungs

let suite =
  [
    Alcotest.test_case "fleet ladder shape" `Quick test_ladder;
    Alcotest.test_case "tiny storm is double-run deterministic" `Quick test_double_run;
  ]
