(* nfsbench: run one workload of the benchmark and print its metrics.

     main.exe --workload write_copy|sfs_mix|boot_storm --seed N
              --seconds S --trace 0|1

   --seconds sets the amount of simulated work, sized so that a run
   takes about S seconds on a 2-core x86-64 container; a given seed and
   S always give the same simulated outcome.

   --trace 0 prints the end-to-end metrics. --trace 1 runs the measured
   worlds twice, untraced and traced, checks that both passes reach the
   same simulated outcome, and prints the per-layer metrics with the
   tracing overhead. The last line of standard output is one JSON
   object; the exit code is 1 when a correctness check failed. *)

module W = Nfsbench.Workloads
module R = Nfsbench.Report

(* Worlds per run and work per world, from the seconds asked for;
   set-up is timed seven times per run. *)
let plan name seconds =
  let size worlds per_second =
    let units = Float.round (float_of_int seconds *. per_second /. float_of_int worlds) in
    { W.worlds; units = Stdlib.max 1 (int_of_float units); setups = 7; small = false }
  in
  match name with
  | "write_copy" -> size 3 0.45 (* 16 MB rounds *)
  | "sfs_mix" -> size 6 170.0 (* simulated seconds *)
  | _ -> size 3 4.5 (* storms *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "write_copy, sfs_mix or boot_storm");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "run length");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem_assoc !workload W.all) || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let size = plan !workload !seconds in
  let u, problems, metrics =
    if !trace = 0 then begin
      let u = W.run !workload size ~seed:!seed in
      let e2e = R.end_to_end u ~peak_heap_mb:(R.peak_heap_mb ()) in
      R.print_table (Printf.sprintf "%s seed %d: end-to-end" !workload !seed) e2e;
      (u, u.W.problems, e2e)
    end
    else begin
      let p = Nfsbench.Probe.create () in
      let u, t = W.run_traced !workload size ~seed:!seed p in
      let sim o = R.sim_values (R.end_to_end o ~peak_heap_mb:0.0) in
      let same = W.digest u = W.digest t && u.W.attempted = t.W.attempted && sim u = sim t in
      let layers = R.per_layer ~u ~t p in
      R.print_table (Printf.sprintf "%s seed %d: per-layer (traced pass)" !workload !seed) layers;
      let drift = if same then [] else [ "tracing changed the simulated outcome" ] in
      (u, drift @ t.W.problems @ u.W.problems, layers)
    end
  in
  Printf.printf "digest %s (%d worlds x %d units)\n" (W.digest u) size.W.worlds size.W.units;
  List.iter (fun m -> Printf.printf "problem: %s\n" m) (List.rev problems);
  let correct = problems = [] in
  print_endline (R.json_line ~correct ~attempted:u.W.attempted ~failed:u.W.failed metrics);
  exit (if correct then 0 else 1)
