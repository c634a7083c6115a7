(* Double-run determinism: the writegather bench, run twice inside one
   process with nothing in between, must render byte for byte the same
   JSON. This is the property the @lint rules exist to protect — any
   wall-clock read, unseeded RNG, hash-order leak or process-global
   state carried from one world to the next shows up here as a byte
   diff. *)

module Json = Nfsg_stats.Json

(* Small enough to stay sub-second, large enough that gathering,
   clustering and the metadata-flush ledger all engage. *)
let bench_total = 512 * 1024

let run_once () =
  Json.to_string ~pretty:true
    (Nfsg_experiments.Experiments.bench_writegather ~total:bench_total ())

let check_same_bytes first second =
  if not (String.equal first second) then begin
    (* Point at the first differing line rather than dumping both blobs. *)
    let la = String.split_on_char '\n' first and lb = String.split_on_char '\n' second in
    let rec first_diff i = function
      | a :: ta, b :: tb -> if String.equal a b then first_diff (i + 1) (ta, tb) else (i, a, b)
      | a :: _, [] -> (i, a, "<end of second run>")
      | [], b :: _ -> (i, "<end of first run>", b)
      | [], [] -> (i, "", "")
    in
    let line, a, b = first_diff 1 (la, lb) in
    Alcotest.failf "double-run JSON diverges at line %d:\n  run 1: %s\n  run 2: %s" line a b
  end

let test_double_run () = check_same_bytes (run_once ()) (run_once ())

(* Same property for the committed scheduler-comparison artifact: three
   whole worlds per run (one per policy), byte for byte. *)
let run_iosched_once () =
  Json.to_string ~pretty:true (Nfsg_experiments.Iosched.bench_iosched ())

let test_double_run_iosched () =
  check_same_bytes (run_iosched_once ()) (run_iosched_once ())

(* And for the committed redundancy artifact: six worlds per run (level
   x gathering), each with a member failure and an online rebuild. *)
let run_raid_once () =
  Json.to_string ~pretty:true (Nfsg_experiments.Raid.bench_raid ())

let test_double_run_raid () = check_same_bytes (run_raid_once ()) (run_raid_once ())

let suite =
  [
    Alcotest.test_case "writegather bench twice, same bytes" `Quick test_double_run;
    Alcotest.test_case "iosched bench twice, same bytes" `Quick test_double_run_iosched;
    Alcotest.test_case "raid bench twice, same bytes" `Quick test_double_run_raid;
  ]
