(* The redundancy promises, asserted end to end: the chaos rig over a
   RAID-1 and a RAID-5 array must lose no acknowledged write across
   whole-member fail-stop, degraded crash/restart cycles and a crash
   landing mid-rebuild — and replay the identical run bit for bit. *)

module Chaos = Nfsg_experiments.Chaos
module Raid = Nfsg_experiments.Raid
module Rig = Nfsg_experiments.Rig
module Stripe = Nfsg_disk.Stripe

(* Two cycles: cycle 0 rebuilds under load, cycle 1 (odd) crashes the
   server mid-rebuild and restarts the resilver from scratch. *)
let quick_cfg =
  {
    Chaos.default with
    Chaos.cycles = 2;
    writers = 2;
    blocks_per_writer = 40;
    burst_ops = 4;
  }

(* The array level reaches chaos through the rig env, as nfsgather's
   --raid-level does. *)
let run_chaos level = Chaos.run ~env:{ Rig.default_env with Rig.raid_level = Some level } quick_cfg

let check_promises name (r : Chaos.result) =
  Alcotest.(check (list int)) (name ^ ": no acked write lost") [] r.Chaos.lost;
  Alcotest.(check (list string)) (name ^ ": fsck clean") [] r.Chaos.fsck_errors;
  Alcotest.(check int) (name ^ ": no spurious re-executions") 0 r.Chaos.spurious_nonidem;
  Alcotest.(check bool)
    (name ^ ": one member fail-stop per cycle") true
    (r.Chaos.member_failures >= 2);
  Alcotest.(check bool)
    (name ^ ": rebuilds ran to completion") true
    (r.Chaos.rebuilds_completed >= 2);
  Alcotest.(check bool) (name ^ ": served degraded writes") true (r.Chaos.degraded_writes > 0);
  let contains line affix =
    let n = String.length line and m = String.length affix in
    let rec at i = i + m <= n && (String.sub line i m = affix || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool)
    (name ^ ": crashed mid-rebuild") true
    (List.exists (fun l -> contains l "mid-rebuild") r.Chaos.timeline)

let test_raid1_chaos () =
  let r = run_chaos Stripe.Raid1 in
  check_promises "raid1" r;
  let r2 = run_chaos Stripe.Raid1 in
  Alcotest.(check string) "raid1: digest reproducible" r.Chaos.digest r2.Chaos.digest

let test_raid5_chaos () =
  let r = run_chaos Stripe.Raid5 in
  check_promises "raid5" r;
  Alcotest.(check bool) "raid5: reconstructed reads" true (r.Chaos.degraded_reads > 0);
  let r2 = run_chaos Stripe.Raid5 in
  Alcotest.(check string) "raid5: digest reproducible" r.Chaos.digest r2.Chaos.digest

(* The bench's reason to exist: gathered flushes turn RAID-5 partial
   read-modify-writes into full-stripe commits. *)
let test_full_stripe_gather () =
  let cfg = { Raid.default with Raid.writers = 2; blocks_per_writer = 32 } in
  let rows = Raid.run ~cfg () in
  let cell gather =
    List.find (fun r -> r.Raid.variant.Raid.level = Stripe.Raid5 && r.Raid.variant.Raid.gather = gather) rows
  in
  let on = cell true and off = cell false in
  Alcotest.(check bool) "gathering earns full-stripe writes" true (on.Raid.full_stripe_writes > 0);
  Alcotest.(check bool) "full-stripe fraction higher with gathering" true
    (on.Raid.full_stripe_fraction > off.Raid.full_stripe_fraction);
  List.iter
    (fun r ->
      match r.Raid.redundancy with
      | None -> ()
      | Some d -> Alcotest.(check bool) "degraded + rebuilt blocks verify" true d.Raid.reverified)
    rows

let suite =
  [
    Alcotest.test_case "chaos over raid1: fail-stop, degraded, rebuild" `Quick test_raid1_chaos;
    Alcotest.test_case "chaos over raid5: fail-stop, degraded, rebuild" `Quick test_raid5_chaos;
    Alcotest.test_case "raid5 full-stripe fraction rises with gathering" `Quick
      test_full_stripe_gather;
  ]
