(* nfslint self-tests: every rule is exercised by a fixture pair under
   lint_fixtures/ — one positive case whose diagnostics must match the
   golden .expected file byte for byte, and one suppressed case that
   must lint clean. Fixtures are linted under a synthetic lib/ path so
   the lib-scoped rules fire. *)

module Lint = Nfsg_lint.Lint
module Diagnostic = Nfsg_lint.Diagnostic

let fixture_dir = "lint_fixtures"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

(* Lint a fixture as if it lived at lib/<name>.ml, the scope the rules
   are written for. *)
let lint_fixture name =
  let src = read_file (Filename.concat fixture_dir (name ^ ".ml")) in
  Lint.lint_source ~rel:("lib/" ^ name ^ ".ml") src
  |> List.map Diagnostic.to_string

let check_golden name () =
  let expected = lines (read_file (Filename.concat fixture_dir (name ^ ".expected"))) in
  Alcotest.(check (list string)) name expected (lint_fixture name)

let fixture_names =
  Sys.readdir fixture_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map (fun f -> Filename.chop_suffix f ".ml")
  |> List.sort compare

let golden_tests =
  List.map
    (fun name -> Alcotest.test_case ("fixture " ^ name) `Quick (check_golden name))
    fixture_names

(* Each of the eight rules must appear in at least one golden: a rule
   whose fixture stopped firing is a rule that silently died. *)
let test_all_rules_covered () =
  let fired =
    List.concat_map
      (fun name -> lines (read_file (Filename.concat fixture_dir (name ^ ".expected"))))
      fixture_names
  in
  List.iter
    (fun rule ->
      let tag = "[" ^ rule ^ "]" in
      let hit l =
        let rec find i =
          i + String.length tag <= String.length l
          && (String.sub l i (String.length tag) = tag || find (i + 1))
        in
        find 0
      in
      Alcotest.(check bool) (rule ^ " covered by a fixture") true (List.exists hit fired))
    [ "D001"; "D002"; "E001"; "I001"; "M001"; "O001"; "S001"; "W001" ]

(* A suppression with no justification is itself an error... *)
let test_reasonless_suppression () =
  let src = "(* nfslint: allow E001 *)\nlet quietly f = try f () with _ -> ()\n" in
  let diags = Lint.lint_source ~rel:"lib/fixture.ml" src in
  match diags with
  | [ d ] ->
      Alcotest.(check string) "rule" "LINT" d.Diagnostic.rule;
      Alcotest.(check bool) "is error" true (Diagnostic.is_error d)
  | ds ->
      Alcotest.failf "expected exactly the LINT diagnostic, got %d: %s" (List.length ds)
        (String.concat " | " (List.map Diagnostic.to_string ds))

(* ...and a suppression that matches nothing is flagged as unused. *)
let test_unused_suppression () =
  let src = "(* nfslint: allow D001 nothing here uses the clock *)\nlet x = 1\n" in
  let diags = Lint.lint_source ~rel:"lib/fixture.ml" src in
  match diags with
  | [ d ] ->
      Alcotest.(check string) "rule" "LINT" d.Diagnostic.rule;
      Alcotest.(check bool) "is warning" false (Diagnostic.is_error d)
  | ds ->
      Alcotest.failf "expected exactly the unused-suppression warning, got %d" (List.length ds)

(* Unparseable input must surface as a diagnostic, not an exception. *)
let test_parse_error () =
  let diags = Lint.lint_source ~rel:"lib/broken.ml" "let let let" in
  match diags with
  | [ d ] -> Alcotest.(check string) "rule" "PARSE" d.Diagnostic.rule
  | _ -> Alcotest.fail "expected a single PARSE diagnostic"

(* The rules outside lib/ scope must stay quiet there: bench/ and
   test/ legitimately print and read the wall clock. *)
let test_lib_scoping () =
  let src = "let shout () = print_string \"hi\"\nlet t () = Unix.gettimeofday ()\n" in
  Alcotest.(check (list string))
    "non-lib file lints clean" []
    (List.map Diagnostic.to_string (Lint.lint_source ~rel:"bench/main.ml" src))

(* I001 exempts only the device layer: the filesystem above it submits
   tagged requests like every other layer. *)
let test_i001_scope () =
  let src = read_file (Filename.concat fixture_dir "i001_pos.ml") in
  let rules rel = List.map (fun d -> d.Diagnostic.rule) (Lint.lint_source ~rel src) in
  Alcotest.(check (list string)) "fires in lib/ufs" [ "I001" ] (rules "lib/ufs/x.ml");
  Alcotest.(check (list string)) "clean in lib/disk" [] (rules "lib/disk/x.ml")

let suite =
  golden_tests
  @ [
      Alcotest.test_case "all rules covered" `Quick test_all_rules_covered;
      Alcotest.test_case "reasonless suppression is an error" `Quick test_reasonless_suppression;
      Alcotest.test_case "unused suppression is a warning" `Quick test_unused_suppression;
      Alcotest.test_case "parse failure becomes a diagnostic" `Quick test_parse_error;
      Alcotest.test_case "rules scope to lib/" `Quick test_lib_scoping;
      Alcotest.test_case "I001 exempts only lib/disk" `Quick test_i001_scope;
    ]
