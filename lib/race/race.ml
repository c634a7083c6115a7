(* The nfsrace driver: parse every .ml under analysis with the
   compiler's own parser, build the whole-library call graph, run the
   lock-discipline walker per file, then fold in `nfsrace: allow`
   suppressions through the shared nfslint machinery. Unlike nfslint,
   the unit of analysis is the file *set*, not one file: the may-yield
   effect is transitive across modules. *)

module Diagnostic = Nfsg_lint.Diagnostic
module Suppress = Nfsg_lint.Suppress

let marker = "nfsrace: allow"

(* The effect seeds come from the engine itself — Engine.yield_primitives
   is the canonical list — so a new blocking primitive added to the
   engine is picked up here without touching the analysis. Everything
   else is repo convention: the Device record fields that park vs the
   submit field that only charges a copy delay, the lock idiom tables,
   and the defer sinks whose closure arguments run as their own
   process. *)
let default_config =
  let park_seeds, delay_seeds =
    List.fold_left
      (fun (p, d) (m, f, eff) ->
        match eff with `Park -> ((m, f) :: p, d) | `Delay -> (p, (m, f) :: d))
      ([], []) Nfsg_sim.Engine.yield_primitives
  in
  {
    Callgraph.park_seeds = List.rev park_seeds;
    delay_seeds = List.rev delay_seeds;
    overrides = [ (("Resource", "use"), Callgraph.Delay); (("Resource", "acquire"), Callgraph.Delay) ];
    park_fields =
      [
        ("Device", "read");
        ("Device", "write");
        ("Device", "stable_read");
        ("Device", "stable_write");
      ];
    delay_fields = [ ("Device", "submit") ];
    scoped_locks =
      [
        (("Mutex", "with_lock"), "mutex");
        (("Fs", "with_lock"), "vnode");
        (("Locked", "run"), "scoped");
        (("Stripe", "with_rows"), "row");
      ];
    acquire_locks = [ (("Mutex", "lock"), "mutex"); (("Fs", "lock"), "vnode") ];
    release_locks =
      [
        (("Mutex", "unlock"), "mutex");
        (("Fs", "unlock"), "vnode");
        (("Stripe", "unlock_row"), "row");
      ];
    cond_acquire_locks = [ (("Stripe", "lock_row"), "row") ];
    defer_sinks = [ ("Engine", "spawn"); ("Engine", "schedule"); ("Engine", "timer") ];
    noreturn = [ ("Stripe", "crashed_park") ];
    exempt_files = [ "lib/sim/engine.ml" ];
  }

let parse_diag ~rel exn =
  let message =
    match exn with
    | Syntaxerr.Error _ -> "syntax error (file does not parse)"
    | exn -> Printexc.to_string exn
  in
  [ Diagnostic.make ~rule:"PARSE" ~severity:Diagnostic.Error ~file:rel ~line:1 ~col:0 message ]

(* A yields annotation is a claim the analysis cannot check, so a
   reasonless one is an error, and one that covers no function
   definition is a warning (it silently stopped doing anything). *)
let annot_diags (file : Callgraph.file) =
  List.concat_map
    (fun (a : Annot.t) ->
      if a.reason = "" then
        [
          Diagnostic.make ~rule:"RACE" ~severity:Diagnostic.Error ~file:file.Callgraph.f_rel
            ~line:a.line ~col:0
            (Printf.sprintf "yields annotation carries no reason; write '(* %s <reason> *)'"
               Annot.marker);
        ]
      else if not a.used then
        [
          Diagnostic.make ~rule:"RACE" ~severity:Diagnostic.Warning ~file:file.Callgraph.f_rel
            ~line:a.line ~col:0
            "unattached yields annotation: no function definition starts on this or the next line";
        ]
      else [])
    file.Callgraph.f_annots

let analyze_sources ?(config = default_config) sources =
  let parsed, parse_errors =
    List.fold_left
      (fun (ok, errs) (rel, src) ->
        let lexbuf = Lexing.from_string src in
        Lexing.set_filename lexbuf rel;
        match Parse.implementation lexbuf with
        | exception exn -> (ok, parse_diag ~rel exn :: errs)
        | structure -> ((rel, src, structure) :: ok, errs))
      ([], []) sources
  in
  let parsed = List.rev parsed in
  let t =
    Callgraph.build config
      (List.map (fun (rel, src, structure) -> (rel, structure, Annot.scan src)) parsed)
  in
  let per_file =
    List.map2
      (fun (rel, src, _) file ->
        let raw =
          if List.mem rel config.Callgraph.exempt_files then []
          else Locks.check t file @ annot_diags file
        in
        let suppressions = Suppress.scan_source ~marker src in
        Suppress.apply ~marker ~meta_rule:"RACE" ~file:rel suppressions raw
        |> List.sort Diagnostic.compare_loc)
      parsed t.Callgraph.files
  in
  List.concat (List.rev parse_errors @ per_file)

let read_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

(* [files] are (path-on-disk, repo-relative-name) pairs. *)
let analyze_files ?config files =
  analyze_sources ?config (List.map (fun (path, rel) -> (rel, read_file path)) files)
