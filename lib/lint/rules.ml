(* The seven nfslint rules. Read-only Parsetree analysis over a single
   compilation unit: no typing, no ppx, so the whole of lib/ lints in
   milliseconds and the tool cannot alter what it checks.

   Every rule reports with the repo-relative path it was handed, which
   is also what scoping decisions (lib/ vs lib/sim/) are made from. *)

open Parsetree

type ctx = { rel : string;  (** repo-relative path used for scoping *) }

let in_dir dir rel =
  let p = dir ^ "/" in
  String.length rel >= String.length p && String.sub rel 0 (String.length p) = p

let in_lib ctx = in_dir "lib" ctx.rel
let in_sim ctx = in_dir "lib/sim" ctx.rel

let loc_line_col (loc : Location.t) =
  (loc.loc_start.Lexing.pos_lnum, loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol)

let diag ctx ~rule ?(severity = Diagnostic.Error) (loc : Location.t) message =
  let line, col = loc_line_col loc in
  Diagnostic.make ~rule ~severity ~file:ctx.rel ~line ~col message

(* Longident.flatten raises on functor applications; those are never
   the identifiers the rules look for. *)
let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

(* Module paths written through Stdlib are the same module. *)
let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path

let ident_path expr =
  match expr.pexp_desc with Pexp_ident { txt; _ } -> strip_stdlib (flatten txt) | _ -> []

(* Collect every value identifier path in a subtree. *)
let iter_idents f =
  let open Ast_iterator in
  {
    default_iterator with
    expr =
      (fun self e ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> f e.pexp_loc (strip_stdlib (flatten txt))
        | _ -> ());
        default_iterator.expr self e);
  }

(* {1 D001 — nondeterminism sources} *)

(* The simulation must be a pure function of its seed: wall-clock
   reads and the global PRNG would make metrics JSON and the chaos
   ledger differ run to run. lib/sim owns the one seeded Rng, so
   Random there would still be wrong but is left to review. *)
let d001 ctx structure =
  if not (in_lib ctx) then []
  else
    let diags = ref [] in
    let check loc path =
      let bad =
        match path with
        | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime") ] -> true
        | [ "Sys"; "time" ] -> true
        | "Random" :: _ -> not (in_sim ctx)
        | _ -> false
      in
      if bad then
        diags :=
          diag ctx ~rule:"D001" loc
            (Printf.sprintf
               "forbidden nondeterminism source %s: use the simulation clock (Engine.now) or a \
                seeded lib/sim Rng"
               (String.concat "." path))
          :: !diags
    in
    let it = iter_idents check in
    it.Ast_iterator.structure it structure;
    List.rev !diags

(* {1 D002 — hash-order leaks} *)

let is_hashtbl_scan = function [ "Hashtbl"; ("iter" | "fold") ] -> true | _ -> false

let is_sorted_sink = function
  | [ "List"; ("sort" | "sort_uniq" | "stable_sort" | "fast_sort" | "merge") ] -> true
  | _ -> false

(* Hashtbl iteration order is unspecified, so anything it produces —
   a list, a string, a sequence of disk writes — is only deterministic
   if the same top-level function also funnels it through a sorted
   sink. Commutative scans (sums, counts, unique minima) are the
   legitimate exceptions and must say so in a suppression. *)
let d002 ctx structure =
  if not (in_lib ctx) then []
  else
    let diags = ref [] in
    let check_binding vb =
      let scans = ref [] and sorts = ref false in
      let it =
        iter_idents (fun loc path ->
            if is_hashtbl_scan path then scans := (loc, path) :: !scans
            else if is_sorted_sink path then sorts := true)
      in
      it.Ast_iterator.value_binding it vb;
      if not !sorts then
        List.iter
          (fun (loc, path) ->
            diags :=
              diag ctx ~rule:"D002" loc
                (Printf.sprintf
                   "%s result escapes without a sorted sink in the same top-level binding; \
                    hash order leaks into user-visible output"
                   (String.concat "." path))
              :: !diags)
          (List.rev !scans)
    in
    let rec structure_items items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter check_binding vbs
          | Pstr_module { pmb_expr; _ } -> module_expr pmb_expr
          | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
          | _ -> ())
        items
    and module_expr me =
      match me.pmod_desc with
      | Pmod_structure items -> structure_items items
      | Pmod_functor (_, body) -> module_expr body
      | Pmod_constraint (me, _) -> module_expr me
      | _ -> ()
    in
    structure_items structure;
    List.rev !diags

(* {1 E001 — catch-all exception handlers} *)

let expr_uses_var name expr =
  let used = ref false in
  let it =
    iter_idents (fun _ path -> match path with [ n ] when n = name -> used := true | _ -> ())
  in
  it.Ast_iterator.expr it expr;
  !used

(* A handler that catches everything and drops the exception can
   swallow an NFSERR conversion, a Device.Io_error mid-transaction, or
   a simulation invariant failure — the bug class Juszczak's crash
   rule exists to prevent. Catch specific exceptions, or bind and
   re-raise/convert the rest. *)
let e001 ctx structure =
  ignore ctx;
  let diags = ref [] in
  let rec catch_all rhs pat =
    match pat.ppat_desc with
    | Ppat_any -> true
    | Ppat_alias ({ ppat_desc = Ppat_any; _ }, { txt = name; _ }) -> not (expr_uses_var name rhs)
    | Ppat_or (a, b) -> catch_all rhs a || catch_all rhs b
    | Ppat_exception p -> catch_all rhs p
    | _ -> false
  in
  let check_cases ~only_exception cases =
    List.iter
      (fun case ->
        let relevant =
          if only_exception then
            match case.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false
          else true
        in
        if relevant && catch_all case.pc_rhs case.pc_lhs then
          diags :=
            diag ctx ~rule:"E001" case.pc_lhs.ppat_loc
              "catch-all exception handler drops the exception; it can swallow NFSERR_* \
               conversions and simulation invariant failures — match specific exceptions or \
               bind and re-raise"
            :: !diags)
      cases
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_try (_, cases) -> check_cases ~only_exception:false cases
          | Pexp_match (_, cases) -> check_cases ~only_exception:true cases
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  it.Ast_iterator.structure it structure;
  List.rev !diags

(* {1 O001 — stdout/stderr pollution} *)

let o001_forbidden = function
  | [
      ( "print_string" | "print_endline" | "print_newline" | "print_char" | "print_int"
      | "print_float" | "print_bytes" | "prerr_string" | "prerr_endline" | "prerr_newline"
      | "prerr_char" | "prerr_int" | "prerr_float" | "prerr_bytes" );
    ] ->
      true
  | [ ("Printf" | "Format"); ("printf" | "eprintf") ] -> true
  | [ "Format"; ("print_string" | "print_newline") ] -> true
  | _ -> false

(* The bench artifacts are byte-diffed in CI; a stray print in lib/
   lands in the middle of them. Library code returns values or goes
   through the Trace/Metrics/Report sinks; only bin/, bench/ and
   examples/ own the process's stdout. *)
let o001 ctx structure =
  if not (in_lib ctx) then []
  else
    let diags = ref [] in
    let it =
      iter_idents (fun loc path ->
          if o001_forbidden path then
            diags :=
              diag ctx ~rule:"O001" loc
                (Printf.sprintf
                   "direct %s in lib/ pollutes the byte-deterministic bench output; return a \
                    value or use Nfsg_stats (Trace/Metrics/Report.to_string)"
                   (String.concat "." path))
              :: !diags)
    in
    it.Ast_iterator.structure it structure;
    List.rev !diags

(* {1 M001 — metric names outside the registry} *)

let metric_fns = [ "counter"; "gauge"; "histogram"; "find"; "find_counter"; "find_gauge"; "find_histogram" ]

(* Modules bound to ...Metrics inside this file count as Metrics. *)
let metrics_aliases structure =
  let aliases = ref [ "Metrics" ] in
  let rec scan_items items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_ident { txt; _ } -> (
                match List.rev (flatten txt) with
                | "Metrics" :: _ -> aliases := name :: !aliases
                | _ -> ())
            | Pmod_structure items -> scan_items items
            | _ -> ())
        | _ -> ())
      items
  in
  scan_items structure;
  !aliases

let is_names_application expr =
  match expr.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match fn.pexp_desc with
      | Pexp_ident { txt; _ } -> List.mem "Names" (flatten txt)
      | _ -> false)
  | _ -> false

(* String literals inside [expr], except those that are arguments to a
   Names.* smart constructor (e.g. [Names.ops "WRITE"] is the registry
   speaking, not a stray literal). *)
let string_literals_outside_names expr =
  let found = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          if is_names_application e then ()
          else begin
            (match e.pexp_desc with
            | Pexp_constant (Pconst_string (s, _, _)) -> found := (e.pexp_loc, s) :: !found
            | _ -> ());
            default_iterator.expr self e
          end);
    }
  in
  it.Ast_iterator.expr it expr;
  List.rev !found

(* One central lib/stats/names.ml owns every namespace and instrument
   name, so "server.vol3" vs "server_vol3" is a compile error at the
   registry instead of a silently empty metrics query. The rule fires
   on (a) literals in arguments of Metrics.counter/gauge/histogram/
   find*, and (b) literal-built [ns]/[*_ns] bindings. *)
let m001 ctx structure =
  if not (in_lib ctx) then []
  else
    let aliases = metrics_aliases structure in
    let diags = ref [] in
    let flag (loc, s) =
      diags :=
        diag ctx ~rule:"M001" loc
          (Printf.sprintf
             "metric name literal %S: namespaces and instrument names must come from \
              Nfsg_stats.Names, not inline strings"
             s)
        :: !diags
    in
    let open Ast_iterator in
    let it =
      {
        default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_apply (fn, args) -> (
                match ident_path fn with
                | path when path <> [] -> (
                    match List.rev path with
                    | f :: m :: _ when List.mem f metric_fns && List.mem m aliases ->
                        List.iter
                          (fun (_, arg) -> List.iter flag (string_literals_outside_names arg))
                          args
                    | _ -> ())
                | _ -> ())
            | _ -> ());
            default_iterator.expr self e);
        value_binding =
          (fun self vb ->
            let rec binding_name pat =
              match pat.ppat_desc with
              | Ppat_var { txt; _ } -> Some txt
              | Ppat_constraint (p, _) -> binding_name p
              | _ -> None
            in
            (match binding_name vb.pvb_pat with
            | Some name
              when name = "ns"
                   || String.length name > 3
                      && String.sub name (String.length name - 3) 3 = "_ns" ->
                List.iter flag (string_literals_outside_names vb.pvb_expr)
            | _ -> ());
            default_iterator.value_binding self vb);
      }
    in
    it.Ast_iterator.structure it structure;
    List.rev !diags

(* {1 S001 — top-level mutable state} *)

let mutable_makers = function
  | [ "ref" ] -> true
  | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Atomic" | "Weak"); ("create" | "make") ] -> true
  | [ "Array"; ("make" | "create_float" | "init") ] -> true
  | [ "Bytes"; ("create" | "make") ] -> true
  | _ -> false

(* Process-global mutables outlive Server.crash/restart and are shared
   by every simulated world in the process. State belongs to a world
   and configuration is passed as a value; the rare global that must
   persist (vgen identity) carries a suppression saying why. *)
let s001 ctx structure =
  if not (in_lib ctx) then []
  else
    let diags = ref [] in
    let rec binding_name pat =
      match pat.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | Ppat_constraint (p, _) -> binding_name p
      | _ -> None
    in
    let rec strip_expr e =
      match e.pexp_desc with Pexp_constraint (e, _) -> strip_expr e | _ -> e
    in
    let check_binding vb =
      match binding_name vb.pvb_pat with
      | None -> ()
      | Some name -> (
          let rhs = strip_expr vb.pvb_expr in
          match rhs.pexp_desc with
          | Pexp_apply (fn, _) when mutable_makers (ident_path fn) ->
              diags :=
                diag ctx ~rule:"S001" vb.pvb_pat.ppat_loc
                  (Printf.sprintf
                     "top-level mutable '%s' is shared by every simulated world in the process: \
                      keep it in a world or pass it as a value, or suppress with the reason it \
                      must persist"
                     name)
                :: !diags
          | _ -> ())
    in
    let rec structure_items items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter check_binding vbs
          | Pstr_module { pmb_expr; _ } -> module_expr pmb_expr
          | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
          | _ -> ())
        items
    and module_expr me =
      match me.pmod_desc with
      | Pmod_structure items -> structure_items items
      | Pmod_functor (_, body) -> module_expr body
      | Pmod_constraint (me, _) -> module_expr me
      | _ -> ()
    in
    structure_items structure;
    List.rev !diags

(* {1 I001 — blocking device calls outside the storage layers} *)

(* Device.read/write are thin blocking shims kept for the storage
   layers themselves; everything above lib/disk and lib/ufs goes
   through the tagged submission queue (Device.submit), where requests
   carry a class and can be scheduled, merged and ordered by barriers.
   A direct field call above those layers re-introduces the
   one-request-at-a-time convoy the async I/O core removed. *)
let i001 ctx structure =
  if (not (in_lib ctx)) || in_dir "lib/disk" ctx.rel || in_dir "lib/ufs" ctx.rel then []
  else
    let diags = ref [] in
    let open Ast_iterator in
    let it =
      {
        default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_field (_, { txt; _ }) -> (
                match List.rev (flatten txt) with
                | (("read" | "write") as f) :: "Device" :: _ ->
                    diags :=
                      diag ctx ~rule:"I001" e.pexp_loc
                        (Printf.sprintf
                           "direct Device.%s outside lib/disk and lib/ufs: the blocking shims \
                            belong to the storage layers; submit tagged requests \
                            (Device.submit with Io.write_req/read_req) instead"
                           f)
                      :: !diags
                | _ -> ())
            | _ -> ());
            default_iterator.expr self e);
      }
    in
    it.Ast_iterator.structure it structure;
    List.rev !diags

type rule = { id : string; synopsis : string; run : ctx -> Parsetree.structure -> Diagnostic.t list }

let all : rule list =
  [
    { id = "D001"; synopsis = "forbidden nondeterminism sources (wall clock, unseeded Random)"; run = d001 };
    { id = "D002"; synopsis = "Hashtbl.iter/fold result escapes without a sorted sink"; run = d002 };
    { id = "E001"; synopsis = "catch-all exception handler drops the exception"; run = e001 };
    { id = "O001"; synopsis = "direct stdout/stderr output from lib/"; run = o001 };
    { id = "M001"; synopsis = "metric/namespace string literal outside Nfsg_stats.Names"; run = m001 };
    { id = "S001"; synopsis = "top-level mutable state in lib/"; run = s001 };
    { id = "I001"; synopsis = "blocking Device.read/write call outside lib/disk and lib/ufs"; run = i001 };
  ]
