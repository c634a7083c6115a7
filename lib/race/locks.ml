(* The Y001/Y002/Y003 walker.

   An abstract interpretation of each function body threading two
   pieces of state: the list of locks held (with the textual
   fingerprint of the lock expression, so [Fs.lock v] pairs with
   [Fs.unlock v]) and, for Y002, the set of top-level mutables read
   since the last yield. Control flow is joined at if/match/try; a
   branch that ends in raise or a no-return call (crash park) is
   excluded from the join, so deliberate leak-on-crash paths do not
   fire Y003.

   Lock tokens come in two kinds. Scoped tokens ([Fs.with_lock],
   [Mutex.with_lock], [Locked.run], [Stripe.with_rows]) are pushed
   around the closure argument and popped structurally — the helper
   releases on every path by construction, so they can never leak.
   Manual tokens ([Fs.lock]/[Fs.unlock] pairs and the conditional
   [Stripe.lock_row]) must balance on every live path: an imbalanced
   join, a raise while held, or a fall-through function end is Y003.

   Exception edges are modelled by recording the walker state at every
   site that can raise (ordinary calls and explicit raises — lock
   idiom calls are taken not to raise, their failure modes being
   assertion bugs). A try handler or a [match ... with exception]
   case is entered with the union of the raise states its scrutinee
   actually produced, not the worst-case pre-state, so the repo's
   release-then-reraise shape ([try work with exn -> unlock; raise
   exn]) does not flag the outer handler. A catch-all handler stops
   the recorded states from propagating outward. *)

open Parsetree
module Cg = Callgraph
module Diagnostic = Nfsg_lint.Diagnostic

type token = { family : string; fp : string; line : int; scoped : bool }

type st = {
  held : token list;  (** innermost first *)
  pend : (string * int * (string * int) option) list;
      (** mutable name, read line, crossing yield (display, line) if any *)
}

type wctx = {
  t : Cg.t;
  file : Cg.file;
  mutables : string list;
  node_key : string;
  diags : Diagnostic.t list ref;
  mutable raises : (st * Location.t) list;
      (** states at raise-capable sites that escape the innermost handler scope *)
}

let line (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let diag ctx ~rule (loc : Location.t) message =
  let l = line loc in
  let col = loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol in
  ctx.diags :=
    Diagnostic.make ~rule ~severity:Diagnostic.Error ~file:ctx.file.f_rel ~line:l ~col message
    :: !(ctx.diags)

let show_fp fp = if fp = "" then "_" else fp

let normalize s =
  String.map (function '\n' | '\t' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (fun w -> w <> "")
  |> String.concat " "

(* Identity of the lock an idiom call operates on: the printed form of
   its unlabelled non-function arguments. [Fs.lock v] and
   [Fs.unlock v] both yield "v"; [lock_row t ~gen row] and
   [unlock_row t row] both yield "t row". *)
let fingerprint args =
  args
  |> List.filter_map (fun (lbl, a) ->
         match lbl with
         | Asttypes.Nolabel when not (Cg.is_fn a) ->
             Some (normalize (Pprintast.string_of_expression a))
         | _ -> None)
  |> String.concat " "

let remove_first pred held =
  let rec go acc = function
    | [] -> None
    | tok :: rest when pred tok -> Some (List.rev_append acc rest)
    | tok :: rest -> go (tok :: acc) rest
  in
  go [] held

(* A release call pops the matching manual token: exact fingerprint
   first, then any manual token of the family. Scoped tokens are only
   popped structurally. *)
let release_tok st family fp =
  match remove_first (fun tk -> (not tk.scoped) && tk.family = family && tk.fp = fp) st.held with
  | Some held -> { st with held }
  | None -> (
      match remove_first (fun tk -> (not tk.scoped) && tk.family = family) st.held with
      | Some held -> { st with held }
      | None -> st)

let note_read st name l =
  if List.exists (fun (n, _, _) -> n = name) st.pend then st
  else { st with pend = (name, l, None) :: st.pend }

let clear_read st name = { st with pend = List.filter (fun (n, _, _) -> n <> name) st.pend }

(* A yield with no lock held: every pending read is now stale. *)
let cross_pend st ~display ~yline =
  if st.held <> [] then st
  else
    {
      st with
      pend =
        List.map
          (fun (n, rl, y) -> match y with Some _ -> (n, rl, y) | None -> (n, rl, Some (display, yline)))
          st.pend;
    }

let merge_pend pends =
  List.fold_left
    (fun acc (name, rl, y) ->
      match List.partition (fun (n, _, _) -> n = name) acc with
      | [], _ -> (name, rl, y) :: acc
      | (_, _, Some _) :: _, _ -> acc
      | (_, _, None) :: _, rest -> if y = None then acc else (name, rl, y) :: rest)
    [] (List.concat pends)

let record_raise ctx st loc = ctx.raises <- (st, loc) :: ctx.raises

(* Primitives that cannot raise. Holding a manual lock across these is
   no leak hazard; treating them as raise-capable would turn every
   open-coded [lock; x := e; unlock] pair into a false Y003. Division
   and [mod] are deliberately absent (Division_by_zero). *)
let nonraising_prims =
  [
    ":="; "!"; "incr"; "decr"; "not"; "ignore"; "ref"; "fst"; "snd"; "+"; "-"; "*"; "+.";
    "-."; "*."; "/."; "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "&&"; "||"; "@"; "^";
    "min"; "max"; "abs"; "succ"; "pred"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
  ]

let is_nonraising raw =
  match raw with Cg.Rpath [ f ] -> List.mem f nonraising_prims | _ -> false

(* Union of the raise states escaping a scrutinee: a token held at any
   raising site must be assumed held in the handler. Falls back to the
   pre-state when nothing in the scrutinee can raise. *)
let union_states pre = function
  | [] -> pre
  | states ->
      {
        held = List.sort_uniq compare (List.concat_map (fun (s, _) -> s.held) states);
        pend = merge_pend (List.map (fun (s, _) -> s.pend) states);
      }

let rec pat_catches_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_exception p | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_catches_all p
  | Ppat_or (a, b) -> pat_catches_all a || pat_catches_all b
  | _ -> false

let case_catches_all c = c.pc_guard = None && pat_catches_all c.pc_lhs

(* Join the live (non-terminal) branch states. A manual token missing
   from some live branch is a leak: Y003 at its acquire site. *)
let join ctx entry outs =
  let live = List.filter (fun (_, term) -> not term) outs in
  match live with
  | [] -> (entry, true)
  | (s0, _) :: rest ->
      let held =
        List.filter (fun tok -> List.for_all (fun (s, _) -> List.mem tok s.held) rest) s0.held
      in
      let leaked =
        List.concat_map
          (fun (s, _) -> List.filter (fun tok -> (not tok.scoped) && not (List.mem tok held)) s.held)
          live
        |> List.sort_uniq compare
      in
      List.iter
        (fun tok ->
          let loc =
            {
              Location.none with
              loc_start = { Lexing.dummy_pos with pos_lnum = tok.line; pos_cnum = 0; pos_bol = 0 };
            }
          in
          diag ctx ~rule:"Y003" loc
            (Printf.sprintf "the %s lock (%s) acquired here is not released on every path"
               tok.family (show_fp tok.fp)))
        leaked;
      let pend = merge_pend (List.map (fun (s, _) -> s.pend) live) in
      ({ held; pend }, false)

let is_raise_path = function
  | Cg.Rpath [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] -> true
  | _ -> false

let rec walk ctx env st e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Cg.strip_wrappers (Cg.flatten txt) with
      | [ x ] when List.mem x ctx.mutables -> (note_read st x (line e.pexp_loc), false)
      | _ -> (st, false))
  | Pexp_constant _ | Pexp_unreachable | Pexp_extension _ -> (st, false)
  (* Lambdas met outside application-argument position are deferred
     nodes, walked separately with an empty lock state. *)
  | Pexp_fun _ | Pexp_newtype _ | Pexp_function _ -> (st, false)
  | Pexp_let (_, vbs, body) ->
      let env, st =
        List.fold_left
          (fun (env, st) vb ->
            match (Cg.binding_name vb, Cg.is_fn vb.pvb_expr) with
            | Some name, true -> ((name, ctx.node_key ^ "." ^ name) :: env, st)
            | _ ->
                let st, _ = walk ctx env st vb.pvb_expr in
                (env, st))
          (env, st) vbs
      in
      walk ctx env st body
  | Pexp_apply (fn, args) -> walk_apply ctx env st e.pexp_loc fn args
  | Pexp_match (scrut, cases) ->
      let exn_cases, val_cases =
        List.partition
          (fun c -> match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
          cases
      in
      let saved = ctx.raises in
      if exn_cases <> [] then ctx.raises <- [];
      let st_scrut, scrut_term = walk ctx env st scrut in
      let collected = if exn_cases <> [] then ctx.raises else [] in
      if exn_cases <> [] then begin
        ctx.raises <- saved;
        (* exceptions the cases do not match keep escaping *)
        if not (List.exists case_catches_all exn_cases) then
          ctx.raises <- collected @ ctx.raises
      end;
      let exn_entry = union_states st collected in
      let walk_case entry c =
        let entry = match c.pc_guard with Some g -> fst (walk ctx env entry g) | None -> entry in
        walk ctx env entry c.pc_rhs
      in
      let exn_outs = List.map (walk_case exn_entry) exn_cases in
      if scrut_term then
        if exn_outs = [] then (st_scrut, true) else join ctx st exn_outs
      else join ctx st (List.map (walk_case st_scrut) val_cases @ exn_outs)
  | Pexp_try (body, cases) ->
      let saved = ctx.raises in
      ctx.raises <- [];
      let out_body = walk ctx env st body in
      let collected = ctx.raises in
      ctx.raises <- saved;
      if not (List.exists case_catches_all cases) then ctx.raises <- collected @ ctx.raises;
      let entry0 = union_states st collected in
      let outs =
        out_body
        :: List.map
             (fun c ->
               let entry =
                 match c.pc_guard with Some g -> fst (walk ctx env entry0 g) | None -> entry0
               in
               walk ctx env entry c.pc_rhs)
             cases
      in
      join ctx st outs
  | Pexp_ifthenelse (cond, then_, else_) ->
      let shape = cond_acquire_shape ctx env st cond in
      let st_c, tok =
        match shape with
        | Some (negated, st_c, tok) -> (st_c, Some (negated, tok))
        | None -> (fst (walk ctx env st cond), None)
      in
      let entry_then, entry_else =
        match tok with
        | Some (false, tok) -> ({ st_c with held = tok :: st_c.held }, st_c)
        | Some (true, tok) -> (st_c, { st_c with held = tok :: st_c.held })
        | None -> (st_c, st_c)
      in
      let out_t = walk ctx env entry_then then_ in
      let out_e =
        match else_ with Some e -> walk ctx env entry_else e | None -> (entry_else, false)
      in
      join ctx st_c [ out_t; out_e ]
  | Pexp_sequence (a, b) ->
      let st, ta = walk ctx env st a in
      if ta then (st, true) else walk ctx env st b
  | Pexp_while (c, body) ->
      let st_c, _ = walk ctx env st c in
      let out_body = walk ctx env st_c body in
      join ctx st_c [ (st_c, false); out_body ]
  | Pexp_for (_, a, b, _, body) ->
      let st, _ = walk ctx env st a in
      let st, _ = walk ctx env st b in
      let out_body = walk ctx env st body in
      join ctx st [ (st, false); out_body ]
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
      match arg with Some a -> (fst (walk ctx env st a), false) | None -> (st, false))
  | Pexp_tuple es | Pexp_array es ->
      (List.fold_left (fun st e -> fst (walk ctx env st e)) st es, false)
  | Pexp_field (obj, _) -> (fst (walk ctx env st obj), false)
  | Pexp_setfield (a, _, b) ->
      let st, _ = walk ctx env st a in
      (fst (walk ctx env st b), false)
  | Pexp_record (fields, base) ->
      let st =
        match base with Some b -> fst (walk ctx env st b) | None -> st
      in
      ( List.fold_left
          (fun st (_, v) -> if Cg.is_fn v then st else fst (walk ctx env st v))
          st fields,
        false )
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
    ->
      record_raise ctx st e.pexp_loc;
      (st, true)
  | Pexp_assert a ->
      let st = fst (walk ctx env st a) in
      record_raise ctx st e.pexp_loc;
      (st, false)
  | Pexp_constraint (a, _)
  | Pexp_coerce (a, _, _)
  | Pexp_lazy a
  | Pexp_open (_, a)
  | Pexp_letexception (_, a)
  | Pexp_letmodule (_, _, a)
  | Pexp_poly (a, _) ->
      walk ctx env st a
  | _ ->
      (List.fold_left (fun st c -> fst (walk ctx env st c)) st (Cg.direct_children e), false)

(* [if lock_row t ~gen row then ... ] / [if not (lock_row ...) then ...]:
   the lock is held only in the success branch. *)
and cond_acquire_shape ctx env st cond =
  let of_apply negated fn args loc =
    match Cg.rawcallee_of env fn with
    | Some raw -> (
        match Cg.raw_pair ctx.file raw with
        | Some pair -> (
            match Cg.assoc2 ctx.t.Cg.config.Cg.cond_acquire_locks pair with
            | Some family ->
                let s = walk_args ctx env st args ~deferred:false in
                let s = cross_pend s ~display:(family ^ " lock acquire") ~yline:(line loc) in
                Some
                  (negated, s, { family; fp = fingerprint args; line = line loc; scoped = false })
            | None -> None)
        | None -> None)
    | None -> None
  in
  match cond.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "not"; _ }; _ }, [ (_, inner) ])
    -> (
      match inner.pexp_desc with
      | Pexp_apply (fn, args) -> of_apply true fn args inner.pexp_loc
      | _ -> None)
  | Pexp_apply (fn, args) -> of_apply false fn args cond.pexp_loc
  | _ -> None

and walk_args ctx env st args ~deferred =
  List.fold_left
    (fun st (_, a) ->
      if Cg.is_fn a then
        if deferred then st
        else
          (* Inlined closure argument: List.iter & co run it now, so
             its lock operations and yields belong to the caller. *)
          walk_lambda_body ctx env st a
      else fst (walk ctx env st a))
    st args

and walk_lambda_body ctx env st lam =
  match (Cg.unwrap_fun lam).pexp_desc with
  | Pexp_function cases ->
      let outs = List.map (fun c -> walk ctx env st c.pc_rhs) cases in
      fst (join ctx st outs)
  | _ -> fst (walk ctx env st (Cg.unwrap_fun lam))

and walk_apply ctx env st loc fn args =
  match (fn.pexp_desc, args) with
  | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, a); (_, f) ]
    when Cg.rawcallee_of env f <> None ->
      walk_apply ctx env st loc f [ (Asttypes.Nolabel, a) ]
  | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, f); (_, a) ]
    when Cg.rawcallee_of env f <> None ->
      walk_apply ctx env st loc f [ (Asttypes.Nolabel, a) ]
  | _ -> (
      let st =
        match fn.pexp_desc with
        | Pexp_field (obj, _) -> fst (walk ctx env st obj)
        | _ -> st
      in
      match Cg.rawcallee_of env fn with
      | None ->
          let st, _ = walk ctx env st fn in
          let st = walk_args ctx env st args ~deferred:false in
          record_raise ctx st loc;
          (st, false)
      | Some raw when is_raise_path raw ->
          let st = walk_args ctx env st args ~deferred:false in
          record_raise ctx st loc;
          (st, true)
      | Some raw -> (
          let cfg = ctx.t.Cg.config in
          let pair = Cg.raw_pair ctx.file raw in
          let lookup table = match pair with None -> None | Some p -> Cg.assoc2 table p in
          let memtab table = match pair with None -> false | Some p -> Cg.mem2 table p in
          match lookup cfg.Cg.scoped_locks with
          | Some family -> walk_scoped ctx env st loc args family
          | None -> (
              match
                match lookup cfg.Cg.acquire_locks with
                | Some f -> Some f
                | None -> lookup cfg.Cg.cond_acquire_locks
              with
              | Some family ->
                  let st = walk_args ctx env st args ~deferred:false in
                  let st = cross_pend st ~display:(family ^ " lock acquire") ~yline:(line loc) in
                  ( {
                      st with
                      held =
                        { family; fp = fingerprint args; line = line loc; scoped = false }
                        :: st.held;
                    },
                    false )
              | None -> (
                  match lookup cfg.Cg.release_locks with
                  | Some family ->
                      let st = walk_args ctx env st args ~deferred:false in
                      (release_tok st family (fingerprint args), false)
                  | None ->
                      if memtab cfg.Cg.noreturn then begin
                        let st = walk_args ctx env st args ~deferred:false in
                        (st, true)
                      end
                      else begin
                        let deferred = memtab cfg.Cg.defer_sinks in
                        let st = walk_args ctx env st args ~deferred in
                        (* function arguments passed by name to a
                           higher-order callee may run inside it *)
                        if (not deferred) && st.held <> [] then
                          List.iter
                            (fun (_, a) ->
                              match a.pexp_desc with
                              | Pexp_ident _ -> (
                                  match Cg.rawcallee_of env a with
                                  | Some r ->
                                      let c = Cg.resolve ctx.t ctx.file r in
                                      if Cg.callee_eff ctx.t c = Cg.Park then
                                        emit_y001 ctx a.pexp_loc st c
                                  | None -> ())
                              | _ -> ())
                            args;
                        let callee = Cg.resolve ctx.t ctx.file raw in
                        let eff = Cg.callee_eff ctx.t callee in
                        let st =
                          if eff <> Cg.Pure then
                            cross_pend st
                              ~display:(Cg.raw_display ctx.file.Cg.f_mod raw)
                              ~yline:(line loc)
                          else st
                        in
                        if eff = Cg.Park && st.held <> [] then emit_y001 ctx loc st callee;
                        if not (is_nonraising raw) then record_raise ctx st loc;
                        let st = handle_write ctx st loc raw args in
                        (st, false)
                      end))))

and emit_y001 ctx loc st callee =
  match st.held with
  | [] -> ()
  | tok :: _ ->
      diag ctx ~rule:"Y001" loc
        (Printf.sprintf
           "may-yield call while the %s lock (%s, acquired at line %d) is held; yield chain: %s"
           tok.family (show_fp tok.fp) tok.line
           (Cg.chain_of_callee ctx.t callee))

and walk_scoped ctx env st loc args family =
  let st = walk_args_nonfn ctx env st args in
  let fp = fingerprint args in
  let st = cross_pend st ~display:(family ^ " lock acquire") ~yline:(line loc) in
  let tok = { family; fp; line = line loc; scoped = true } in
  let entry = { st with held = tok :: st.held } in
  let raises_before = ctx.raises in
  let fn_args = List.filter (fun (_, a) -> Cg.is_fn a) args in
  let st' =
    match fn_args with
    | [] ->
        (* closure passed by name: charge its effect under the lock *)
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_ident _ -> (
                match Cg.rawcallee_of env a with
                | Some r ->
                    let c = Cg.resolve ctx.t ctx.file r in
                    if Cg.callee_eff ctx.t c = Cg.Park then emit_y001 ctx a.pexp_loc entry c
                | None -> ())
            | _ -> ())
          args;
        entry
    | lams -> List.fold_left (fun st (_, lam) -> walk_lambda_body ctx env st lam) entry lams
  in
  (* The helper releases on the exception path too: scrub the token
     from raise states recorded inside the closure. *)
  let rec scrub rs =
    if rs == raises_before then rs
    else
      match rs with
      | [] -> []
      | (s, l) :: rest ->
          ({ s with held = List.filter (fun tk -> tk <> tok) s.held }, l) :: scrub rest
  in
  ctx.raises <- scrub ctx.raises;
  ( { st' with
      held =
        (match remove_first (fun tk -> tk == tok) st'.held with
        | Some held -> held
        | None -> st'.held);
    },
    false )

and walk_args_nonfn ctx env st args =
  List.fold_left (fun st (_, a) -> if Cg.is_fn a then st else fst (walk ctx env st a)) st args

(* Y002: a write to a top-level mutable whose pending read crossed a
   yield, with no lock held, is a torn read-modify-write. *)
and handle_write ctx st loc raw args =
  let check_and_clear st name =
    (match List.find_opt (fun (n, _, _) -> n = name) st.pend with
    | Some (_, rl, Some (ydisp, yline)) when st.held = [] ->
        diag ctx ~rule:"Y002" loc
          (Printf.sprintf
             "torn read-modify-write of top-level mutable '%s': read at line %d crosses a \
              may-yield call (%s, line %d) before this write, with no lock held"
             name rl ydisp yline)
    | _ -> ());
    clear_read st name
  in
  let ident_arg a =
    match a.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } when List.mem x ctx.mutables -> Some x
    | _ -> None
  in
  match (raw, args) with
  | Cg.Rpath [ ":=" ], (_, lhs) :: _ -> (
      match ident_arg lhs with Some x -> check_and_clear st x | None -> st)
  | Cg.Rpath [ ("incr" | "decr") ], [ (_, a) ] -> (
      match ident_arg a with Some x -> check_and_clear st x | None -> st)
  | Cg.Rpath [ "Hashtbl"; ("replace" | "add" | "remove" | "reset" | "clear") ], (_, h) :: _
    -> (
      match ident_arg h with Some x -> check_and_clear st x | None -> st)
  | _ -> st

(* {1 Per-node entry} *)

let idiom_node t node =
  match Cg.key_pair node.Cg.key with
  | None -> false
  | Some pair ->
      let cfg = t.Cg.config in
      let in_tab tab = List.mem_assoc pair tab in
      in_tab cfg.Cg.scoped_locks || in_tab cfg.Cg.acquire_locks
      || in_tab cfg.Cg.release_locks
      || in_tab cfg.Cg.cond_acquire_locks
      || List.mem pair cfg.Cg.noreturn

let walk_node t file diags node =
  let ctx =
    {
      t;
      file;
      mutables = Cg.file_mutables file;
      node_key = node.Cg.key;
      diags;
      raises = [];
    }
  in
  let entry = { held = []; pend = [] } in
  let out, terminal =
    match node.Cg.body.pexp_desc with
    | Pexp_function cases ->
        let outs = List.map (fun c -> walk ctx node.Cg.env entry c.pc_rhs) cases in
        join ctx entry outs
    | _ -> walk ctx node.Cg.env entry node.Cg.body
  in
  if not terminal then
    List.iter
      (fun tok ->
        if not tok.scoped then
          let loc =
            {
              Location.none with
              loc_start = { Lexing.dummy_pos with pos_lnum = tok.line; pos_cnum = 0; pos_bol = 0 };
            }
          in
          diag ctx ~rule:"Y003" loc
            (Printf.sprintf "the %s lock (%s) acquired here is not released on every path"
               tok.family (show_fp tok.fp)))
      out.held;
  (* Raise states that escaped every handler in the function: a manual
     token held at such a site leaks if that site raises. One report
     per token, at the earliest raising site. *)
  let reported = ref [] in
  List.iter
    (fun (s, loc) ->
      List.iter
        (fun tok ->
          if (not tok.scoped) && not (List.mem tok !reported) then begin
            reported := tok :: !reported;
            diag ctx ~rule:"Y003" loc
              (Printf.sprintf
                 "the %s lock (%s, acquired at line %d) is not released if this raises"
                 tok.family (show_fp tok.fp) tok.line)
          end)
        s.held)
    (List.rev ctx.raises)

let check t file =
  let diags = ref [] in
  List.iter
    (fun node -> if not (idiom_node t node) then walk_node t file diags node)
    file.Cg.f_nodes;
  List.sort_uniq compare !diags
