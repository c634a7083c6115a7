(* Intra-repo call graph with a transitive may-yield effect.

   Pure Parsetree analysis, like nfslint: no typing, no ppx. Every
   top-level function, local function binding and deferred lambda
   (spawned process body, record-of-functions field) becomes a node;
   applications become edges. The effect lattice is Pure < Delay <
   Park: a Delay call completes after a bounded span of virtual time
   (Engine.delay, Engine.yield, a bounded-by-contract override such
   as Resource.use), a Park call waits open-endedly for another party
   (Engine.park, Engine.suspend and whatever reaches them — ivar
   reads, condition waits, the blocking Device.read/write shims). Y001 fires
   on Park only: holding a sleep lock across bounded virtual time is
   the paper's design, holding it across an open-ended wait is the
   PR 7 convoy.

   Each node's effect carries a witness — the call that gave it the
   effect — so a diagnostic can print the full chain from the flagged
   call down to the engine primitive. *)

open Parsetree

type eff = Pure | Delay | Park

let eff_rank = function Pure -> 0 | Delay -> 1 | Park -> 2
let max_eff a b = if eff_rank a >= eff_rank b then a else b

type config = {
  park_seeds : (string * string) list;  (** open-ended waits, e.g. Engine.park *)
  delay_seeds : (string * string) list;  (** bounded waits, e.g. Engine.delay *)
  overrides : ((string * string) * eff) list;
      (** bounded-by-contract caps, e.g. Resource.use: reaches park but the
          FIFO capacity queue bounds the wait, so Y001 must not fire on it *)
  park_fields : (string * string) list;  (** record-field calls, e.g. x.Device.read *)
  delay_fields : (string * string) list;  (** e.g. x.Device.submit: copy delay, never blocks *)
  scoped_locks : ((string * string) * string) list;  (** fn -> lock family, e.g. Fs.with_lock *)
  acquire_locks : ((string * string) * string) list;
  release_locks : ((string * string) * string) list;
  cond_acquire_locks : ((string * string) * string) list;
      (** acquire returning bool, e.g. Stripe.lock_row: [if lock_row ...] threads
          the lock into the success branch only *)
  defer_sinks : (string * string) list;
      (** functions whose closure arguments run later as their own process,
          e.g. Engine.spawn: the closure's effects do not taint the caller *)
  noreturn : (string * string) list;
      (** calls that never return, e.g. Stripe.crashed_park: their branch
          needs no lock release and no Y001 *)
  exempt_files : string list;
      (** parsed for the call graph but not rule-walked (the engine's effect
          handlers live beneath the cooperative abstraction) *)
}

(* {1 Longident helpers} *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

(* Library-wrapper prefixes (Stdlib, Nfsg_sim, ...) name the same
   modules the short paths do. *)
let is_wrapper c = c = "Stdlib" || (String.length c > 5 && String.sub c 0 5 = "Nfsg_")
let strip_wrappers path = List.filter (fun c -> not (is_wrapper c)) path

let module_of_rel rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

let loc_line (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

(* Thunks bound to names like [await] or [await_flush] are, by repo
   convention, the second half of a begin/await split: calling one
   parks on the completion of work submitted earlier. The call graph
   cannot see through the closure, so the name is the contract. *)
let await_named f = f = "await" || (String.length f > 6 && String.sub f 0 6 = "await_")

(* {1 Nodes} *)

type callee =
  | Cnode of string  (** resolved to a node key *)
  | Cseed of string * eff  (** display name, effect class *)
  | Cunknown

type rawcallee =
  | Rlocal of string  (** bare ident resolved to a local-function node key *)
  | Rpath of string list  (** written path, wrappers stripped *)
  | Rfield of string option * string  (** record-field application: module, field *)

type why =
  | Wnone
  | Wseed of string  (** display name of the primitive / field / thunk *)
  | Wcall of string  (** key of the callee the effect came through *)
  | Wannot of string  (** reason text of the yields annotation *)

type node = {
  key : string;
  rel : string;
  top_line : int;
  body : expression;
  env : (string * string) list;  (** visible local-function names -> node keys *)
  implicit : bool;  (** deferred lambda: runs later, effects not charged to parent *)
  mutable raw : (Location.t * rawcallee) list;
  mutable edges : (Location.t * callee * string) list;  (** loc, callee, display *)
  mutable eff : eff;
  mutable why : why;
}

type file = {
  f_rel : string;
  f_mod : string;
  f_aliases : (string * string) list;
  mutable f_mutables : string list;  (** top-level mutable bindings, for Y002 *)
  f_annots : Annot.t list;
  mutable f_nodes : node list;
}

type t = {
  config : config;
  files : file list;
  by_key : (string, node) Hashtbl.t;
  index2 : (string * string, string) Hashtbl.t;  (** (Module, fn) -> node key *)
}

(* "Fs.syncdata" -> Some ("Fs", "syncdata"); deeper keys (local
   functions, anonymous lambdas) have no canonical pair and never match
   the seed or idiom tables. *)
let key_pair key =
  match String.split_on_char '.' key with [ m; f ] -> Some (m, f) | _ -> None

let mem2 table pair = List.mem pair table
let assoc2 table pair = List.assoc_opt pair table

(* {1 Syntactic helpers} *)

let rec is_fn e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, b) -> is_fn b
  | _ -> false

(* Strip the leading parameter chain of a function binding; the result
   is the body that runs per call (possibly a [function] case set). *)
let rec unwrap_fun e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> unwrap_fun body
  | Pexp_newtype (_, body) -> unwrap_fun body
  | _ -> e

let binding_name vb =
  let rec go pat =
    match pat.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go vb.pvb_pat

let is_mutable_maker e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match strip_wrappers (flatten txt) with
      | [ "ref" ]
      | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer"); "create" ]
      | [ "Atomic"; "make" ] ->
          true
      | _ -> false)
  | _ -> false

let rawcallee_of env fnexpr =
  match fnexpr.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match strip_wrappers (flatten txt) with
      | [] -> None
      | [ f ] -> (
          match List.assoc_opt f env with
          | Some key -> Some (Rlocal key)
          | None -> Some (Rpath [ f ]))
      | path -> Some (Rpath path))
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (flatten txt) with
      | [ fld ] -> Some (Rfield (None, fld))
      | fld :: m :: _ -> Some (Rfield (Some m, fld))
      | [] -> None)
  | _ -> None

let raw_display modname raw =
  match raw with
  | Rlocal key -> key
  | Rpath [ f ] -> modname ^ "." ^ f
  | Rpath path -> String.concat "." path
  | Rfield (Some m, fld) -> "." ^ m ^ "." ^ fld
  | Rfield (None, fld) -> "." ^ fld

(* Canonical (Module, fn) pair used for the seed / idiom tables. Bare
   idents belong to the defining module; qualified paths to their last
   two components (after de-aliasing). *)
let raw_pair file raw =
  match raw with
  | Rlocal key -> key_pair key
  | Rpath [ f ] -> Some (file.f_mod, f)
  | Rpath path -> (
      let path =
        match path with
        | first :: rest -> (
            match List.assoc_opt first file.f_aliases with
            | Some canon -> canon :: rest
            | None -> path)
        | [] -> path
      in
      match List.rev path with f :: m :: _ -> Some (m, f) | _ -> None)
  | Rfield (m, fld) -> Option.map (fun m -> (m, fld)) m

(* {1 Stage A: node discovery + raw edge collection} *)

type bctx = { cfg : config; file : file }

let anon_key parent (loc : Location.t) =
  Printf.sprintf "%s.<fn@%d:%d>" parent.key (loc_line loc)
    (loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol)

let new_node ctx ~key ~line ~env ~implicit body =
  let n =
    {
      key;
      rel = ctx.file.f_rel;
      top_line = line;
      body;
      env;
      implicit;
      raw = [];
      edges = [];
      eff = Pure;
      why = Wnone;
    }
  in
  ctx.file.f_nodes <- ctx.file.f_nodes @ [ n ];
  n

(* Collect the calls of one node body. Lambdas found along the way are
   either inlined (arguments to ordinary calls: List.iter etc. run them
   now, so their calls belong to this node) or split off as implicit
   nodes (deferred positions: spawn/schedule/timer arguments, record
   fields, lambdas that are stored or returned rather than applied). *)
let rec collect ctx node env e =
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable | Pexp_extension _ -> ()
  | Pexp_fun _ | Pexp_newtype _ | Pexp_function _ -> defer_lambda ctx node env e
  | Pexp_let (rf, vbs, body) ->
      let env' = collect_let ctx node env rf vbs in
      collect ctx node env' body
  | Pexp_apply (fn, args) -> collect_apply ctx node env e.pexp_loc fn args
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      collect ctx node env scrut;
      List.iter (collect_case ctx node env) cases
  | Pexp_record (fields, base) ->
      Option.iter (collect ctx node env) base;
      List.iter
        (fun (_, v) -> if is_fn v then defer_lambda ctx node env v else collect ctx node env v)
        fields
  | Pexp_ifthenelse (c, t, f) ->
      collect ctx node env c;
      collect ctx node env t;
      Option.iter (collect ctx node env) f
  | Pexp_sequence (a, b) | Pexp_while (a, b) ->
      collect ctx node env a;
      collect ctx node env b
  | Pexp_for (_, a, b, _, body) ->
      collect ctx node env a;
      collect ctx node env b;
      collect ctx node env body
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> Option.iter (collect ctx node env) arg
  | Pexp_tuple es | Pexp_array es -> List.iter (collect ctx node env) es
  | Pexp_field (obj, _) -> collect ctx node env obj
  | Pexp_setfield (a, _, b) ->
      collect ctx node env a;
      collect ctx node env b
  | Pexp_constraint (e, _)
  | Pexp_coerce (e, _, _)
  | Pexp_assert e
  | Pexp_lazy e
  | Pexp_open (_, e)
  | Pexp_letexception (_, e)
  | Pexp_letmodule (_, _, e)
  | Pexp_poly (e, _) -> collect ctx node env e
  | _ ->
      (* Remaining constructors (objects, first-class modules, letops)
         do not occur in this tree; walk their direct children so a
         future use degrades to under-approximation, not a crash. *)
      List.iter (collect ctx node env) (direct_children e)

and direct_children e =
  let acc = ref [] in
  let collector =
    { Ast_iterator.default_iterator with expr = (fun _ c -> acc := c :: !acc) }
  in
  Ast_iterator.default_iterator.expr collector e;
  List.rev !acc

and collect_case ctx node env case =
  Option.iter (collect ctx node env) case.pc_guard;
  collect ctx node env case.pc_rhs

and collect_let ctx node env rf vbs =
  List.fold_left
    (fun env' vb ->
      match (binding_name vb, is_fn vb.pvb_expr) with
      | Some name, true ->
          let key = node.key ^ "." ^ name in
          let inner_env = if rf = Recursive then (name, key) :: env' else env' in
          let child =
            new_node ctx ~key ~line:(loc_line vb.pvb_loc) ~env:inner_env ~implicit:false
              (unwrap_fun vb.pvb_expr)
          in
          collect_body ctx child;
          (name, key) :: env'
      | _ ->
          collect ctx node env' vb.pvb_expr;
          env')
    env vbs

and defer_lambda ctx node env e =
  let child =
    new_node ctx ~key:(anon_key node e.pexp_loc) ~line:(loc_line e.pexp_loc) ~env
      ~implicit:true (unwrap_fun e)
  in
  collect_body ctx child

(* Inline a lambda argument: its body's calls belong to the caller. *)
and inline_lambda ctx node env e =
  match (unwrap_fun e).pexp_desc with
  | Pexp_function cases -> List.iter (collect_case ctx node env) cases
  | _ -> collect ctx node env (unwrap_fun e)

and collect_apply ctx node env loc fn args =
  match (fn.pexp_desc, args) with
  | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, a); (_, f) ] ->
      pipeline_apply ctx node env loc f a
  | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, f); (_, a) ] ->
      pipeline_apply ctx node env loc f a
  | _ ->
      let raw = rawcallee_of env fn in
      (match raw with
      | Some r -> node.raw <- (loc, r) :: node.raw
      | None -> collect ctx node env fn);
      (match fn.pexp_desc with Pexp_field (obj, _) -> collect ctx node env obj | _ -> ());
      let deferred =
        match raw with
        | Some r -> (
            match raw_pair ctx.file r with
            | Some pair -> mem2 ctx.cfg.defer_sinks pair
            | None -> false)
        | None -> false
      in
      List.iter
        (fun (_, a) ->
          if is_fn a then
            if deferred then defer_lambda ctx node env a else inline_lambda ctx node env a
          else begin
            (* A function passed by name to an unknown higher-order
               callee may be called by it: record the potential edge. *)
            (match a.pexp_desc with
            | Pexp_ident _ when not deferred -> (
                match rawcallee_of env a with
                | Some r -> node.raw <- (a.pexp_loc, r) :: node.raw
                | None -> ())
            | _ -> ());
            collect ctx node env a
          end)
        args

and pipeline_apply ctx node env loc f a =
  match rawcallee_of env f with
  | Some _ -> collect_apply ctx node env loc f [ (Asttypes.Nolabel, a) ]
  | None ->
      collect ctx node env f;
      collect ctx node env a

and collect_body ctx node =
  match node.body.pexp_desc with
  | Pexp_function cases -> List.iter (collect_case ctx node node.env) cases
  | _ -> collect ctx node node.env node.body

(* {1 Per-file discovery} *)

let expr_mentions_fn e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self c ->
          (match c.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self c);
    }
  in
  it.Ast_iterator.expr it e;
  !found

(* Non-function top-level bindings can still carry lambdas (a record
   of functions built at module init); give them an implicit wrapper
   node so those lambdas are discovered and walked. *)
let scan_toplevel_expr ctx modprefix name vb =
  if expr_mentions_fn vb.pvb_expr then begin
    let key = Printf.sprintf "%s.<def %s@%d>" modprefix name (loc_line vb.pvb_loc) in
    let node =
      new_node ctx ~key ~line:(loc_line vb.pvb_loc) ~env:[] ~implicit:true vb.pvb_expr
    in
    collect_body ctx node
  end

let scan_structure ctx structure =
  let rec items modprefix structure =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (rf, vbs) ->
            List.iter
              (fun vb ->
                match binding_name vb with
                | Some name when is_fn vb.pvb_expr ->
                    let key = modprefix ^ "." ^ name in
                    let env = if rf = Recursive then [ (name, key) ] else [] in
                    let node =
                      new_node ctx ~key ~line:(loc_line vb.pvb_loc) ~env ~implicit:false
                        (unwrap_fun vb.pvb_expr)
                    in
                    collect_body ctx node
                | Some name ->
                    if is_mutable_maker vb.pvb_expr then
                      ctx.file.f_mutables <- name :: ctx.file.f_mutables;
                    scan_toplevel_expr ctx modprefix name vb
                | None -> scan_toplevel_expr ctx modprefix "<top>" vb)
              vbs
        | Pstr_module
            {
              pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure inner; _ };
              _;
            } ->
            (* Nested module: its functions are addressed as Sub.f at
               call sites, so key them under the inner module name. *)
            items sub inner
        | _ -> ())
      structure
  in
  items ctx.file.f_mod structure

let aliases_of structure =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          {
            pmb_name = { txt = Some name; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _;
          } -> (
          match List.rev (strip_wrappers (flatten txt)) with
          | canon :: _ -> Some (name, canon)
          | [] -> None)
      | _ -> None)
    structure

(* {1 Stage B: resolution} *)

let file_mutables f = List.sort_uniq compare f.f_mutables

let resolve t file raw =
  match raw with
  | Rlocal key -> Cnode key
  | Rfield (Some m, fld) ->
      if mem2 t.config.park_fields (m, fld) then Cseed ("." ^ m ^ "." ^ fld, Park)
      else if mem2 t.config.delay_fields (m, fld) then Cseed ("." ^ m ^ "." ^ fld, Delay)
      else if await_named fld then Cseed ("." ^ fld ^ " (await naming convention)", Park)
      else Cunknown
  | Rfield (None, fld) ->
      if await_named fld then Cseed ("." ^ fld ^ " (await naming convention)", Park)
      else Cunknown
  | Rpath _ -> (
      match raw_pair file raw with
      | None -> Cunknown
      | Some ((m, f) as pair) ->
          if mem2 t.config.park_seeds pair then Cseed (m ^ "." ^ f, Park)
          else if mem2 t.config.delay_seeds pair then Cseed (m ^ "." ^ f, Delay)
          else begin
            match assoc2 t.config.overrides pair with
            | Some e -> Cseed (m ^ "." ^ f ^ " (bounded by contract)", e)
            | None -> (
                match Hashtbl.find_opt t.index2 pair with
                | Some key -> Cnode key
                | None ->
                    if await_named f then Cseed (m ^ "." ^ f ^ " (await naming convention)", Park)
                    else Cunknown)
          end)

(* Effect of a resolved callee. Seed and override pairs win over the
   node's inferred effect so e.g. Engine.park reports as the
   primitive, and Resource.use stays capped at Delay even though its
   body reaches park. *)
let callee_eff t callee =
  match callee with
  | Cseed (_, e) -> e
  | Cunknown -> Pure
  | Cnode key -> (
      let pair = key_pair key in
      let seeded =
        match pair with
        | None -> None
        | Some p ->
            if mem2 t.config.park_seeds p then Some Park
            else if mem2 t.config.delay_seeds p then Some Delay
            else if mem2 t.config.noreturn p then
              (* A no-return call (crash park) never resumes its
                 caller, so the caller does not yield-and-continue
                 through it. *)
              Some Pure
            else assoc2 t.config.overrides p
      in
      match seeded with
      | Some e -> e
      | None -> (
          match Hashtbl.find_opt t.by_key key with Some n -> n.eff | None -> Pure))

(* {1 Effect fixpoint} *)

let all_nodes t = List.concat_map (fun f -> f.f_nodes) t.files

let apply_annotations t =
  List.iter
    (fun f ->
      List.iter
        (fun (a : Annot.t) ->
          List.iter
            (fun n ->
              if (n.top_line = a.line || n.top_line = a.line + 1) && not n.implicit then begin
                a.used <- true;
                if a.reason <> "" && n.eff <> Park then begin
                  n.eff <- Park;
                  n.why <- Wannot a.reason
                end
              end)
            f.f_nodes)
        f.f_annots)
    t.files

let fixpoint t =
  let nodes = all_nodes t in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        List.iter
          (fun (_, callee, display) ->
            let e = callee_eff t callee in
            if eff_rank e > eff_rank n.eff then begin
              n.eff <- e;
              n.why <-
                (match callee with Cnode key -> Wcall key | _ -> Wseed display);
              changed := true
            end)
          n.edges)
      nodes
  done

(* {1 Witness chains} *)

let chain_of_key t key =
  let rec go key acc seen =
    if List.mem key seen || List.length acc > 12 then List.rev (key :: acc)
    else
      match Hashtbl.find_opt t.by_key key with
      | None -> List.rev (key :: acc)
      | Some n -> (
          match n.why with
          | Wnone -> List.rev (key :: acc)
          | Wseed d -> List.rev (d :: key :: acc)
          | Wannot r -> List.rev ((key ^ " (annotated: " ^ r ^ ")") :: acc)
          | Wcall next -> go next (key :: acc) (key :: seen))
  in
  String.concat " -> " (go key [] [])

let chain_of_callee t callee =
  match callee with
  | Cseed (d, _) -> d
  | Cnode key -> chain_of_key t key
  | Cunknown -> "?"

(* {1 Build} *)

let build config parsed =
  (* parsed: (rel, structure, annots) triples *)
  let files =
    List.map
      (fun (rel, structure, annots) ->
        {
          f_rel = rel;
          f_mod = module_of_rel rel;
          f_aliases = aliases_of structure;
          f_mutables = [];
          f_annots = annots;
          f_nodes = [];
        })
      parsed
  in
  List.iter2
    (fun file (_, structure, _) -> scan_structure { cfg = config; file } structure)
    files parsed;
  let t =
    { config; files; by_key = Hashtbl.create 256; index2 = Hashtbl.create 256 }
  in
  List.iter
    (fun f ->
      List.iter
        (fun n ->
          if not (Hashtbl.mem t.by_key n.key) then Hashtbl.replace t.by_key n.key n;
          match key_pair n.key with
          | Some pair when not (Hashtbl.mem t.index2 pair) ->
              Hashtbl.replace t.index2 pair n.key
          | _ -> ())
        f.f_nodes)
    files;
  List.iter
    (fun f ->
      List.iter
        (fun n ->
          n.edges <-
            List.rev_map
              (fun (loc, raw) -> (loc, resolve t f raw, raw_display f.f_mod raw))
              n.raw)
        f.f_nodes)
    files;
  apply_annotations t;
  fixpoint t;
  t
