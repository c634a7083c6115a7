(* A test that is written but never registered passes silently
   forever. Every top-level test_* function in test/ must be reachable
   from its module's [suite], and every test module's [suite] from
   test_main. Parsed with the compiler's own parser, like nfslint. *)

let parse file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf file;
      Parse.implementation lexbuf)

(* Top-level [let name = expr] bindings, in file order. *)
let bindings structure =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> Some (txt, vb.pvb_expr) | _ -> None)
            vbs
      | _ -> [])
    structure

(* Every value path the AST node mentions, flattened ("suite",
   "Test_heap.suite"), through the iterator's entry point [visit]. *)
let idents visit node =
  let found = ref [] in
  let expr_it self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> found := String.concat "." (Longident.flatten txt) :: !found
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_it } in
  visit it node;
  !found

let expr_idents = idents (fun it e -> it.expr it e)

(* The top-level names reachable from [root] through the bindings'
   bodies. *)
let reachable top root =
  let rec walk seen = function
    | [] -> seen
    | n :: rest when List.mem n seen -> walk seen rest
    | n :: rest -> (
        match List.assoc_opt n top with
        | Some e -> walk (n :: seen) (expr_idents e @ rest)
        | None -> walk seen rest)
  in
  walk [] [ root ]

let test_modules () =
  Sys.readdir "." |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"test_" f && Filename.check_suffix f ".ml" && f <> "test_main.ml")
  |> List.sort compare

let test_every_test_registered () =
  let files = test_modules () in
  Alcotest.(check bool) "found the test sources" true (List.length files > 30);
  let unregistered =
    List.concat_map
      (fun file ->
        let top = bindings (parse file) in
        let reached = reachable top "suite" in
        List.filter_map
          (fun (name, _) ->
            if String.starts_with ~prefix:"test_" name && not (List.mem name reached) then
              Some (file ^ ": " ^ name)
            else None)
          top)
      files
  in
  Alcotest.(check (list string)) "test_* functions outside every suite" [] unregistered;
  let main = idents (fun it s -> it.structure it s) (parse "test_main.ml") in
  let missing =
    List.filter
      (fun file -> not (List.mem (String.capitalize_ascii (Filename.chop_suffix file ".ml") ^ ".suite") main))
      files
  in
  Alcotest.(check (list string)) "test modules whose suite test_main never runs" [] missing

let suite = [ Alcotest.test_case "every test_ function is registered" `Quick test_every_test_registered ]
