open Nfsg_sim

(* Most tests never remove, so they drop the handle. *)
let add h ~key ~seq v = ignore (Heap.add h ~key ~seq v : Heap.handle)

let test_empty () =
  let h = Heap.create ~dummy:0 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Heap.size h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.check_raises "pop_min raises" (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
      ignore (Heap.pop_min h : int))

let test_ordering () =
  let h = Heap.create ~dummy:0 in
  List.iteri (fun i k -> add h ~key:k ~seq:i k) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (k, _, _) -> drain (k :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_fifo_ties () =
  let h = Heap.create ~dummy:0 in
  for i = 0 to 9 do
    add h ~key:42 ~seq:i i
  done;
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, _, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain [])

let test_interleaved () =
  let h = Heap.create ~dummy:"" in
  add h ~key:10 ~seq:0 "a";
  add h ~key:5 ~seq:1 "b";
  (match Heap.pop h with
  | Some (5, _, "b") -> ()
  | _ -> Alcotest.fail "expected b at key 5");
  add h ~key:1 ~seq:2 "c";
  (match Heap.pop h with
  | Some (1, _, "c") -> ()
  | _ -> Alcotest.fail "expected c at key 1");
  match Heap.pop h with
  | Some (10, _, "a") -> ()
  | _ -> Alcotest.fail "expected a at key 10"

let test_grow () =
  let h = Heap.create ~dummy:0 in
  let n = 10_000 in
  for i = n downto 1 do
    add h ~key:i ~seq:(n - i) i
  done;
  Alcotest.(check int) "size" n (Heap.size h);
  let prev = ref 0 in
  let ok = ref true in
  for _ = 1 to n do
    match Heap.pop h with
    | Some (k, _, _) ->
        if k < !prev then ok := false;
        prev := k
    | None -> ok := false
  done;
  Alcotest.(check bool) "monotone drain of 10k" true !ok

let test_clear () =
  let h = Heap.create ~dummy:() in
  add h ~key:1 ~seq:0 ();
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sort =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create ~dummy:0 in
      List.iteri (fun i k -> add h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (k, _, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let prop_stable =
  QCheck.Test.make ~name:"equal keys preserve insertion order" ~count:200
    QCheck.(list (pair (int_bound 3) small_int))
    (fun items ->
      let h = Heap.create ~dummy:(0, 0) in
      List.iteri (fun i (k, v) -> add h ~key:k ~seq:i (i, v)) items;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (k, _, (i, _)) -> drain ((k, i) :: acc)
      in
      let out = drain [] in
      (* Within each key, the sequence indices must be increasing. *)
      let rec check = function
        | (k1, i1) :: ((k2, i2) :: _ as rest) ->
            (k1 <> k2 || i1 < i2) && check rest
        | _ -> true
      in
      check out)

(* Random interleavings of add and pop against a reference: every pop
   must return exactly the (key, seq)-least outstanding entry, so ties
   stay seq-stable even when pops punch holes mid-stream (the shape
   the flat-array sift actually runs under, unlike add-all-then-drain). *)
let prop_interleaved_reference =
  QCheck.Test.make ~name:"interleaved add/pop matches stable reference" ~count:200
    QCheck.(list (option (int_bound 20)))
    (fun ops ->
      let h = Heap.create ~dummy:0 in
      let outstanding = ref [] in
      let seq = ref 0 in
      let le (k1, s1) (k2, s2) = k1 < k2 || (k1 = k2 && s1 < s2) in
      let ok = ref true in
      let pop_and_check () =
        match (Heap.pop h, !outstanding) with
        | None, [] -> ()
        | Some (k, s, v), (_ :: _ as entries) ->
            let m = List.fold_left (fun a e -> if le e a then e else a) (List.hd entries) entries in
            if (k, s) <> m || v <> snd m then ok := false;
            outstanding := List.filter (fun e -> e <> m) !outstanding
        | _ -> ok := false
      in
      List.iter
        (function
          | Some k ->
              add h ~key:k ~seq:!seq !seq;
              outstanding := (k, !seq) :: !outstanding;
              incr seq
          | None -> pop_and_check ())
        ops;
      while not (Heap.is_empty h) do
        pop_and_check ()
      done;
      !ok && !outstanding = [])

let test_remove () =
  let h = Heap.create ~dummy:"" in
  let a = Heap.add h ~key:3 ~seq:0 "a" in
  let b = Heap.add h ~key:1 ~seq:1 "b" in
  let c = Heap.add h ~key:2 ~seq:2 "c" in
  Alcotest.(check bool) "remove c" true (Heap.remove h c);
  Alcotest.(check bool) "remove c again" false (Heap.remove h c);
  Alcotest.(check int) "size" 2 (Heap.size h);
  Alcotest.(check string) "b first" "b" (Heap.pop_min h);
  Alcotest.(check bool) "remove b after its pop" false (Heap.remove h b);
  Alcotest.(check bool) "remove a, the root" true (Heap.remove h a);
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

(* The slot a popped entry leaves is reused by the next add; the old
   handle must not reach the new entry through it. *)
let test_stale_handle_after_reuse () =
  let h = Heap.create ~dummy:"" in
  let a = Heap.add h ~key:1 ~seq:0 "a" in
  ignore (Heap.pop_min h : string);
  let b = Heap.add h ~key:1 ~seq:1 "b" in
  Alcotest.(check bool) "stale handle refused" false (Heap.remove h a);
  Alcotest.(check int) "b still queued" 1 (Heap.size h);
  Heap.clear h;
  Alcotest.(check bool) "clear makes handles stale" false (Heap.remove h b);
  let c = Heap.add h ~key:1 ~seq:2 "c" in
  Alcotest.(check bool) "fresh handle accepted" true (Heap.remove h c)

(* A payload is dropped when its entry leaves, by pop or by remove, so
   the queue never keeps a finished event's closure alive. *)
let test_payloads_released () =
  let h = Heap.create ~dummy:[||] in
  let n = 64 in
  let weak = Weak.create n in
  let handles =
    Array.init n (fun i ->
        let v = Array.make 4 i in
        Weak.set weak i (Some v);
        Heap.add h ~key:i ~seq:i v)
  in
  for _ = 0 to (n / 2) - 1 do
    ignore (Heap.pop_min h : int array)
  done;
  for i = n / 2 to n - 1 do
    if i mod 2 = 0 then ignore (Heap.remove h handles.(i) : bool)
  done;
  Gc.full_major ();
  let alive i = Weak.check weak i in
  let leaked = List.filter (fun i -> alive i <> (i >= n / 2 && i mod 2 = 1)) (List.init n Fun.id) in
  Alcotest.(check (list int)) "exactly the queued payloads are alive" [] leaked;
  (* Using the heap after the collection keeps it, and so its queued
     payloads, reachable through it. *)
  Alcotest.(check int) "still queued" (n / 4) (Heap.size h)

(* {1 The queue against its reference model}

   Random traces of add (keys drawn from a small range, so they
   collide), pop and remove. A remove names any handle issued so far:
   one still queued, one already popped, or one already removed. The
   reference heap cannot remove, so a removed entry stays in it and is
   skipped when it surfaces, which is how the engine treated a
   cancelled timer before entries became removable. Every pop must
   agree on (key, seq, value), every remove must succeed exactly when
   its entry is still queued, and the sizes must agree throughout. *)

type op = Add of int | Pop | Remove of int

let pp_op = function Add k -> Printf.sprintf "add %d" k | Pop -> "pop" | Remove i -> Printf.sprintf "remove #%d" i

let arb_trace =
  let open QCheck.Gen in
  let op = frequency [ (5, map (fun k -> Add k) (int_bound 5)); (3, return Pop); (3, map (fun i -> Remove i) nat) ] in
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops)) (list_size (int_range 0 300) op)

let check_trace ops =
  let h = Heap.create ~dummy:(-1) and r = Heap_ref.create () in
  (* Entry ids double as seqs and values; [handles] and [status] are
     indexed by id. *)
  let handles = Hashtbl.create 64 and status = Hashtbl.create 64 and queued = ref 0 in
  let rec ref_pop () =
    match Heap_ref.pop r with
    | Some (_, _, id) when Hashtbl.find status id = `Removed -> ref_pop ()
    | popped -> popped
  in
  let pop step =
    let got = Heap.pop h and want = ref_pop () in
    if got <> want then QCheck.Test.fail_reportf "step %d: pop disagrees with the reference" step;
    Option.iter
      (fun (_, _, id) ->
        Hashtbl.replace status id `Popped;
        decr queued)
      got
  in
  List.iteri
    (fun step op ->
      (match op with
      | Add key ->
          let id = Hashtbl.length handles in
          Hashtbl.replace handles id (Heap.add h ~key ~seq:id id);
          Heap_ref.add r ~key ~seq:id id;
          Hashtbl.replace status id `Queued;
          incr queued
      | Pop -> pop step
      | Remove i ->
          let n = Hashtbl.length handles in
          if n > 0 then begin
            let id = i mod n in
            let live = Hashtbl.find status id = `Queued in
            if Heap.remove h (Hashtbl.find handles id) <> live then
              QCheck.Test.fail_reportf "step %d: remove #%d returned %b" step id (not live);
            if live then begin
              Hashtbl.replace status id `Removed;
              decr queued
            end
          end);
      if Heap.size h <> !queued then
        QCheck.Test.fail_reportf "step %d: size %d, %d queued" step (Heap.size h) !queued)
    ops;
  let steps = List.length ops in
  while not (Heap.is_empty h) do
    pop steps
  done;
  ref_pop () = None

let prop_matches_reference =
  QCheck.Test.make ~name:"engine queue matches its reference model" ~count:500 arb_trace check_trace

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pops in key order" `Quick test_ordering;
    Alcotest.test_case "FIFO among equal keys" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved;
    Alcotest.test_case "grows past initial capacity" `Quick test_grow;
    Alcotest.test_case "clear empties" `Quick test_clear;
    QCheck_alcotest.to_alcotest prop_heap_sort;
    QCheck_alcotest.to_alcotest prop_stable;
    QCheck_alcotest.to_alcotest prop_interleaved_reference;
    Alcotest.test_case "remove takes an entry out" `Quick test_remove;
    Alcotest.test_case "stale handle never reaches a reused slot" `Quick test_stale_handle_after_reuse;
    Alcotest.test_case "popped and removed payloads are released" `Quick test_payloads_released;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
