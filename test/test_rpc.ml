open Nfsg_sim
open Nfsg_rpc
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket

let test_call_roundtrip () =
  let call =
    { Rpc.xid = 42; prog = Rpc.nfs_program; vers = 2; proc = 8;
      body = Xdr.view_of_bytes (Bytes.of_string "args") }
  in
  let decoded = Rpc.decode_call (Rpc.encode_call call) in
  Alcotest.(check bool) "roundtrip" true
    (decoded.Rpc.xid = call.Rpc.xid && decoded.Rpc.prog = call.Rpc.prog
    && decoded.Rpc.vers = call.Rpc.vers && decoded.Rpc.proc = call.Rpc.proc
    && Xdr.view_equal decoded.Rpc.body call.Rpc.body)

let reply_eq a b =
  a.Rpc.rxid = b.Rpc.rxid && a.Rpc.stat = b.Rpc.stat && Xdr.view_equal a.Rpc.rbody b.Rpc.rbody

let test_reply_roundtrip () =
  let reply = { Rpc.rxid = 42; stat = Rpc.Success; rbody = Xdr.view_of_bytes (Bytes.of_string "result") } in
  Alcotest.(check bool) "roundtrip" true (reply_eq (Rpc.decode_reply (Rpc.encode_reply reply)) reply);
  let err = { Rpc.rxid = 1; stat = Rpc.Garbage_args; rbody = Xdr.empty_view } in
  Alcotest.(check bool) "error roundtrip" true (reply_eq (Rpc.decode_reply (Rpc.encode_reply err)) err)

let test_is_call_classifier () =
  let call = Rpc.encode_call { Rpc.xid = 1; prog = 1; vers = 1; proc = 1; body = Xdr.empty_view } in
  let reply = Rpc.encode_reply { Rpc.rxid = 1; stat = Rpc.Success; rbody = Xdr.empty_view } in
  Alcotest.(check bool) "call" true (Rpc.is_call call);
  Alcotest.(check bool) "reply" false (Rpc.is_call reply);
  Alcotest.(check bool) "short garbage" false (Rpc.is_call (Bytes.make 3 'x'))

(* {1 Duplicate cache} *)

let test_dupcache_lifecycle () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng () in
  Alcotest.(check bool) "first is new" true (Dupcache.admit dc ~client:"c" ~xid:1 = Dupcache.New);
  Alcotest.(check bool) "repeat in flight dropped" true
    (Dupcache.admit dc ~client:"c" ~xid:1 = Dupcache.In_progress);
  Alcotest.(check int) "drop counted" 1 (Dupcache.drops dc);
  Dupcache.complete dc ~client:"c" ~xid:1 (Bytes.of_string "reply!");
  (match Dupcache.admit dc ~client:"c" ~xid:1 with
  | Dupcache.Replay b -> Alcotest.(check string) "replayed" "reply!" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected replay");
  Alcotest.(check int) "replay counted" 1 (Dupcache.replays dc);
  (* Same xid from a different client is distinct. *)
  Alcotest.(check bool) "other client is new" true (Dupcache.admit dc ~client:"d" ~xid:1 = Dupcache.New)

let test_dupcache_ttl_expiry () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~ttl:(Time.sec 2) () in
  ignore (Dupcache.admit dc ~client:"c" ~xid:9);
  Dupcache.complete dc ~client:"c" ~xid:9 (Bytes.of_string "r");
  Engine.schedule eng ~after:(Time.sec 5) (fun () ->
      Alcotest.(check bool) "expired entry re-executes" true
        (Dupcache.admit dc ~client:"c" ~xid:9 = Dupcache.New));
  Engine.run eng

let test_dupcache_eviction () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:4 () in
  for xid = 1 to 10 do
    ignore (Dupcache.admit dc ~client:"c" ~xid);
    Dupcache.complete dc ~client:"c" ~xid (Bytes.create 0)
  done;
  Alcotest.(check int) "never above capacity" 4 (Dupcache.entries dc);
  Alcotest.(check int) "evictions counted" 6 (Dupcache.evictions dc)

let test_dupcache_evicts_least_recently_touched () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:3 ~ttl:(Time.sec 60) () in
  Engine.spawn eng (fun () ->
      for xid = 1 to 3 do
        ignore (Dupcache.admit dc ~client:"c" ~xid);
        Dupcache.complete dc ~client:"c" ~xid (Bytes.of_string (string_of_int xid));
        Engine.delay (Time.ms 1)
      done;
      (* Touch xid 1 so xid 2 becomes the coldest completed entry. *)
      (match Dupcache.admit dc ~client:"c" ~xid:1 with
      | Dupcache.Replay _ -> ()
      | _ -> Alcotest.fail "warm entry should replay");
      ignore (Dupcache.admit dc ~client:"c" ~xid:4);
      Alcotest.(check int) "still at capacity" 3 (Dupcache.entries dc);
      Alcotest.(check int) "one eviction" 1 (Dupcache.evictions dc);
      (* The victim was xid 2 (least recently touched); 1 and 3 still
         replay (found-path admits never evict). *)
      (match Dupcache.admit dc ~client:"c" ~xid:3 with
      | Dupcache.Replay b -> Alcotest.(check string) "survivor replays" "3" (Bytes.to_string b)
      | _ -> Alcotest.fail "xid 3 should have survived");
      (match Dupcache.admit dc ~client:"c" ~xid:1 with
      | Dupcache.Replay _ -> ()
      | _ -> Alcotest.fail "xid 1 should have survived");
      (* The evicted key re-executes (costing one more eviction to make
         room for its new in-flight entry). *)
      Alcotest.(check bool) "coldest evicted" true (Dupcache.admit dc ~client:"c" ~xid:2 = Dupcache.New);
      Alcotest.(check int) "bounded throughout" 3 (Dupcache.entries dc);
      Alcotest.(check int) "second eviction" 2 (Dupcache.evictions dc));
  Engine.run eng

let test_dupcache_ttl_eager_drop () =
  (* Expired completed entries are dropped before any eviction is
     considered, and counted separately from evictions. *)
  let eng = Engine.create () in
  let m = Nfsg_stats.Metrics.create () in
  let dc = Dupcache.create eng ~capacity:8 ~ttl:(Time.ms 5) ~metrics:m () in
  ignore (Dupcache.admit dc ~client:"c" ~xid:1);
  Dupcache.complete dc ~client:"c" ~xid:1 (Bytes.of_string "r");
  Engine.schedule eng ~after:(Time.ms 20) (fun () ->
      ignore (Dupcache.admit dc ~client:"c" ~xid:2);
      Alcotest.(check int) "stale entry dropped on admit" 1 (Dupcache.entries dc);
      Alcotest.(check (option int)) "expiration counted" (Some 1)
        (Nfsg_stats.Metrics.find_counter m ~ns:"rpc.dupcache" "expirations");
      Alcotest.(check int) "not an eviction" 0 (Dupcache.evictions dc));
  Engine.run eng

let test_dupcache_overflow_all_in_flight () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:2 () in
  Alcotest.(check bool) "first" true (Dupcache.admit dc ~client:"a" ~xid:1 = Dupcache.New);
  Alcotest.(check bool) "second" true (Dupcache.admit dc ~client:"a" ~xid:2 = Dupcache.New);
  (* Every slot pinned by an in-flight request: the third executes
     uncached instead of growing the table or evicting pinned work. *)
  Alcotest.(check bool) "third still executes" true (Dupcache.admit dc ~client:"a" ~xid:3 = Dupcache.New);
  Alcotest.(check int) "table did not grow" 2 (Dupcache.entries dc);
  Alcotest.(check int) "overflow counted" 1 (Dupcache.overflows dc);
  Alcotest.(check int) "nothing evicted" 0 (Dupcache.evictions dc);
  (* Its completion is a no-op (never inserted) — a retransmission of
     the overflowed request re-executes. *)
  Dupcache.complete dc ~client:"a" ~xid:3 (Bytes.of_string "r3");
  Alcotest.(check bool) "overflowed request uncached" true
    (Dupcache.admit dc ~client:"a" ~xid:3 = Dupcache.New);
  Alcotest.(check int) "second overflow" 2 (Dupcache.overflows dc);
  (* Once a slot completes it becomes evictable and admission resumes. *)
  Dupcache.complete dc ~client:"a" ~xid:1 (Bytes.of_string "r1");
  Alcotest.(check bool) "admits again" true (Dupcache.admit dc ~client:"a" ~xid:4 = Dupcache.New);
  Alcotest.(check int) "completed slot evicted" 1 (Dupcache.evictions dc);
  Alcotest.(check int) "still bounded" 2 (Dupcache.entries dc)

let test_dupcache_tie_broken_by_key () =
  (* Completed entries last touched at the same instant leave in
     (client, xid) order, whatever order they completed in. *)
  let eng = Engine.create () in
  let dc = Dupcache.create eng ~capacity:3 ~ttl:(Time.sec 60) () in
  let replays ~client ~xid =
    match Dupcache.admit dc ~client ~xid with Dupcache.Replay _ -> true | _ -> false
  in
  Engine.spawn eng (fun () ->
      let keys = [ ("b", 1); ("a", 7); ("a", 3) ] in
      List.iter (fun (client, xid) -> ignore (Dupcache.admit dc ~client ~xid)) keys;
      List.iter (fun (client, xid) -> Dupcache.complete dc ~client ~xid (Bytes.of_string client)) keys;
      Engine.delay (Time.ms 1);
      ignore (Dupcache.admit dc ~client:"c" ~xid:1);
      Alcotest.(check int) "one eviction" 1 (Dupcache.evictions dc);
      (* a/3 was the smallest key; touch the other two, again at one
         instant, b/1 first. *)
      Alcotest.(check bool) "b/1 survives" true (replays ~client:"b" ~xid:1);
      Alcotest.(check bool) "a/7 survives" true (replays ~client:"a" ~xid:7);
      Alcotest.(check bool) "a/3 was the victim" true (Dupcache.admit dc ~client:"a" ~xid:3 = Dupcache.New);
      (* Making room for a/3 evicted a/7, the smaller of the tied pair. *)
      Alcotest.(check bool) "b/1 survives again" true (replays ~client:"b" ~xid:1);
      Alcotest.(check bool) "a/7 evicted" true (Dupcache.admit dc ~client:"a" ~xid:7 = Dupcache.New));
  Engine.run eng

(* A full cache recycles its coldest entry for each new request, so
   admitting and completing a new key allocates a small constant: the
   entry, its table slot and the lookup keys. The bound is 64 words per
   request; this cache allocates 27 as measured here, and the one that
   kept a balanced set and a completion queue allocated 120. The least
   of three batches is taken (see [Testbed.allocated]). *)
let test_dupcache_turnover_allocates_a_constant () =
  let eng = Engine.create () in
  let dc = Dupcache.create eng () in
  let reply = Bytes.create 0 and batch = 10_000 in
  let serve xid =
    ignore (Dupcache.admit dc ~client:"c" ~xid : Dupcache.verdict);
    Dupcache.complete dc ~client:"c" ~xid reply
  in
  let per_request = ref nan in
  Engine.spawn eng (fun () ->
      for xid = 0 to 511 do
        serve xid;
        Engine.delay (Time.ns 1)
      done;
      let words k =
        let (), w =
          Testbed.allocated (fun () ->
              for xid = 1000 + (k * batch) to 999 + ((k + 1) * batch) do
                serve xid
              done)
        in
        w /. float_of_int batch
      in
      per_request := List.fold_left Float.min infinity (List.init 3 words));
  Engine.run eng;
  Alcotest.(check int) "full throughout" 512 (Dupcache.entries dc);
  Alcotest.(check int) "one eviction per request" (3 * batch) (Dupcache.evictions dc);
  if !per_request > 64.0 then Alcotest.failf "%.1f words per new request" !per_request

(* The cache against its reference model (its own former self): random
   traces of admissions, completions, forgets and clock steps, several
   per instant, must agree on every verdict, the table size, every
   counter and the metrics JSON. *)
type dc_op = Admit of int * int | Complete of int * int | Forget of int * int | Advance of int

let prop_dupcache_matches_reference =
  let clients = [| "a"; "b"; "c" |] in
  let show_op = function
    | Admit (c, x) -> Printf.sprintf "admit %s/%d" clients.(c) x
    | Complete (c, x) -> Printf.sprintf "complete %s/%d" clients.(c) x
    | Forget (c, x) -> Printf.sprintf "forget %s/%d" clients.(c) x
    | Advance ms -> Printf.sprintf "+%dms" ms
  in
  let key = QCheck.Gen.(pair (int_bound 2) (int_bound 5)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun (c, x) -> Admit (c, x)) key);
          (4, map (fun (c, x) -> Complete (c, x)) key);
          (1, map (fun (c, x) -> Forget (c, x)) key);
          (3, map (fun ms -> Advance ms) (int_bound 4));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun (capacity, ttl, ops) ->
        Printf.sprintf "capacity %d, ttl %dms: %s" capacity ttl (String.concat "; " (List.map show_op ops)))
      QCheck.Gen.(triple (int_range 1 8) (int_range 1 20) (list_size (1 -- 200) op))
  in
  QCheck.Test.make ~name:"dupcache matches its reference model" ~count:300 arb (fun (capacity, ttl, ops) ->
      let eng = Engine.create () in
      let m = Nfsg_stats.Metrics.create () and m_ref = Nfsg_stats.Metrics.create () in
      let dc = Dupcache.create eng ~capacity ~ttl:(Time.ms ttl) ~metrics:m () in
      let rf = Dupcache_ref.create eng ~capacity ~ttl:(Time.ms ttl) ~metrics:m_ref () in
      let verdict = function
        | Dupcache.New -> "new"
        | Dupcache.In_progress -> "in progress"
        | Dupcache.Replay b -> "replay " ^ Bytes.to_string b
      and verdict_ref = function
        | Dupcache_ref.New -> "new"
        | Dupcache_ref.In_progress -> "in progress"
        | Dupcache_ref.Replay b -> "replay " ^ Bytes.to_string b
      in
      let state () =
        Printf.sprintf "entries %d drops %d replays %d evictions %d overflows %d %s" (Dupcache.entries dc)
          (Dupcache.drops dc) (Dupcache.replays dc) (Dupcache.evictions dc) (Dupcache.overflows dc)
          (Nfsg_stats.Metrics.to_string m)
      and state_ref () =
        Printf.sprintf "entries %d drops %d replays %d evictions %d overflows %d %s"
          (Dupcache_ref.entries rf) (Dupcache_ref.drops rf) (Dupcache_ref.replays rf)
          (Dupcache_ref.evictions rf) (Dupcache_ref.overflows rf) (Nfsg_stats.Metrics.to_string m_ref)
      in
      let mismatch = ref None in
      let note step what got want =
        if got <> want && !mismatch = None then
          mismatch := Some (Printf.sprintf "step %d (%s): %s %S, reference %S" step what what got want)
      in
      Engine.spawn eng (fun () ->
          List.iteri
            (fun step op ->
              (match op with
              | Admit (c, xid) ->
                  let client = clients.(c) in
                  note step (show_op op)
                    (verdict (Dupcache.admit dc ~client ~xid))
                    (verdict_ref (Dupcache_ref.admit rf ~client ~xid))
              | Complete (c, xid) ->
                  let client = clients.(c) and reply = Bytes.of_string (string_of_int step) in
                  Dupcache.complete dc ~client ~xid reply;
                  Dupcache_ref.complete rf ~client ~xid reply
              | Forget (c, xid) ->
                  Dupcache.forget dc ~client:clients.(c) ~xid;
                  Dupcache_ref.forget rf ~client:clients.(c) ~xid
              | Advance ms -> Engine.delay (Time.ms ms));
              note step (show_op op) (state ()) (state_ref ()))
            ops);
      Engine.run eng;
      match !mismatch with None -> true | Some why -> QCheck.Test.fail_report why)

(* {1 svc + rpc_client end to end (echo server)} *)

let echo_rig ?(loss = 0.0) ?(with_dupcache = false) () =
  let eng = Engine.create () in
  let segment = Segment.create eng { Segment.fddi with Segment.loss_prob = loss } in
  let ssock = Socket.create segment ~addr:"server" () in
  let svc_calls = ref 0 in
  let dupcache = if with_dupcache then Some (Dupcache.create eng ()) else None in
  let svc =
    Svc.create eng ~sock:ssock ?dupcache ~nfsds:2
      ~dispatch:(fun _tr call ->
        incr svc_calls;
        Svc.Reply (Rpc.Success, Xdr.view_copy call.Rpc.body))
      ()
  in
  let csock = Socket.create segment ~addr:"client" () in
  let params =
    {
      Rpc_client.default_params with
      Rpc_client.initial_rto = Time.ms 50;
      min_rto = Time.ms 50;
      max_attempts = 40;
    }
  in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" ~params () in
  (eng, svc, rpc, svc_calls)

let run_driver eng f =
  let r = ref None in
  Engine.spawn eng ~name:"driver" (fun () -> r := Some (f ()));
  Engine.run eng;
  match !r with Some v -> v | None -> Alcotest.fail "driver blocked"

let test_echo_roundtrip () =
  let eng, _svc, rpc, _ = echo_rig () in
  run_driver eng (fun () ->
      let stat, body = Rpc_client.call rpc ~proc:1 (Bytes.of_string "ping") in
      Alcotest.(check bool) "success" true (stat = Rpc.Success);
      Alcotest.(check string) "echoed" "ping" (Xdr.view_to_string body));
  Alcotest.(check int) "one send, no retries" 0 (Rpc_client.retransmissions rpc)

let test_retransmission_on_loss () =
  (* 35% datagram loss: the call must still eventually succeed. *)
  let eng, _svc, rpc, _ = echo_rig ~loss:0.35 () in
  run_driver eng (fun () ->
      for i = 1 to 10 do
        let stat, body = Rpc_client.call rpc ~proc:1 (Bytes.of_string (string_of_int i)) in
        Alcotest.(check bool) "success" true (stat = Rpc.Success);
        Alcotest.(check string) "echoed" (string_of_int i) (Xdr.view_to_string body)
      done);
  Alcotest.(check bool) "retransmissions happened" true (Rpc_client.retransmissions rpc > 0)

let test_dupcache_suppresses_reexecution () =
  (* Heavy loss plus a dup cache: the number of *executions* must equal
     the number of distinct calls even though retransmissions occur. *)
  let eng, _svc, rpc, svc_calls = echo_rig ~loss:0.35 ~with_dupcache:true () in
  run_driver eng (fun () ->
      for i = 1 to 20 do
        ignore (Rpc_client.call rpc ~proc:1 (Bytes.of_string (string_of_int i)))
      done);
  Alcotest.(check bool) "retransmissions happened" true (Rpc_client.retransmissions rpc > 0);
  Alcotest.(check int) "each call executed exactly once" 20 !svc_calls

let test_rtt_adaptation () =
  let eng, _svc, rpc, _ = echo_rig () in
  run_driver eng (fun () ->
      Alcotest.(check bool) "no estimate yet" true (Rpc_client.rtt_estimate rpc Rpc_client.Heavy = None);
      for _ = 1 to 5 do
        ignore (Rpc_client.call rpc ~klass:Rpc_client.Heavy ~proc:1 (Bytes.make 8192 'x'))
      done;
      match Rpc_client.rtt_estimate rpc Rpc_client.Heavy with
      | None -> Alcotest.fail "no RTT estimate after calls"
      | Some srtt -> if srtt <= 0 then Alcotest.fail "non-positive srtt")

let test_delayed_reply_architecture () =
  (* A dispatch that returns Reply_pending and completes the reply from
     a different process 30ms later: the paper's one-nfsd-answers-for-
     another architecture. *)
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let pending = ref [] in
  let svc_box = ref None in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun tr call ->
        (* the datagram's bytes must outlive the dispatch: copy out *)
        pending := (tr, Xdr.view_copy call.Rpc.body) :: !pending;
        Svc.Reply_pending)
      ()
  in
  svc_box := Some svc;
  Engine.spawn eng ~name:"metadata-writer" (fun () ->
      Engine.delay (Time.ms 30);
      List.iter (fun (tr, body) -> Svc.send_reply svc tr Rpc.Success body) (List.rev !pending));
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  let got = ref "" in
  let t_done = ref 0 in
  Engine.spawn eng ~name:"caller" (fun () ->
      let _, body = Rpc_client.call rpc ~proc:8 (Bytes.of_string "deferred") in
      got := Xdr.view_to_string body;
      t_done := Engine.now eng);
  Engine.run eng;
  Alcotest.(check string) "reply delivered" "deferred" !got;
  Alcotest.(check bool) "after the 30ms defer" true (!t_done >= Time.ms 30);
  Alcotest.(check int) "handle recycled" 0 (Svc.handles_outstanding svc);
  Alcotest.(check bool) "handle back in cache" true (Svc.handle_cache_size svc >= 1)

let test_double_reply_rejected () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let failed = ref false in
  let svc_ref = ref None in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun tr _call ->
        let svc = Option.get !svc_ref in
        Svc.send_reply svc tr Rpc.Success (Bytes.create 0);
        (try Svc.send_reply svc tr Rpc.Success (Bytes.create 0)
         with Invalid_argument _ -> failed := true);
        Svc.Reply_pending)
      ()
  in
  svc_ref := Some svc;
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  run_driver eng (fun () -> ignore (Rpc_client.call rpc ~proc:0 (Bytes.create 0)));
  Alcotest.(check bool) "second reply rejected" true !failed

let test_garbage_counted () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun _ _ -> Svc.Reply (Rpc.Success, Bytes.create 0))
      ()
  in
  let junk_sock = Socket.create segment ~addr:"junk" () in
  Socket.send junk_sock ~dst:"server" (Bytes.of_string "not rpc at all");
  Engine.run eng;
  Alcotest.(check int) "garbage dropped" 1 (Svc.garbage_dropped svc)

let test_truncated_write_garbage_args () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let ssock = Socket.create segment ~addr:"server" () in
  let svc =
    Svc.create eng ~sock:ssock ~nfsds:1
      ~dispatch:(fun _ call ->
        (* Decode the arguments the way the NFS server does: the typed
           Xdr.Decode_error escapes the dispatch and Svc must map it to
           GARBAGE_ARGS rather than SYSTEM_ERR. *)
        match Nfsg_nfs.Proto.decode_args ~proc:call.Rpc.proc call.Rpc.body with
        | _ -> Svc.Reply (Rpc.Success, Bytes.create 0))
      ()
  in
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  let full =
    Nfsg_nfs.Proto.encode_args
      (Nfsg_nfs.Proto.Write
         {
           fh = { Nfsg_nfs.Proto.fsid = 1; vgen = 1; inum = 2; gen = 1 };
           offset = 0;
           data = Xdr.view_of_bytes (Bytes.make 8192 'w');
         })
  in
  (* Cut the opaque payload short: still well-framed RPC, but the WRITE
     data's declared length now runs past the end of the body. *)
  let truncated = Bytes.sub full 0 (Bytes.length full - 4000) in
  let stat, _ =
    run_driver eng (fun () ->
        Rpc_client.call rpc ~proc:Nfsg_nfs.Proto.proc_write truncated)
  in
  Alcotest.(check bool) "GARBAGE_ARGS reply" true (stat = Rpc.Garbage_args);
  Alcotest.(check int) "counted as garbage" 1 (Svc.garbage_dropped svc);
  Alcotest.(check int) "not a dispatch error" 0 (Svc.dispatch_errors svc)

(* {1 Call datagrams the client gets back} *)

(* A client and a stand-in server on a bare socket, which answers every
   call at once with an empty success and shows [seen] each datagram it
   receives. *)
let reuse_rig ?(seen = fun _ -> ()) () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let server = Socket.create segment ~addr:"server" () in
  Engine.spawn eng ~name:"stand-in" (fun () ->
      while true do
        let src, dgram = Socket.recv server in
        seen dgram;
        let xid = (Rpc.decode_call dgram).Rpc.xid in
        Socket.send server ~dst:src
          (Rpc.encode_reply { Rpc.rxid = xid; stat = Rpc.Success; rbody = Xdr.empty_view })
      done);
  let rpc = Rpc_client.create eng ~sock:(Socket.create segment ~addr:"client" ()) ~server:"server" () in
  (eng, segment, rpc)

(* A call whose datagram is [len] bytes: the call header is 40. *)
let call_of_length rpc len = ignore (Rpc_client.call rpc ~proc:1 (Bytes.make (len - 40) 'a'))

let test_answered_call_lends_its_datagram () =
  let seen = ref [] in
  let eng, _, rpc = reuse_rig ~seen:(fun d -> seen := (d, (Rpc.decode_call d).Rpc.xid) :: !seen) () in
  run_driver eng (fun () ->
      call_of_length rpc 8232;
      Alcotest.(check int) "given back" 1 (Rpc_client.spares rpc);
      call_of_length rpc 8232;
      Alcotest.(check int) "given back again" 1 (Rpc_client.spares rpc));
  match !seen with
  | [ (second, xid); (first, _) ] ->
      Alcotest.(check bool) "the second call is encoded into the first's datagram" true (second == first);
      Alcotest.(check int) "which carried the second xid" 3 xid
  | l -> Alcotest.failf "the server saw %d datagrams" (List.length l)

let test_retransmitted_call_keeps_its_datagram () =
  let seen = ref [] in
  let eng, segment, rpc = reuse_rig ~seen:(fun d -> seen := (d, Bytes.copy d) :: !seen) () in
  (* The first transmission is lost; its retransmission, 1.1 s later, is
     answered. *)
  Segment.set_loss_prob segment 0.999;
  Engine.schedule eng ~after:(Time.ms 100) (fun () -> Segment.set_loss_prob segment 0.0);
  run_driver eng (fun () ->
      call_of_length rpc 8232;
      Alcotest.(check int) "one retransmission" 1 (Rpc_client.retransmissions rpc);
      Alcotest.(check int) "nothing given back" 0 (Rpc_client.spares rpc);
      call_of_length rpc 8232;
      call_of_length rpc 8232);
  match List.rev !seen with
  | (first, as_sent) :: later ->
      Alcotest.(check int) "the server saw every call" 2 (List.length later);
      List.iter
        (fun (d, _) -> Alcotest.(check bool) "a later call has a datagram of its own" true (d != first))
        later;
      Alcotest.(check bool) "the retransmitted datagram keeps the bytes sent" true
        (Bytes.equal first as_sent)
  | [] -> Alcotest.fail "the server saw nothing"

(* Only a datagram the runtime allocates outside the minor heap, over
   256 words, is worth keeping. *)
let test_small_datagram_never_kept () =
  let limit = 256 * (Sys.word_size / 8) in
  let seen = ref [] in
  let eng, _, rpc = reuse_rig ~seen:(fun d -> seen := d :: !seen) () in
  run_driver eng (fun () ->
      call_of_length rpc limit;
      call_of_length rpc limit;
      Alcotest.(check int) "a datagram of 256 words is not kept" 0 (Rpc_client.spares rpc);
      call_of_length rpc (limit + 4);
      Alcotest.(check int) "one word over is" 1 (Rpc_client.spares rpc));
  match List.rev !seen with
  | first :: second :: _ -> Alcotest.(check bool) "each small call has its own" true (first != second)
  | _ -> Alcotest.fail "the server saw too few datagrams"

(* Four callers at once, each cycling through three large lengths, in
   step so that different lengths are in flight together. *)
let test_spares_bounded_by_calls_in_flight () =
  let eng, _, rpc = reuse_rig () in
  let lengths = [| 3000; 5000; 8232 |] in
  let in_flight = ref 0 and peak = ref 0 and most_spares = ref 0 in
  for c = 0 to 3 do
    Engine.spawn eng ~name:(Printf.sprintf "caller%d" c) (fun () ->
        for i = 0 to 11 do
          incr in_flight;
          peak := Stdlib.max !peak !in_flight;
          call_of_length rpc lengths.((i + c) mod Array.length lengths);
          decr in_flight;
          most_spares := Stdlib.max !most_spares (Rpc_client.spares rpc);
          if Rpc_client.spares rpc > !peak then
            Alcotest.failf "%d spares after at most %d calls in flight" (Rpc_client.spares rpc) !peak
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "four calls were in flight at once" 4 !peak;
  Alcotest.(check bool) "spares were kept" true (!most_spares >= 1)

(* {1 Reply datagrams the server gets back} *)

(* A stand-in server that answers every call twice, so that the second
   reply finds its call answered, and records the datagrams its client
   gives back. *)
let test_stale_reply_goes_back_at_once () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let server = Socket.create segment ~addr:"server" () in
  let sent = ref [] and back = ref [] in
  Socket.on_given_back server (fun ~src d -> back := (src, d) :: !back);
  Engine.spawn eng ~name:"stand-in" (fun () ->
      while true do
        let src, dgram = Socket.recv server in
        let xid = (Rpc.decode_call dgram).Rpc.xid in
        for _ = 1 to 2 do
          let reply = Rpc.encode_reply { Rpc.rxid = xid; stat = Rpc.Success; rbody = Xdr.empty_view } in
          sent := reply :: !sent;
          Socket.send server ~dst:src reply
        done
      done);
  let rpc = Rpc_client.create eng ~sock:(Socket.create segment ~addr:"client" ()) ~server:"server" () in
  run_driver eng (fun () -> ignore (Rpc_client.call rpc ~proc:1 (Bytes.of_string "x")));
  Alcotest.(check int) "the answer and the stale reply both came back" 2 (List.length !back);
  List.iter
    (fun (src, d) ->
      Alcotest.(check string) "from the client" "client" src;
      Alcotest.(check bool) "a datagram the server sent" true (List.memq d !sent))
    !back

(* A service over a cache of [capacity] entries, whose every reply is
   8 KB of its call's one-byte argument, and a client. *)
let reply_rig ~capacity =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let dupcache = Dupcache.create eng ~capacity () in
  let svc =
    Svc.create eng ~sock:(Socket.create segment ~addr:"server" ()) ~dupcache ~nfsds:1
      ~dispatch:(fun _tr call ->
        Svc.Reply (Rpc.Success, Bytes.make 8192 (Xdr.view_to_string call.Rpc.body).[0]))
      ()
  in
  let rpc = Rpc_client.create eng ~sock:(Socket.create segment ~addr:"client" ()) ~server:"server" () in
  (eng, segment, dupcache, svc, rpc)

(* The reply datagram that answered a call with argument [c], and its
   body. The decode reads the datagram; the test only compares it
   ([==]) afterwards. *)
let reply_to rpc c =
  Rpc_client.call_with rpc ~proc:1
    (fun enc -> Xdr.Enc.raw enc (Bytes.make 1 c))
    (fun _ body -> (body.Xdr.view_buf, Xdr.view_to_string body))

let test_held_reply_waits_for_its_entry () =
  let eng, _, dupcache, svc, rpc = reply_rig ~capacity:2 in
  run_driver eng (fun () ->
      let a, _ = reply_to rpc 'a' in
      Alcotest.(check int) "given back, but the cache holds it" 0 (Svc.spares svc);
      let b, _ = reply_to rpc 'b' in
      Alcotest.(check bool) "not reused while its entry may replay it" true (b != a);
      let c, body = reply_to rpc 'c' in
      Alcotest.(check int) "a's entry made room for c's" 1 (Dupcache.evictions dupcache);
      Alcotest.(check bool) "then it backs the next reply" true (c == a);
      Alcotest.(check string) "with that reply's bytes" (String.make 8192 'c') body)

(* A client on a bare socket sends one call twice and keeps both
   replies. *)
let test_replay_sends_a_copy () =
  let eng, segment, dupcache, _, _ = reply_rig ~capacity:8 in
  let raw = Socket.create segment ~addr:"raw" () in
  let call =
    Rpc.encode_call
      { Rpc.xid = 7; prog = Rpc.nfs_program; vers = Rpc.nfs_version; proc = 1;
        body = Xdr.view_of_bytes (Bytes.of_string "r") }
  in
  let first, second =
    run_driver eng (fun () ->
        Socket.send raw ~dst:"server" call;
        let first = snd (Socket.recv raw) in
        Socket.send raw ~dst:"server" call;
        (first, snd (Socket.recv raw)))
  in
  Alcotest.(check int) "the second answer is a replay" 1 (Dupcache.replays dupcache);
  Alcotest.(check bool) "of the same bytes" true (Bytes.equal first second);
  Alcotest.(check bool) "in a buffer of its own" true (first != second)

let suite =
  [
    Alcotest.test_case "call encode/decode" `Quick test_call_roundtrip;
    Alcotest.test_case "reply encode/decode" `Quick test_reply_roundtrip;
    Alcotest.test_case "is_call classifier" `Quick test_is_call_classifier;
    Alcotest.test_case "dupcache lifecycle" `Quick test_dupcache_lifecycle;
    Alcotest.test_case "dupcache TTL expiry" `Quick test_dupcache_ttl_expiry;
    Alcotest.test_case "dupcache LRU eviction" `Quick test_dupcache_eviction;
    Alcotest.test_case "dupcache evicts the coldest entry" `Quick test_dupcache_evicts_least_recently_touched;
    Alcotest.test_case "dupcache drops expired before evicting" `Quick test_dupcache_ttl_eager_drop;
    Alcotest.test_case "dupcache overflow with all slots in flight" `Quick test_dupcache_overflow_all_in_flight;
    Alcotest.test_case "dupcache breaks touch ties by key" `Quick test_dupcache_tie_broken_by_key;
    QCheck_alcotest.to_alcotest prop_dupcache_matches_reference;
    Alcotest.test_case "echo roundtrip" `Quick test_echo_roundtrip;
    Alcotest.test_case "retransmission survives loss" `Quick test_retransmission_on_loss;
    Alcotest.test_case "dupcache stops re-execution" `Quick test_dupcache_suppresses_reexecution;
    Alcotest.test_case "RTT estimator adapts" `Quick test_rtt_adaptation;
    Alcotest.test_case "delayed replies via handle cache" `Quick test_delayed_reply_architecture;
    Alcotest.test_case "double reply rejected" `Quick test_double_reply_rejected;
    Alcotest.test_case "garbage datagrams dropped" `Quick test_garbage_counted;
    Alcotest.test_case "truncated WRITE args get GARBAGE_ARGS" `Quick
      test_truncated_write_garbage_args;
    Alcotest.test_case "dupcache turnover allocates a constant" `Quick
      test_dupcache_turnover_allocates_a_constant;
    Alcotest.test_case "an answered call lends its datagram" `Quick
      test_answered_call_lends_its_datagram;
    Alcotest.test_case "a retransmitted call keeps its datagram" `Quick
      test_retransmitted_call_keeps_its_datagram;
    Alcotest.test_case "a datagram of 2 KB or less is never kept" `Quick test_small_datagram_never_kept;
    Alcotest.test_case "spares never outnumber calls in flight" `Quick
      test_spares_bounded_by_calls_in_flight;
    Alcotest.test_case "a held reply waits for its entry to go" `Quick
      test_held_reply_waits_for_its_entry;
    Alcotest.test_case "a replay sends a copy" `Quick test_replay_sends_a_copy;
    Alcotest.test_case "a stale reply goes back at once" `Quick test_stale_reply_goes_back_at_once;
  ]
