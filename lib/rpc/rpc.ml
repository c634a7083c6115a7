type call = { xid : int; prog : int; vers : int; proc : int; body : Xdr.view }

type accept_stat = Success | Prog_unavail | Proc_unavail | Garbage_args | System_err

type reply = { rxid : int; stat : accept_stat; rbody : Xdr.view }

let nfs_program = 100003
let nfs_version = 2
let mount_program = 100005
let msg_call = 0
let msg_reply = 1
let rpc_version = 2

let accept_stat_to_int = function
  | Success -> 0
  | Prog_unavail -> 1
  | Proc_unavail -> 3
  | Garbage_args -> 4
  | System_err -> 5

let accept_stat_of_int = function
  | 0 -> Success
  | 1 -> Prog_unavail
  | 3 -> Proc_unavail
  | 4 -> Garbage_args
  | 5 -> System_err
  | n -> Xdr.malformed (Printf.sprintf "bad accept_stat %d" n)

let put_auth_null enc =
  (* flavor AUTH_NULL, zero-length body *)
  Xdr.Enc.uint32 enc 0;
  Xdr.Enc.uint32 enc 0

let get_auth dec =
  let _flavor = Xdr.Dec.uint32 dec in
  ignore (Xdr.Dec.opaque_view dec : Xdr.view)

let encode_call_with ?buffer ~xid ~prog ~vers ~proc put_body =
  Xdr.Enc.encode ?buffer (fun enc ->
      Xdr.Enc.uint32 enc xid;
      Xdr.Enc.enum enc msg_call;
      Xdr.Enc.uint32 enc rpc_version;
      Xdr.Enc.uint32 enc prog;
      Xdr.Enc.uint32 enc vers;
      Xdr.Enc.uint32 enc proc;
      put_auth_null enc;
      (* credentials *)
      put_auth_null enc;
      (* verifier *)
      put_body enc)

let encode_call c =
  encode_call_with ~xid:c.xid ~prog:c.prog ~vers:c.vers ~proc:c.proc (fun enc ->
      Xdr.Enc.raw_view enc c.body)

let decode_call bytes =
  let dec = Xdr.Dec.of_bytes bytes in
  let xid = Xdr.Dec.uint32 dec in
  let mtype = Xdr.Dec.enum dec in
  if mtype <> msg_call then Xdr.malformed "not a call";
  let rv = Xdr.Dec.uint32 dec in
  if rv <> rpc_version then Xdr.malformed "bad RPC version";
  let prog = Xdr.Dec.uint32 dec in
  let vers = Xdr.Dec.uint32 dec in
  let proc = Xdr.Dec.uint32 dec in
  get_auth dec;
  get_auth dec;
  { xid; prog; vers; proc; body = Xdr.Dec.rest_view dec }

let encode_reply_with ?buffer ~xid ~stat put_body =
  Xdr.Enc.encode ?buffer (fun enc ->
      Xdr.Enc.uint32 enc xid;
      Xdr.Enc.enum enc msg_reply;
      (* reply_stat MSG_ACCEPTED *)
      Xdr.Enc.enum enc 0;
      put_auth_null enc;
      (* verifier *)
      Xdr.Enc.enum enc (accept_stat_to_int stat);
      put_body enc)

let encode_reply r = encode_reply_with ~xid:r.rxid ~stat:r.stat (fun enc -> Xdr.Enc.raw_view enc r.rbody)

let decode_reply bytes =
  let dec = Xdr.Dec.of_bytes bytes in
  let rxid = Xdr.Dec.uint32 dec in
  let mtype = Xdr.Dec.enum dec in
  if mtype <> msg_reply then Xdr.malformed "not a reply";
  let reply_stat = Xdr.Dec.enum dec in
  if reply_stat <> 0 then Xdr.malformed "MSG_DENIED";
  get_auth dec;
  let stat = accept_stat_of_int (Xdr.Dec.enum dec) in
  { rxid; stat; rbody = Xdr.Dec.rest_view dec }

let xid_of bytes = Int32.to_int (Bytes.get_int32_be bytes 0) land 0xFFFFFFFF

let is_call bytes =
  Bytes.length bytes >= 8
  && Int32.to_int (Bytes.get_int32_be bytes 4) = msg_call

let peek_call bytes =
  try Some (decode_call bytes) with Xdr.Decode_error _ -> None
