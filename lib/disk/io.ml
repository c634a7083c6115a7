(* Asynchronous I/O requests: the submission currency of the storage
   stack. See io.mli for the contract. *)

open Nfsg_sim

type op = Read | Write

type class_ = [ `Sync_write | `Gather_flush | `Bg_drain | `Read ]

type req = {
  op : op;
  off : int;
  len : int;
  buf : Bytes.t;
  class_ : class_;
  done_ : unit Ivar.t;
  mutable error : exn option;
}

type item = Req of req | Barrier of { done_ : unit Ivar.t }

let class_name = function
  | `Sync_write -> "sync_write"
  | `Gather_flush -> "gather_flush"
  | `Bg_drain -> "bg_drain"
  | `Read -> "read"

let write_req ~class_ ~off data =
  { op = Write; off; len = Bytes.length data; buf = data; class_; done_ = Ivar.create (); error = None }

let read_req ?(class_ = `Read) ~off ~len () =
  { op = Read; off; len; buf = Bytes.create len; class_; done_ = Ivar.create (); error = None }

let barrier () = Barrier { done_ = Ivar.create () }

let complete r = Ivar.fill r.done_ ()

let fail r exn =
  r.error <- Some exn;
  Ivar.fill r.done_ ()

let item_done = function Req r -> r.done_ | Barrier b -> b.done_

let fail_item item exn =
  match item with Req r -> fail r exn | Barrier b -> Ivar.fill b.done_ ()

let await r =
  Ivar.read r.done_;
  match r.error with Some exn -> raise exn | None -> ()

let await_all reqs =
  (* Wait for every completion before surfacing the first error, so no
     request is abandoned mid-flight with its issuer gone. *)
  List.iter (fun r -> Ivar.read r.done_) reqs;
  List.iter (fun r -> match r.error with Some exn -> raise exn | None -> ()) reqs

let await_barrier = function
  | Barrier b -> Ivar.read b.done_
  | Req _ -> invalid_arg "Io.await_barrier: not a barrier"

(* {1 Blocking shims} *)

let blocking_read ~submit ~off ~len =
  let r = read_req ~off ~len () in
  submit [ Req r ];
  await r;
  r.buf

let blocking_write ~submit ?(class_ = `Sync_write) ~off data =
  let r = write_req ~class_ ~off (Bytes.copy data) in
  submit [ Req r ];
  await r
