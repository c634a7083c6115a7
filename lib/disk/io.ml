(* Asynchronous I/O requests: the submission currency of the storage
   stack. See io.mli for the contract. *)

open Nfsg_sim

type op = Read of Bytes.t | Write of Bytes.t list

type class_ = [ `Sync_write | `Gather_flush | `Bg_drain | `Read ]

type req = {
  op : op;
  off : int;
  len : int;
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

let write_req ~class_ ~off bufs =
  let len = List.fold_left (fun n b -> n + Bytes.length b) 0 bufs in
  { op = Write bufs; off; len; class_; done_ = Ivar.create (); error = None }

let read_req ?(class_ = `Read) ~off buf =
  { op = Read buf; off; len = Bytes.length buf; class_; done_ = Ivar.create (); error = None }

let barrier () = Barrier { done_ = Ivar.create () }

let is_write r = match r.op with Write _ -> true | Read _ -> false

let read_buf r =
  match r.op with Read buf -> buf | Write _ -> invalid_arg "Io.read_buf: a write"

let sub r ~pos ~len =
  match r.op with
  | Read _ -> invalid_arg "Io.sub: a read"
  | Write bufs ->
      if pos < 0 || len < 0 || pos + len > r.len then invalid_arg "Io.sub: range outside the write";
      let out = Bytes.create len in
      (* [at] is the request offset of [b]'s first byte. *)
      let rec go at = function
        | [] -> ()
        | b :: rest ->
            let n = Bytes.length b in
            let lo = Stdlib.max pos at and hi = Stdlib.min (pos + len) (at + n) in
            if hi > lo then Bytes.blit b (lo - at) out (lo - pos) (hi - lo);
            if at + n < pos + len then go (at + n) rest
      in
      go 0 bufs;
      out

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

(* {1 Epochs} *)

let epochs items ~run =
  let rec cut acc = function
    | Req r :: rest -> cut (r :: acc) rest
    | Barrier b :: tail -> (List.rev acc, Some b.done_, tail)
    | [] -> (List.rev acc, None, [])
  in
  let rec go = function
    | [] -> ()
    | items -> (
        let reqs, barrier, tail = cut [] items in
        run reqs (fun err ->
            match barrier with
            | None -> ()
            | Some done_ -> (
                Ivar.fill done_ ();
                match err with
                | Some e -> List.iter (fun item -> fail_item item e) tail
                | None -> go tail)))
  in
  go items

(* {1 Blocking shims} *)

let blocking_read ~submit ~off ~len =
  let r = read_req ~off (Bytes.create len) in
  submit [ Req r ];
  await r;
  read_buf r

let blocking_write ~submit ?(class_ = `Sync_write) ~off data =
  let r = write_req ~class_ ~off [ Bytes.copy data ] in
  submit [ Req r ];
  await r
