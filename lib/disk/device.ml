type stats = { transactions : int; bytes_moved : int; busy_time : Nfsg_sim.Time.t }

exception Io_error of string

type t = {
  name : string;
  capacity : int;
  accelerated : unit -> bool;
  submit : Io.item list -> unit;
  read : off:int -> len:int -> Bytes.t;
  write : off:int -> Bytes.t -> unit;
  crash : unit -> unit;
  recover : unit -> unit;
  spindle_stats : unit -> stats;
  stable_read : off:int -> len:int -> Bytes.t;
  stable_write : off:int -> Bytes.t -> unit;
  stable_page : off:int -> Bytes.t;
}

let page_bytes = 8192

let no_page ~off:_ = Bytes.empty

let zero_stats = { transactions = 0; bytes_moved = 0; busy_time = Nfsg_sim.Time.zero }

let add_stats a b =
  {
    transactions = a.transactions + b.transactions;
    bytes_moved = a.bytes_moved + b.bytes_moved;
    busy_time = a.busy_time + b.busy_time;
  }
