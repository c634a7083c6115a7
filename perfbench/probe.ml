(* What the traced pass records, entirely from outside lib/:

   - a wrapper around the Device.t the server is built on, which times
     each submit on the host clock and stamps each request's completion
     with Ivar.upon (simulated submit-to-done time, per I/O class);
   - fine-bucket copies of the registry histograms it reads percentiles
     from (rpc RTT, gather reply latency, journey phases, disk queue
     wait and service), registered before the program's own
     find-or-create so the program fills them;
   - the NFS arguments the workload sent, replayed afterwards through
     the public XDR/RPC codec to time it.

   None of it schedules an event or changes what the simulation does:
   the traced pass must reproduce the untraced pass's outcome exactly. *)

open Nfsg_sim
module Device = Nfsg_disk.Device
module Io = Nfsg_disk.Io
module Histogram = Nfsg_stats.Histogram
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Proto = Nfsg_nfs.Proto
module Rpc = Nfsg_rpc.Rpc
module Xdr = Nfsg_rpc.Xdr

let spindle = "rz26-0"
let classes : Io.class_ list = [ `Sync_write; `Gather_flush; `Bg_drain; `Read ]

(* Registry histograms the per-layer metrics read, as (ns, name). *)
let histograms =
  [
    (Names.Ns.rpc_client, Names.rtt_us);
    (Names.Ns.write_layer, Names.reply_latency_us);
    (Names.Ns.disk spindle, Names.queue_wait_us);
    (Names.Ns.disk spindle, Names.service_us);
  ]
  @ List.map (fun p -> (Names.Ns.journey, Names.phase_us p)) Names.journey_phases

(* 0.2% buckets from 0.01 us to beyond 1000 s: percentiles within 0.1%,
   where the registry default steps 25%. *)
let fine () = Histogram.create ~least:0.01 ~growth:1.002 ~buckets:13_000 ()

let codec_cap = 4096

type t = {
  submit_done : (Io.class_ * Samples.t) list;  (** simulated ns per request *)
  mutable requests : int;
  mutable submit_host_s : float;
  mutable armed : bool;  (** inside a measured window *)
  mutable live : ((string * string) * Histogram.t) list;  (** the registry's, current world *)
  totals : ((string * string) * Histogram.t) list;  (** window-only sums over worlds *)
  mutable codec_args : Proto.args list;
  mutable codec_n : int;
}

let create () =
  {
    submit_done = List.map (fun c -> (c, Samples.create ())) classes;
    requests = 0;
    submit_host_s = 0.0;
    armed = false;
    live = [];
    totals = List.map (fun key -> (key, fine ())) histograms;
    codec_args = [];
    codec_n = 0;
  }

(* Call on a fresh registry, before any layer registers its instruments. *)
let register_histograms t metrics =
  t.live <-
    List.map
      (fun (ns, name) ->
        ((ns, name), Metrics.histogram metrics ~ns ~least:0.01 ~growth:1.002 ~buckets:13_000 name))
      histograms

let window_start t =
  t.armed <- true;
  List.iter (fun (_, h) -> Histogram.reset h) t.live

let window_end t =
  t.armed <- false;
  List.iter (fun (key, h) -> Histogram.merge_into ~into:(List.assoc key t.totals) h) t.live

let histogram t key = List.assoc key t.totals

let wrap_device t eng (d : Device.t) =
  let submit items =
    if not t.armed then d.Device.submit items
    else begin
      let h0 = Unix.gettimeofday () in
      let t0 = Engine.now eng in
      List.iter
        (function
          | Io.Req r ->
              t.requests <- t.requests + 1;
              let s = List.assoc r.Io.class_ t.submit_done in
              Ivar.upon r.Io.done_ (fun () -> Samples.add s (float_of_int (Engine.now eng - t0)))
          | Io.Barrier _ -> ())
        items;
      d.Device.submit items;
      t.submit_host_s <- t.submit_host_s +. (Unix.gettimeofday () -. h0)
    end
  in
  (* The spindle's own read/write are these same shims over its submit;
     routing them through the wrapped submit keeps every request in
     view without changing what the device does. *)
  {
    d with
    Device.submit;
    read = (fun ~off ~len -> Io.blocking_read ~submit ~off ~len);
    write = (fun ~off data -> Io.blocking_write ~submit ~class_:`Sync_write ~off data);
  }

let note_args t args =
  if t.armed && t.codec_n < codec_cap then begin
    t.codec_args <- args :: t.codec_args;
    t.codec_n <- t.codec_n + 1
  end

(* Host ns per op of the public codec path a request takes, client
   encode to server decode, over the workload's own argument mix. *)
let codec_ns_per_op t =
  match t.codec_args with
  | [] -> 0.0
  | l ->
      let args = Array.of_list (List.rev l) in
      let one a =
        let proc = Proto.proc_of_args a in
        let body = Xdr.view_of_bytes (Proto.encode_args a) in
        let dgram =
          Rpc.encode_call { Rpc.xid = 1; prog = Rpc.nfs_program; vers = Rpc.nfs_version; proc; body }
        in
        let call = Rpc.decode_call dgram in
        ignore (Sys.opaque_identity (Proto.decode_args ~proc:call.Rpc.proc call.Rpc.body))
      in
      let n = ref 0 in
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.2 do
        Array.iter one args;
        n := !n + Array.length args
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int !n
