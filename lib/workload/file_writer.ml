open Nfsg_sim
module Client = Nfsg_nfs.Client

type result = { bytes : int; elapsed : Time.t; kb_per_sec : float; wire_writes : int }

let mk_result eng ~t0 ~bytes ~wire_writes0 client =
  let elapsed = Engine.now eng - t0 in
  {
    bytes;
    elapsed;
    kb_per_sec =
      (if elapsed = 0 then 0.0
       else float_of_int bytes /. 1024.0 /. Time.to_sec_f elapsed);
    wire_writes = Client.wire_writes client - wire_writes0;
  }

let run eng client ~dir ~name ~total ?(app_chunk = 8192) ?(seed = 7) () =
  let fh, _ = Client.create_file client dir name in
  let f = Client.open_file client fh in
  let wire0 = Client.wire_writes client in
  let t0 = Engine.now eng in
  let pos = ref 0 in
  while !pos < total do
    let n = Stdlib.min app_chunk (total - !pos) in
    let chunk = Bytes.init n (fun i -> Char.chr ((!pos + i + seed) mod 251)) in
    Client.write f ~off:!pos chunk;
    pos := !pos + n
  done;
  Client.close f;
  mk_result eng ~t0 ~bytes:total ~wire_writes0:wire0 client

let run_random eng client ~dir ~name ~writes ~file_blocks ?(seed = 7) () =
  let fh, _ = Client.create_file client dir name in
  let f = Client.open_file client fh in
  let rng = Rng.create seed in
  let wire0 = Client.wire_writes client in
  let t0 = Engine.now eng in
  for _ = 1 to writes do
    let blk = Rng.int rng file_blocks in
    Client.write f ~off:(blk * 8192) (Bytes.make 8192 (Char.chr (33 + Rng.int rng 90)))
  done;
  Client.close f;
  mk_result eng ~t0 ~bytes:(writes * 8192) ~wire_writes0:wire0 client

(* The READs [Client.read] would issue for the whole file, one block
   at a time, each compared as it arrives: a mismatch still reads on
   to the end, and a short read stops, as one whole-file read would. *)
let verify client ~fh ~total ~seed =
  let block = 8192 in
  let rec from pos ok =
    if pos >= total then ok
    else begin
      let want = Stdlib.min block (total - pos) in
      let got = Client.read client fh ~off:pos ~len:want in
      let n = Bytes.length got in
      let rec same i =
        i >= n || (Bytes.get got i = Char.chr ((pos + i + seed) mod 251) && same (i + 1))
      in
      let ok = ok && same 0 in
      n = want && from (pos + n) ok
    end
  in
  from 0 true
