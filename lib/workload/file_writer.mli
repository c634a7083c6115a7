(** Sequential file-copy workload: the paper's Results section
    experiment ("a 10MB file is written over private Ethernet and FDDI
    networks ... while varying the number of client biods"). *)

type result = {
  bytes : int;
  elapsed : Nfsg_sim.Time.t;  (** first write to close() completion *)
  kb_per_sec : float;
  wire_writes : int;
}

val run :
  Nfsg_sim.Engine.t ->
  Nfsg_nfs.Client.t ->
  dir:Nfsg_nfs.Proto.fh ->
  name:string ->
  total:int ->
  ?app_chunk:int ->
  ?seed:int ->
  unit ->
  result
(** Create [name] in [dir] and write [total] bytes sequentially in
    [app_chunk]-byte application writes (default 8192), then close.
    Must run inside a simulation process. *)

val run_random :
  Nfsg_sim.Engine.t ->
  Nfsg_nfs.Client.t ->
  dir:Nfsg_nfs.Proto.fh ->
  name:string ->
  writes:int ->
  file_blocks:int ->
  ?seed:int ->
  unit ->
  result
(** Random-access variant (paper section 6.11): [writes] 8 KB writes
    at uniformly random block offsets within a [file_blocks]-block
    file. *)

val verify :
  Nfsg_nfs.Client.t -> fh:Nfsg_nfs.Proto.fh -> total:int -> seed:int -> bool
(** Read the file back and compare against the deterministic pattern
    {!run} wrote: byte [i] is [(i + seed) mod 251]. It issues the same
    8 KB READs as one [Client.read] of [total] bytes, and compares each
    reply as it arrives, so it holds one block at a time. *)
