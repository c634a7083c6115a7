open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

let sector = 512

type level = Raid0 | Raid1 | Raid5
type member_state = Active | Failed | Rebuilding

let level_name = function Raid0 -> "raid0" | Raid1 -> "raid1" | Raid5 -> "raid5"

(* {1 Instrumentation} *)

type inst = {
  m_degraded_reads : Metrics.counter;
  m_degraded_writes : Metrics.counter;
  m_full_stripe : Metrics.counter;
  m_rmw : Metrics.counter;
  m_member_failures : Metrics.counter;
  m_rebuilds_started : Metrics.counter;
  m_rebuilds_completed : Metrics.counter;
  m_rebuild_chunks : Metrics.counter;
  m_rebuild_bytes : Metrics.counter;
  m_rebuild_active : Metrics.gauge;
  m_journal_replays : Metrics.counter;
}

let make_inst metrics name =
  let ns = Names.Ns.raid name in
  {
    m_degraded_reads = Metrics.counter metrics ~ns Names.degraded_reads;
    m_degraded_writes = Metrics.counter metrics ~ns Names.degraded_writes;
    m_full_stripe = Metrics.counter metrics ~ns Names.full_stripe_writes;
    m_rmw = Metrics.counter metrics ~ns Names.rmw_writes;
    m_member_failures = Metrics.counter metrics ~ns Names.member_failures;
    m_rebuilds_started = Metrics.counter metrics ~ns Names.rebuilds_started;
    m_rebuilds_completed = Metrics.counter metrics ~ns Names.rebuilds_completed;
    m_rebuild_chunks = Metrics.counter metrics ~ns Names.rebuild_chunks;
    m_rebuild_bytes = Metrics.counter metrics ~ns Names.rebuild_bytes;
    m_rebuild_active = Metrics.gauge metrics ~ns Names.rebuild_active;
    m_journal_replays = Metrics.counter metrics ~ns Names.journal_replays;
  }

(* {1 The array} *)

type t = {
  eng : Engine.t;
  name : string;
  lvl : level;
  chunk : int;
  members : Device.t array;
  n : int;
  state : member_state array;
  member_cap : int;  (** usable bytes per member, whole chunks *)
  rows : int;  (** stripe rows = member_cap / chunk *)
  capacity : int;  (** logical bytes exposed *)
  inst : inst;
  mutable rotor : int;  (** RAID-1 read balancing *)
  mutable gen : int;  (** array incarnation, bumped by crash *)
  mutable crashed : bool;
  locked : (int, unit) Hashtbl.t;  (** rows under commit/rebuild *)
  lock_free : Condition.t;
  mutable jseq : int;
  journal : (int, (int * int * Bytes.t) list) Hashtbl.t;
      (** in-flight row commits: seq -> (member, member_off, bytes).
          Models the battery-backed controller journal that closes the
          RAID write hole: it survives a power crash and is replayed on
          recovery, so data and parity (or the two mirror sides) can
          never stay divergent for a commit that was in flight. *)
  mutable rebuild_cursor : (int * int) option;
      (** (member, first row not yet resilvered) *)
  dev : Device.t Lazy.t;
}

let parity_member t row = t.n - 1 - (row mod t.n)

(* Data chunks per stripe row: every member holds data at RAID-0, all
   but the row's parity member at RAID-5. *)
let data_per_row t = if t.lvl = Raid5 then t.n - 1 else t.n

let data_member t row j =
  if t.lvl <> Raid5 then j
  else begin
    let p = parity_member t row in
    if j < p then j else j + 1
  end

(* Split a logical range into (row, data_pos, chunk_off, len,
   logical_off) pieces, cut at chunk boundaries: chunks are dealt
   round-robin across a row's data positions. *)
let split t ~off ~len =
  let nd = data_per_row t in
  let rec go acc off remaining =
    if remaining = 0 then List.rev acc
    else begin
      let within = off mod t.chunk in
      let piece = Stdlib.min remaining (t.chunk - within) in
      let l = off / t.chunk in
      go ((l / nd, l mod nd, within, piece, off) :: acc) (off + piece) (remaining - piece)
    end
  in
  go [] off len

let rows_of t ~off ~len =
  if len = 0 then []
  else begin
    let lo = off / t.chunk and hi = (off + len - 1) / t.chunk in
    List.init (hi - lo + 1) (fun i -> lo + i)
  end

(* Is member [m]'s platter current for [row]? A rebuilding member is
   current only below the resilver cursor. *)
let live t m ~row =
  match t.state.(m) with
  | Active -> true
  | Failed -> false
  | Rebuilding -> (
      match t.rebuild_cursor with Some (rm, cur) -> rm = m && row < cur | None -> false)

let note_failure t m =
  match t.state.(m) with
  | Failed -> ()
  | Active | Rebuilding ->
      t.state.(m) <- Failed;
      (match t.rebuild_cursor with
      | Some (rm, _) when rm = m ->
          t.rebuild_cursor <- None;
          Metrics.set t.inst.m_rebuild_active 0.0
      | _ -> ());
      Metrics.incr t.inst.m_member_failures

let degraded t = Array.exists (fun s -> s <> Active) t.state

(* {2 Row locks}

   Every lock holder takes its rows in ascending order (row-commit and
   rebuild processes hold exactly one; RAID-1 range writers hold every
   row they cover), so acquisition cannot deadlock. A crash resets the
   table and bumps the generation: stale holders from the previous
   incarnation find their generation mismatched and park instead of
   touching the new one. *)

let lock_row t ~gen row =
  let rec go () =
    if t.gen <> gen then false
    else if Hashtbl.mem t.locked row then begin
      Condition.wait t.lock_free;
      go ()
    end
    else begin
      Hashtbl.replace t.locked row ();
      true
    end
  in
  go ()

let unlock_row t ~gen row =
  if t.gen = gen then begin
    Hashtbl.remove t.locked row;
    Condition.broadcast t.lock_free
  end

(* Run [f] with the stripe rows [rows] (ascending) locked, releasing
   them all on every return and exception path. [lock_row] refuses
   when the array crashed under us; [crashed] is the caller's answer
   for that case. *)
let with_rows t ~gen rows ~crashed f =
  if not (List.for_all (lock_row t ~gen) rows) then crashed ()
  else Locked.run ~acquire:(fun () -> ()) ~release:(fun () -> List.iter (unlock_row t ~gen) rows) f

(* A request caught by a power crash behaves like the powered-off
   device underneath it: it never completes. *)
let crashed_park () = Engine.park ()

(* {2 Commit journal} *)

let journal_add t writes =
  let seq = t.jseq in
  t.jseq <- seq + 1;
  Hashtbl.replace t.journal seq writes;
  seq

let journal_del t ~gen seq = if t.gen = gen then Hashtbl.remove t.journal seq

let replay_journal t =
  let seqs = Hashtbl.fold (fun s _ acc -> s :: acc) t.journal [] |> List.sort compare in
  List.iter
    (fun s ->
      Metrics.incr t.inst.m_journal_replays;
      List.iter
        (fun (m, moff, data) ->
          if t.state.(m) = Active then t.members.(m).Device.stable_write ~off:moff data)
        (Hashtbl.find t.journal s))
    seqs;
  Hashtbl.reset t.journal

(* {2 Member I/O}

   Blocking helpers for the redundant paths; an error marks the member
   failed (fail-stop model: the first error a member returns is its
   last useful word). *)

let xor_into dst src =
  for i = 0 to Bytes.length src - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst i) lxor Char.code (Bytes.unsafe_get src i)))
  done

(* Hand each member its share of an array batch as one batch of its
   own, in order, so the member schedulers can sort and merge it. *)
let submit_per_member t per_member =
  Array.iteri
    (fun m batch -> if batch <> [] then t.members.(m).Device.submit (List.rev batch))
    per_member

(* Submit [rs] as one batch per member and block until every request
   has completed, successfully or not. *)
let batch_await t rs =
  let per_member = Array.make t.n [] in
  List.iter (fun (m, r) -> per_member.(m) <- Io.Req r :: per_member.(m)) rs;
  submit_per_member t per_member;
  List.iter
    (fun (m, (r : Io.req)) ->
      Ivar.read r.Io.done_;
      if r.Io.error <> None then note_failure t m)
    rs

let mread t m ~class_ ~off ~len =
  let r = Io.read_req ~class_ ~off (Bytes.create len) in
  batch_await t [ (m, r) ];
  (r.Io.error, Io.read_buf r)

let mwrite t m ~class_ ~off data =
  let r = Io.write_req ~class_ ~off [ data ] in
  batch_await t [ (m, r) ];
  r.Io.error

(* {1 RAID-0} *)

(* One epoch: each request is cut into per-member pieces and the pieces
   go out as one batch per member. No process serves the epoch:
   completions chain through [Ivar.upon], and [k] runs from the last
   one, carrying the first piece error if any. That is the gate that
   keeps an epoch behind a barrier from starting before the previous
   one is stable on every spindle, not just its own. *)
let epoch0 t reqs k =
  let outstanding = ref (List.length reqs) in
  let epoch_err = ref None in
  if !outstanding = 0 then k None
  else begin
    let per_member = Array.make t.n [] in
    let finish_req r err =
      (match err with
      | Some e ->
          if !epoch_err = None then epoch_err := Some e;
          Io.fail r e
      | None -> Io.complete r);
      decr outstanding;
      if !outstanding = 0 then k !epoch_err
    in
    List.iter
      (fun (r : Io.req) ->
        match split t ~off:r.Io.off ~len:r.Io.len with
        | [] -> finish_req r None
        | pieces ->
            let remaining = ref (List.length pieces) in
            let perr = ref None in
            List.iter
              (fun (row, j, coff, plen, loff) ->
                let m = data_member t row j and moff = (row * t.chunk) + coff in
                let pr =
                  match r.Io.op with
                  | Io.Write _ ->
                      Io.write_req ~class_:r.Io.class_ ~off:moff
                        [ Io.sub r ~pos:(loff - r.Io.off) ~len:plen ]
                  | Io.Read _ -> Io.read_req ~off:moff (Bytes.create plen)
                in
                Ivar.upon pr.Io.done_ (fun () ->
                    (match (pr.Io.error, r.Io.op) with
                    | Some e, _ -> if !perr = None then perr := Some e
                    | None, Io.Read buf -> Bytes.blit (Io.read_buf pr) 0 buf (loff - r.Io.off) plen
                    | None, Io.Write _ -> ());
                    decr remaining;
                    if !remaining = 0 then finish_req r !perr);
                per_member.(m) <- Io.Req pr :: per_member.(m))
              pieces)
      reqs;
    submit_per_member t per_member
  end

(* {1 RAID-1} *)

(* The failure reply of a request that found no mirror to serve it. *)
let no_live_mirror t (r : Io.req) note_err =
  let e = Device.Io_error (t.name ^ ": no live mirror") in
  note_err e;
  Io.fail r e

(* What mirror [m] takes of a write of [data] at [off]: all of it while
   Active; while Rebuilding only the resilvered rows, since the stale
   tail belongs to the rebuild copy; nothing once Failed. *)
let mirror_pieces t m ~off data =
  match t.state.(m) with
  | Active -> [ (off, data) ]
  | Failed -> []
  | Rebuilding ->
      let len = Bytes.length data in
      List.filter_map
        (fun row ->
          if not (live t m ~row) then None
          else begin
            let rlo = Stdlib.max off (row * t.chunk)
            and rhi = Stdlib.min (off + len) ((row + 1) * t.chunk) in
            Some (rlo, Bytes.sub data (rlo - off) (rhi - rlo))
          end)
        (rows_of t ~off ~len)

(* Serve a read from any mirror current for every covered row, probing
   from the balance rotor; used both for degraded service and for
   failover when the picked mirror errors mid-read. *)
let serve_read1 t (r : Io.req) note_err =
  let rows = rows_of t ~off:r.Io.off ~len:r.Io.len in
  let start = t.rotor in
  t.rotor <- (t.rotor + 1) mod t.n;
  let rec probe k =
    if k = t.n then no_live_mirror t r note_err
    else begin
      let m = (start + k) mod t.n in
      if List.for_all (fun row -> live t m ~row) rows then begin
        let err, buf = mread t m ~class_:r.Io.class_ ~off:r.Io.off ~len:r.Io.len in
        match err with
        | None ->
            Bytes.blit buf 0 (Io.read_buf r) 0 r.Io.len;
            Io.complete r
        | Some _ -> probe (k + 1)
      end
      else probe (k + 1)
    end
  in
  probe 0

(* Degraded/rebuilding write: under the row locks, mirror the range to
   every Active member and to the resilvered rows of a Rebuilding one.
   The locks keep the resilver cursor decision stable: a row at or
   above the cursor is skipped here and picked up by the rebuild copy
   instead, never half-and-half. *)
let write1_locked t ~gen (r : Io.req) note_err =
  let off = r.Io.off and data = Io.sub r ~pos:0 ~len:r.Io.len in
  let mirrored =
    with_rows t ~gen (rows_of t ~off ~len:(Bytes.length data))
      ~crashed:(fun () ->
        crashed_park ();
        false)
      (fun () ->
        let jwrites = ref [] and twins = ref [] in
        Array.iteri
          (fun m _ ->
            List.iter
              (fun (moff, piece) ->
                jwrites := (m, moff, piece) :: !jwrites;
                twins := (m, Io.write_req ~class_:r.Io.class_ ~off:moff [ piece ]) :: !twins)
              (mirror_pieces t m ~off data))
          t.members;
        Metrics.incr t.inst.m_degraded_writes;
        match !twins with
        | [] -> false
        | rs ->
            let seq = journal_add t !jwrites in
            (* nfsrace: allow Y001 the row locks must span the mirror round trip so the resilver cursor decision stays stable for the whole batch *)
            batch_await t rs;
            journal_del t ~gen seq;
            List.exists (fun (_, (tw : Io.req)) -> tw.Io.error = None) rs)
  in
  (* The rows are unlocked before the reply goes out. *)
  if mirrored then Io.complete r else no_live_mirror t r note_err

let epoch1 t ~gen reqs =
  let epoch_err = ref None in
  let note_err e = if !epoch_err = None then epoch_err := Some e in
  if not (degraded t) then begin
    (* Healthy fast path: lock-free; writes twin to every mirror as one
       batch per member, reads deal round-robin across mirrors. *)
    let per_member = Array.make t.n [] in
    let plan =
      List.map
        (fun (r : Io.req) ->
          match r.Io.op with
          | Io.Write _ ->
              (* One copy for the journal, which every mirror's write
                 shares. *)
              let data = Io.sub r ~pos:0 ~len:r.Io.len in
              let seq = journal_add t (List.init t.n (fun m -> (m, r.Io.off, data))) in
              let twins =
                List.init t.n (fun m ->
                    let tw = Io.write_req ~class_:r.Io.class_ ~off:r.Io.off [ data ] in
                    per_member.(m) <- Io.Req tw :: per_member.(m);
                    (m, tw))
              in
              `W (r, seq, twins)
          | Io.Read _ ->
              let m = t.rotor in
              t.rotor <- (t.rotor + 1) mod t.n;
              let tw = Io.read_req ~class_:r.Io.class_ ~off:r.Io.off (Bytes.create r.Io.len) in
              per_member.(m) <- Io.Req tw :: per_member.(m);
              `R (r, m, tw))
        reqs
    in
    submit_per_member t per_member;
    List.iter
      (function
        | `W (_, _, twins) -> List.iter (fun (_, (tw : Io.req)) -> Ivar.read tw.Io.done_) twins
        | `R (_, _, tw) -> Ivar.read tw.Io.done_)
      plan;
    List.iter
      (function
        | `W (r, seq, twins) ->
            let ok = ref 0 in
            List.iter
              (fun (m, (tw : Io.req)) ->
                match tw.Io.error with Some _ -> note_failure t m | None -> incr ok)
              twins;
            journal_del t ~gen seq;
            if !ok = 0 then no_live_mirror t r note_err
            else begin
              if !ok < t.n then Metrics.incr t.inst.m_degraded_writes;
              Io.complete r
            end
        | `R (r, m, tw) -> (
            match tw.Io.error with
            | None ->
                Bytes.blit (Io.read_buf tw) 0 (Io.read_buf r) 0 r.Io.len;
                Io.complete r
            | Some _ ->
                note_failure t m;
                Metrics.incr t.inst.m_degraded_reads;
                serve_read1 t r note_err))
      plan;
    !epoch_err
  end
  else begin
    List.iter
      (fun (r : Io.req) ->
        match r.Io.op with
        | Io.Write _ -> write1_locked t ~gen r note_err
        | Io.Read _ ->
            Metrics.incr t.inst.m_degraded_reads;
            serve_read1 t r note_err)
      reqs;
    !epoch_err
  end

(* {1 RAID-5} *)

(* Reconstruct a byte range of a dead data chunk: XOR of the parity
   chunk and every other data chunk over the range, under the row lock
   so a parity update cannot interleave. *)
let reconstruct5 t ~gen ~row ~j ~coff ~plen =
  match
    with_rows t ~gen [ row ]
      ~crashed:(fun () ->
        crashed_park ();
        None)
      (fun () ->
        let dead = data_member t row j in
        let moff = (row * t.chunk) + coff in
        let acc = Bytes.make plen '\000' in
        let err = ref None in
        for m = 0 to t.n - 1 do
          if m <> dead && !err = None then
            if not (live t m ~row) then
              err := Some (Device.Io_error (t.name ^ ": second member lost"))
            else begin
              (* nfsrace: allow Y001 the row lock spans the member reads so a parity update cannot interleave with the reconstruction *)
              let e, buf = mread t m ~class_:`Read ~off:moff ~len:plen in
              match e with Some ex -> err := Some ex | None -> xor_into acc buf
            end
        done;
        Some (!err, acc))
  with
  | None -> None
  | Some (err, acc) ->
      Metrics.incr t.inst.m_degraded_reads;
      (match err with Some _ -> None | None -> Some acc)

let covered_fully ivals chunk =
  let s = List.sort compare ivals in
  let rec go pos = function
    | [] -> pos >= chunk
    | (coff, plen) :: rest -> if coff > pos then false else go (Stdlib.max pos (coff + plen)) rest
  in
  go 0 s

(* Commit every patch of one stripe row: classify full-stripe vs
   read-modify-write vs degraded, do the read phase, compute the new
   parity, journal the intended member writes, then issue them. Returns
   [None] on success. The caller holds the row lock. *)
let commit_row5_locked t ~gen ~row patches =
  let nd = t.n - 1 in
  let moff = row * t.chunk in
  let rec attempt tries =
    if tries > 2 then Some (Device.Io_error (t.name ^ ": row commit failed"))
    else begin
      let p = parity_member t row in
      let cov = Array.make nd [] in
      List.iter (fun (j, coff, plen, src, soff) -> cov.(j) <- (coff, plen, src, soff) :: cov.(j)) patches;
      Array.iteri (fun j l -> cov.(j) <- List.rev l) cov;
      let covered j = cov.(j) <> [] in
      let deads = ref [] in
      for m = t.n - 1 downto 0 do
        if not (live t m ~row) then deads := m :: !deads
      done;
      if List.length !deads > 1 then Some (Device.Io_error (t.name ^ ": multiple members lost"))
      else begin
        let p_live = live t p ~row in
        let all_full =
          let ok = ref true in
          for j = 0 to nd - 1 do
            if not (covered_fully (List.map (fun (c, l, _, _) -> (c, l)) cov.(j)) t.chunk) then
              ok := false
          done;
          !ok
        in
        let covered_live = ref true in
        for j = 0 to nd - 1 do
          if covered j && not (live t (data_member t row j) ~row) then covered_live := false
        done;
        let apply base j = List.iter (fun (coff, plen, src, soff) -> Bytes.blit src soff base coff plen) cov.(j) in
        (* A member error retries the commit; after a crash it parks. *)
        let retry () =
          if t.gen <> gen then begin
            crashed_park ();
            None
          end
          else attempt (tries + 1)
        in
        let failed rs = List.exists (fun (_, (r : Io.req)) -> r.Io.error <> None) rs in
        let finish writes =
          let seq = journal_add t writes in
          let rs = List.map (fun (m, o, b) -> (m, Io.write_req ~class_:`Sync_write ~off:o [ b ])) writes in
          batch_await t rs;
          journal_del t ~gen seq;
          if failed rs then retry () else None
        in
        (* The read phase: the row's chunk on the parity member and on
           every data position [want] selects, in one batch; [k] gets
           the bytes read, by member. *)
        let read_row want k =
          let targets = ref [ (p, Io.read_req ~off:moff (Bytes.create t.chunk)) ] in
          for j = nd - 1 downto 0 do
            if want j then
              targets := (data_member t row j, Io.read_req ~off:moff (Bytes.create t.chunk)) :: !targets
          done;
          batch_await t !targets;
          if failed !targets then retry () else k (fun m -> Io.read_buf (List.assoc m !targets))
        in
        if all_full then begin
          (* Full-stripe write: parity from the new data alone, no
             reads — the payoff the gathered flushes are after. *)
          let data =
            Array.init nd (fun j ->
                let b = Bytes.make t.chunk '\000' in
                apply b j;
                b)
          in
          let parity = Bytes.make t.chunk '\000' in
          Array.iter (fun b -> xor_into parity b) data;
          let writes = ref [] in
          if p_live then writes := (p, moff, parity) :: !writes;
          for j = nd - 1 downto 0 do
            let m = data_member t row j in
            if live t m ~row then writes := (m, moff, data.(j)) :: !writes
          done;
          Metrics.incr t.inst.m_full_stripe;
          if !deads <> [] then Metrics.incr t.inst.m_degraded_writes;
          finish !writes
        end
        else if (not p_live) && !deads = [ p ] then begin
          (* Parity spindle is the (single) casualty: the row is plain
             striping until the rebuild restores it. *)
          let writes =
            List.map (fun (j, coff, plen, src, soff) ->
                (data_member t row j, moff + coff, Bytes.sub src soff plen))
              patches
          in
          Metrics.incr t.inst.m_degraded_writes;
          finish writes
        end
        else if !covered_live && p_live && !deads = [] then begin
          (* Healthy partial stripe: read-modify-write at chunk
             granularity. parity' = parity ⊕ old ⊕ new. *)
          read_row covered (fun chunk_of ->
              let parity = Bytes.copy (chunk_of p) in
              let writes = ref [ (p, moff, parity) ] in
              for j = nd - 1 downto 0 do
                if covered j then begin
                  let m = data_member t row j in
                  let old = chunk_of m in
                  xor_into parity old;
                  let nw = Bytes.copy old in
                  apply nw j;
                  xor_into parity nw;
                  writes := (m, moff, nw) :: !writes
                end
              done;
              Metrics.incr t.inst.m_rmw;
              finish !writes)
        end
        else begin
          (* A written data chunk lives on the dead member (or died
             mid-commit): reconstruct the whole old row from the
             survivors, patch it, recompute parity, and write the live
             pieces. The dead chunk's new contents survive encoded in
             parity — the log-and-continue of degraded writes. *)
          let dead_j = ref (-1) in
          (match !deads with
          | [ d ] when d <> p ->
              for j = 0 to nd - 1 do
                if data_member t row j = d then dead_j := j
              done
          | _ -> ());
          if (not p_live) && !deads <> [] then
            (* parity and a data member both unreadable for this row *)
            Some (Device.Io_error (t.name ^ ": multiple members lost"))
          else begin
            read_row (fun j -> j <> !dead_j) (fun chunk_of ->
                let old =
                  Array.init nd (fun j ->
                      if j = !dead_j then begin
                        let b = Bytes.copy (chunk_of p) in
                        for j' = 0 to nd - 1 do
                          if j' <> !dead_j then xor_into b (chunk_of (data_member t row j'))
                        done;
                        b
                      end
                      else Bytes.copy (chunk_of (data_member t row j)))
                in
                let parity = Bytes.make t.chunk '\000' in
                let writes = ref [] in
                for j = nd - 1 downto 0 do
                  let nw = old.(j) in
                  apply nw j;
                  xor_into parity nw;
                  if covered j && j <> !dead_j then writes := (data_member t row j, moff, nw) :: !writes
                done;
                writes := (p, moff, parity) :: !writes;
                Metrics.incr t.inst.m_degraded_writes;
                finish !writes)
          end
        end
      end
    end
  in
  attempt 0

let commit_row5 t ~gen ~row patches note_err =
  match
    with_rows t ~gen [ row ]
      ~crashed:(fun () ->
        crashed_park ();
        None)
      (fun () ->
        (* nfsrace: allow Y001 the row lock must span the whole read-modify-write round trip so the parity stays consistent with the data it covers *)
        Some (commit_row5_locked t ~gen ~row (List.map (fun (j, c, l, s, o, _) -> (j, c, l, s, o)) patches)))
  with
  | None -> ()
  | Some res ->
      let fins =
        List.fold_left
          (fun acc (_, _, _, _, _, fin) -> if List.memq fin acc then acc else fin :: acc)
          [] patches
        |> List.rev
      in
      List.iter
        (fun (r, rem, rerr) ->
          (match res with
          | Some e -> if !rerr = None then rerr := Some e
          | None -> ());
          decr rem;
          if !rem = 0 then
            match !rerr with
            | None -> Io.complete r
            | Some e ->
                note_err e;
                Io.fail r e)
        fins

let epoch5 t ~gen reqs =
  let epoch_err = ref None in
  let note_err e = if !epoch_err = None then epoch_err := Some e in
  let writes, reads = List.partition Io.is_write reqs in
  (* Group write pieces by stripe row; each row commits under its own
     lock in its own process, so the rows of a gathered flush overlap
     in the member queues. *)
  let by_row : (int, (int * int * int * Bytes.t * int * (Io.req * int ref * exn option ref)) list ref) Hashtbl.t =
    Hashtbl.create 17
  in
  List.iter
    (fun (r : Io.req) ->
      match split t ~off:r.Io.off ~len:r.Io.len with
      | [] -> Io.complete r
      | pieces ->
          let rows = List.sort_uniq compare (List.map (fun (row, _, _, _, _) -> row) pieces) in
          let fin = (r, ref (List.length rows), ref None) in
          let src = Io.sub r ~pos:0 ~len:r.Io.len in
          List.iter
            (fun (row, j, coff, plen, loff) ->
              let cell =
                match Hashtbl.find_opt by_row row with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.replace by_row row l;
                    l
              in
              cell := (j, coff, plen, src, loff - r.Io.off, fin) :: !cell)
            pieces)
    writes;
  let rows =
    Hashtbl.fold (fun row cell acc -> (row, List.rev !cell) :: acc) by_row []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let join = Condition.create () in
  let outstanding = ref (List.length rows) in
  List.iter
    (fun (row, patches) ->
      Engine.spawn t.eng ~name:(t.name ^ "-row") (fun () ->
          commit_row5 t ~gen ~row patches note_err;
          decr outstanding;
          if !outstanding = 0 then Condition.broadcast join))
    rows;
  (* Reads: pieces on live members go out batched; pieces on a dead
     member reconstruct from parity afterwards, under the row lock. *)
  let per_member = Array.make t.n [] in
  let rplan =
    List.filter_map
      (fun (r : Io.req) ->
        match split t ~off:r.Io.off ~len:r.Io.len with
        | [] ->
            Io.complete r;
            None
        | pieces ->
            let prepared =
              List.map
                (fun (row, j, coff, plen, loff) ->
                  let m = data_member t row j in
                  if live t m ~row then begin
                    let tw =
                      Io.read_req ~class_:r.Io.class_ ~off:((row * t.chunk) + coff) (Bytes.create plen)
                    in
                    per_member.(m) <- Io.Req tw :: per_member.(m);
                    `Direct (row, j, coff, plen, loff, m, tw)
                  end
                  else `Recon (row, j, coff, plen, loff))
                pieces
            in
            Some (r, prepared))
      reads
  in
  submit_per_member t per_member;
  List.iter
    (fun (r, prepared) ->
      let rerr = ref None in
      let fill loff plen (bytes : Bytes.t) = Bytes.blit bytes 0 (Io.read_buf r) (loff - r.Io.off) plen in
      List.iter
        (fun piece ->
          let recon row j coff plen loff =
            match reconstruct5 t ~gen ~row ~j ~coff ~plen with
            | Some bytes -> fill loff plen bytes
            | None ->
                if !rerr = None then rerr := Some (Device.Io_error (t.name ^ ": unreadable range"))
          in
          match piece with
          | `Direct (row, j, coff, plen, loff, m, (tw : Io.req)) -> (
              Ivar.read tw.Io.done_;
              match tw.Io.error with
              | None -> fill loff plen (Io.read_buf tw)
              | Some _ ->
                  note_failure t m;
                  recon row j coff plen loff)
          | `Recon (row, j, coff, plen, loff) -> recon row j coff plen loff)
        prepared;
      match !rerr with
      | None -> Io.complete r
      | Some e ->
          note_err e;
          Io.fail r e)
    rplan;
  while !outstanding > 0 do
    Condition.wait join
  done;
  !epoch_err

(* {1 Stable paths}

   The filesystem's mkfs/superblock/inode paths run on these; they must
   keep working degraded (reconstructing through parity) and must keep
   the redundancy invariants intact (updating parity, mirroring). *)

let stable_read1 t ~off ~len =
  let rec pick m =
    if m = t.n then raise (Device.Io_error (t.name ^ ": no live mirror"))
    else if t.state.(m) = Active then m
    else pick (m + 1)
  in
  t.members.(pick 0).Device.stable_read ~off ~len

let stable_write1 t ~off data =
  Array.iteri
    (fun m member ->
      List.iter
        (fun (moff, piece) -> member.Device.stable_write ~off:moff piece)
        (mirror_pieces t m ~off data))
    t.members

(* A data chunk's stable bytes: from its own member while that is live
   for the row (RAID-0 members always are), else the XOR of parity and
   the other data members. *)
let stable_chunk t ~row ~j ~moff ~plen =
  let m = data_member t row j in
  if live t m ~row then t.members.(m).Device.stable_read ~off:moff ~len:plen
  else begin
    let lost () = Device.Io_error (t.name ^ ": multiple members lost") in
    let p = parity_member t row in
    if not (live t p ~row) then raise (lost ());
    let acc = t.members.(p).Device.stable_read ~off:moff ~len:plen in
    for j' = 0 to data_per_row t - 1 do
      if j' <> j then begin
        let m' = data_member t row j' in
        if not (live t m' ~row) then raise (lost ());
        xor_into acc (t.members.(m').Device.stable_read ~off:moff ~len:plen)
      end
    done;
    acc
  end

let stable_read_striped t ~off ~len =
  let buf = Bytes.create len in
  List.iter
    (fun (row, j, coff, plen, loff) ->
      let piece = stable_chunk t ~row ~j ~moff:((row * t.chunk) + coff) ~plen in
      Bytes.blit piece 0 buf (loff - off) plen)
    (split t ~off ~len);
  buf

let stable_write_striped t ~off data =
  List.iter
    (fun (row, j, coff, plen, loff) ->
      let m = data_member t row j and p = parity_member t row in
      let moff = (row * t.chunk) + coff in
      let piece = Bytes.sub data (loff - off) plen in
      if t.lvl = Raid5 && live t p ~row then begin
        let old = stable_chunk t ~row ~j ~moff ~plen in
        let parity = t.members.(p).Device.stable_read ~off:moff ~len:plen in
        xor_into parity old;
        xor_into parity piece;
        t.members.(p).Device.stable_write ~off:moff parity
      end;
      if live t m ~row then t.members.(m).Device.stable_write ~off:moff piece)
    (split t ~off ~len:(Bytes.length data))

(* {1 Crash / recover} *)

let do_crash t =
  t.crashed <- true;
  t.gen <- t.gen + 1;
  Hashtbl.reset t.locked;
  Condition.broadcast t.lock_free;
  (match t.rebuild_cursor with
  | Some (m, _) ->
      (* an interrupted resilver leaves the member stale: back to
         square one after the restart *)
      t.state.(m) <- Failed;
      t.rebuild_cursor <- None;
      Metrics.set t.inst.m_rebuild_active 0.0
  | None -> ());
  Array.iter (fun m -> m.Device.crash ()) t.members

let do_recover t =
  Array.iter (fun m -> m.Device.recover ()) t.members;
  t.crashed <- false;
  replay_journal t

(* {1 Construction} *)

let validate ~level ~chunk members =
  if Array.length members = 0 then invalid_arg "Stripe.create: no members";
  if chunk <= 0 then invalid_arg "Stripe.create: chunk must be positive";
  if chunk mod sector <> 0 then
    invalid_arg
      (Printf.sprintf "Stripe.create: chunk %d is not a multiple of the %d-byte sector" chunk
         sector);
  let c0 = members.(0).Device.capacity in
  Array.iter
    (fun m ->
      if m.Device.capacity <> c0 then
        invalid_arg
          (Printf.sprintf "Stripe.create: member capacities differ (%s: %d vs %s: %d)"
             members.(0).Device.name c0 m.Device.name m.Device.capacity))
    members;
  match level with
  | Raid0 -> ()
  | Raid1 ->
      if Array.length members < 2 then invalid_arg "Stripe.create: raid1 needs at least 2 members"
  | Raid5 ->
      if Array.length members < 3 then invalid_arg "Stripe.create: raid5 needs at least 3 members"

(* The array's one Device. RAID-0 services a batch in the submitter's
   context and from member completions, adding no process; the
   redundant levels block on member I/O and row locks, so each batch
   gets one process that parks for good once the array crashes under
   it. *)
let build t =
  let check ~off ~len =
    if off < 0 || len < 0 || off + len > t.capacity then
      invalid_arg
        (Printf.sprintf "%s: request [%d, %d) outside capacity %d" t.name off (off + len)
           t.capacity)
  in
  let submit items =
    List.iter
      (fun item ->
        match item with
        | Io.Req r -> check ~off:r.Io.off ~len:r.Io.len
        | Io.Barrier _ -> ())
      items;
    match t.lvl with
    | Raid0 -> Io.epochs items ~run:(epoch0 t)
    | Raid1 | Raid5 ->
        let epoch = if t.lvl = Raid1 then epoch1 else epoch5 in
        Engine.spawn t.eng ~name:(t.name ^ "-submit") (fun () ->
            let gen = t.gen in
            Io.epochs items ~run:(fun reqs k ->
                if t.crashed || t.gen <> gen then crashed_park () else k (epoch t ~gen reqs)))
  in
  let read ~off ~len =
    check ~off ~len;
    Io.blocking_read ~submit ~off ~len
  in
  let write ~off data =
    check ~off ~len:(Bytes.length data);
    Io.blocking_write ~submit ~class_:`Sync_write ~off data
  in
  let stable_read ~off ~len =
    check ~off ~len;
    match t.lvl with
    | Raid1 -> stable_read1 t ~off ~len
    | Raid0 | Raid5 -> stable_read_striped t ~off ~len
  in
  let stable_write ~off data =
    check ~off ~len:(Bytes.length data);
    match t.lvl with
    | Raid1 -> stable_write1 t ~off data
    | Raid0 | Raid5 -> stable_write_striped t ~off data
  in
  {
    Device.name = t.name;
    capacity = t.capacity;
    accelerated = (fun () -> Array.for_all (fun m -> m.Device.accelerated ()) t.members);
    submit;
    read;
    write;
    crash = (fun () -> do_crash t);
    recover = (fun () -> do_recover t);
    spindle_stats =
      (fun () ->
        Array.fold_left
          (fun acc m -> Device.add_stats acc (m.Device.spindle_stats ()))
          Device.zero_stats t.members);
    stable_read;
    stable_write;
    stable_page = Device.no_page;
  }

let create eng ?(name = "stripe") ?metrics ?(level = Raid0) ~chunk members =
  validate ~level ~chunk members;
  (* Raid0 keeps its historical zero-instrument footprint: its counters
     go to a throwaway registry so existing metric dumps are unchanged. *)
  let reg =
    match (metrics, level) with
    | Some m, (Raid1 | Raid5) -> m
    | _ -> Metrics.create ()
  in
  let n = Array.length members in
  let member_cap = members.(0).Device.capacity / chunk * chunk in
  let capacity =
    match level with
    | Raid0 -> member_cap * n
    | Raid1 -> member_cap
    | Raid5 -> member_cap * (n - 1)
  in
  let rec t =
    {
      eng;
      name;
      lvl = level;
      chunk;
      members;
      n;
      state = Array.make n Active;
      member_cap;
      rows = member_cap / chunk;
      capacity;
      inst = make_inst reg name;
      rotor = 0;
      gen = 0;
      crashed = false;
      locked = Hashtbl.create 61;
      lock_free = Condition.create ();
      jseq = 0;
      journal = Hashtbl.create 61;
      rebuild_cursor = None;
      dev = lazy (build t);
    }
  in
  t

(* {1 Management} *)

let device t = Lazy.force t.dev
let level t = t.lvl
let member_state t m =
  if m < 0 || m >= t.n then invalid_arg "Stripe.member_state: no such member";
  t.state.(m)

let fail_member t m =
  if m < 0 || m >= t.n then invalid_arg "Stripe.fail_member: no such member";
  if t.lvl = Raid0 then invalid_arg "Stripe.fail_member: raid0 has no redundancy";
  note_failure t m

let rebuild_active t = t.rebuild_cursor <> None

(* Copy [row] onto the rebuilding [member]: at RAID-1 the first active
   mirror's chunk; at RAID-5 the XOR of every other member's chunk,
   which reconstructs this one whether it held data or parity. The
   survivors are read one at a time. The caller holds the row lock. *)
let resilver_chunk t ~gen ~member ~row =
  let moff = row * t.chunk in
  let read i =
    match mread t i ~class_:`Bg_drain ~off:moff ~len:t.chunk with
    | None, buf -> Some buf
    | Some _, _ -> None
  in
  let others = List.filter (fun i -> i <> member) (List.init t.n Fun.id) in
  let content =
    match t.lvl with
    | Raid1 -> Option.bind (List.find_opt (fun i -> t.state.(i) = Active) others) read
    | Raid5 | Raid0 ->
        let acc = Bytes.make t.chunk '\000' in
        let rec xor_all = function
          | [] -> Some acc
          | i :: rest ->
              Option.bind (read i) (fun buf ->
                  xor_into acc buf;
                  xor_all rest)
        in
        xor_all others
  in
  match content with
  | None -> `Abandon
  | Some bytes -> (
      match mwrite t member ~class_:`Bg_drain ~off:moff bytes with
      | Some _ ->
          (* the replacement itself errored; [mwrite] flipped it back
             to Failed *)
          `Stop
      | None ->
          if t.gen = gen && t.state.(member) = Rebuilding then begin
            t.rebuild_cursor <- Some (member, row + 1);
            Metrics.incr t.inst.m_rebuild_chunks;
            Metrics.add t.inst.m_rebuild_bytes t.chunk
          end;
          `Advance)

let rebuild ?(pace = Time.of_ms_f 1.0) t ~member =
  if member < 0 || member >= t.n then invalid_arg "Stripe.rebuild: no such member";
  if t.lvl = Raid0 then invalid_arg "Stripe.rebuild: raid0 has no redundancy";
  if t.crashed then invalid_arg "Stripe.rebuild: array is crashed";
  if t.state.(member) <> Failed then invalid_arg "Stripe.rebuild: member is not failed";
  (match t.lvl with
  | Raid0 -> ()
  | Raid1 ->
      if not (Array.exists (fun s -> s = Active) t.state) then
        invalid_arg "Stripe.rebuild: no live mirror to copy from"
  | Raid5 ->
      Array.iteri
        (fun i s ->
          if i <> member && s <> Active then
            invalid_arg "Stripe.rebuild: raid5 rebuild needs every other member active")
        t.state);
  t.state.(member) <- Rebuilding;
  t.rebuild_cursor <- Some (member, 0);
  Metrics.incr t.inst.m_rebuilds_started;
  Metrics.set t.inst.m_rebuild_active 1.0;
  let gen = t.gen in
  Engine.spawn t.eng ~name:(t.name ^ "-rebuild") (fun () ->
      let rec go row =
        if t.gen <> gen || t.state.(member) <> Rebuilding then ()
        else if row = t.rows then begin
          t.state.(member) <- Active;
          t.rebuild_cursor <- None;
          Metrics.incr t.inst.m_rebuilds_completed;
          Metrics.set t.inst.m_rebuild_active 0.0
        end
        else begin
          match
            with_rows t ~gen [ row ]
              ~crashed:(fun () -> `Stop)
              (fun () ->
                (* nfsrace: allow Y001 the row lock keeps the resilver copy atomic against foreground writes to the same row *)
                resilver_chunk t ~gen ~member ~row)
          with
          | `Stop -> ()
          | `Abandon ->
              (* a survivor died mid-copy (or the world crashed):
                 abandon; the member stays stale *)
              if t.gen = gen && t.state.(member) = Rebuilding then begin
                t.state.(member) <- Failed;
                t.rebuild_cursor <- None;
                Metrics.set t.inst.m_rebuild_active 0.0
              end
          | `Advance ->
              Engine.delay pace;
              go (row + 1)
        end
      in
      go 0)
