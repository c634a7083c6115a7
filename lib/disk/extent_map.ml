module IntMap = Map.Make (Int)

(* [len] bytes of [buf] from [pos]. Neither a piece nor the bytes it
   covers ever change, so extents share pieces and slice them freely. *)
type piece = { buf : Bytes.t; pos : int; len : int }

(* An extent's bytes as pieces from its end down: a sequential stream
   extends an extent at its end, which is one cons. *)
type extent = { size : int; pieces : piece list }

type t = {
  mutable extents : extent IntMap.t;  (* start offset -> extent *)
  mutable total : int;  (* sum of the extents' sizes *)
}

let create () = { extents = IntMap.empty; total = 0 }
let is_empty m = IntMap.is_empty m.extents
let total_bytes m = m.total

(* The pieces of bytes [0, k) of a piece list whose first piece ends at
   [top], relative to its extent's start. The pieces below the cut are
   shared. *)
let rec below k top = function
  | [] -> []
  | p :: rest as ps ->
      let lo = top - p.len in
      if lo >= k then below k lo rest
      else if top <= k then ps
      else { p with len = k - lo } :: rest

(* The pieces of bytes [k, top) of a piece list whose first piece ends
   at [top]. *)
let rec above k top = function
  | [] -> []
  | p :: rest ->
      let lo = top - p.len in
      if lo >= k then p :: above k lo rest
      else if top <= k then []
      else [ { p with pos = p.pos + (k - lo); len = top - k } ]

let put m start size pieces =
  m.extents <- IntMap.add start { size; pieces } m.extents;
  m.total <- m.total + size

let unput m start e =
  m.extents <- IntMap.remove start m.extents;
  m.total <- m.total - e.size

(* The [size] bytes a piece list covers, joined into a new buffer. *)
let concat size pieces =
  let out = Bytes.create size in
  ignore
    (List.fold_left
       (fun top p ->
         let lo = top - p.len in
         Bytes.blit p.buf p.pos out lo p.len;
         lo)
       size pieces
      : int);
  out

(* Extents overlapping or touching [off, off+len), in offset order:
   the one starting before [off] if it reaches it, then those starting
   up to the end of the range. *)
let touching m ~off ~len =
  let rec from seq =
    match seq () with
    | Seq.Cons (((s, _) as x), rest) when s <= off + len -> x :: from rest
    | _ -> []
  in
  let after = from (IntMap.to_seq_from off m.extents) in
  match IntMap.find_last_opt (fun s -> s < off) m.extents with
  | Some ((s, e) as x) when s + e.size >= off -> x :: after
  | _ -> after

let remove_range m ~off ~len =
  if len > 0 then
    List.iter
      (fun (s, e) ->
        let stop = s + e.size in
        if s < off + len && stop > off then begin
          unput m s e;
          (* Put back any prefix before the removed range, and any
             suffix after it. *)
          if s < off then put m s (off - s) (below (off - s) e.size e.pieces);
          if stop > off + len then
            put m (off + len) (stop - off - len) (above (off + len - s) e.size e.pieces)
        end)
      (touching m ~off ~len)

let insert m ~off data =
  let len = Bytes.length data in
  if len > 0 then begin
    (* Merge with everything the new extent overlaps or touches: keep
       the first neighbour's bytes below it and the last one's above
       it. New data wins over old overlapped bytes. *)
    let neighbours = touching m ~off ~len in
    List.iter (fun (s, e) -> unput m s e) neighbours;
    let start, low =
      match neighbours with
      | (s, e) :: _ when s < off -> (s, below (off - s) e.size e.pieces)
      | _ -> (off, [])
    in
    let stop, high =
      match List.rev neighbours with
      | (s, e) :: _ when s + e.size > off + len ->
          (s + e.size, above (off + len - s) e.size e.pieces)
      | _ -> (off + len, [])
    in
    put m start (stop - start) (high @ ({ buf = Bytes.copy data; pos = 0; len } :: low))
  end

let apply m ~off buf =
  let len = Bytes.length buf in
  List.iter
    (fun (s, e) ->
      let rec overlay top = function
        | [] -> ()
        | p :: rest ->
            let lo = top - p.len in
            let copy_start = Stdlib.max lo off in
            let copy_end = Stdlib.min top (off + len) in
            if copy_end > copy_start then
              Bytes.blit p.buf (p.pos + copy_start - lo) buf (copy_start - off)
                (copy_end - copy_start);
            if lo > off then overlay lo rest
      in
      overlay (s + e.size) e.pieces)
    (touching m ~off ~len)

let covers m ~off ~len =
  len = 0
  ||
  (* Because extents are coalesced, full coverage means one extent
     spans the whole range: the last one starting at or before it. *)
  match IntMap.find_last_opt (fun s -> s <= off) m.extents with
  | Some (s, e) -> s + e.size >= off + len
  | None -> false

let take_after m ~off ~max =
  let candidate =
    match IntMap.find_first_opt (fun s -> s >= off) m.extents with
    | Some binding -> Some binding
    | None -> IntMap.min_binding_opt m.extents
  in
  match candidate with
  | None -> None
  | Some (s, e) ->
      unput m s e;
      if e.size <= max then Some (s, concat e.size e.pieces)
      else begin
        put m (s + max) (e.size - max) (above max e.size e.pieces);
        Some (s, concat max (below max e.size e.pieces))
      end

let iter f m = IntMap.iter (fun s e -> f s (concat e.size e.pieces)) m.extents
