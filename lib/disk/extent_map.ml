module IntMap = Map.Make (Int)

type t = { mutable extents : Bytes.t IntMap.t (* start offset -> data *) }

let create () = { extents = IntMap.empty }
let is_empty m = IntMap.is_empty m.extents
let total_bytes m = IntMap.fold (fun _ d acc -> acc + Bytes.length d) m.extents 0
let extent_count m = IntMap.cardinal m.extents

let end_of off data = off + Bytes.length data

(* Extents overlapping or touching [off, off+len): those starting before
   the end of the range whose own end reaches at least [off]. *)
let touching m ~off ~len =
  IntMap.fold
    (fun start data acc ->
      if start <= off + len && end_of start data >= off then (start, data) :: acc else acc)
    m.extents []
  |> List.rev

let remove_range m ~off ~len =
  if len > 0 then begin
    let overlapped =
      List.filter (fun (s, d) -> s < off + len && end_of s d > off) (touching m ~off ~len)
    in
    List.iter
      (fun (s, d) ->
        m.extents <- IntMap.remove s m.extents;
        (* Put back any prefix before the removed range. *)
        if s < off then begin
          let keep = Bytes.sub d 0 (off - s) in
          m.extents <- IntMap.add s keep m.extents
        end;
        (* Put back any suffix after the removed range. *)
        let e = end_of s d in
        if e > off + len then begin
          let keep = Bytes.sub d (off + len - s) (e - off - len) in
          m.extents <- IntMap.add (off + len) keep m.extents
        end)
      overlapped
  end

let insert m ~off data =
  let len = Bytes.length data in
  if len > 0 then begin
    (* Collect everything the new extent overlaps or touches, to merge. *)
    let neighbours = touching m ~off ~len in
    let new_start = List.fold_left (fun a (s, _) -> Stdlib.min a s) off neighbours in
    let new_end = List.fold_left (fun a (s, d) -> Stdlib.max a (end_of s d)) (off + len) neighbours in
    let merged = Bytes.create (new_end - new_start) in
    List.iter
      (fun (s, d) ->
        Bytes.blit d 0 merged (s - new_start) (Bytes.length d);
        m.extents <- IntMap.remove s m.extents)
      neighbours;
    (* New data wins over old overlapped bytes. *)
    Bytes.blit data 0 merged (off - new_start) len;
    m.extents <- IntMap.add new_start merged m.extents
  end

let apply m ~off buf =
  let len = Bytes.length buf in
  List.iter
    (fun (s, d) ->
      let copy_start = Stdlib.max s off in
      let copy_end = Stdlib.min (end_of s d) (off + len) in
      if copy_end > copy_start then
        Bytes.blit d (copy_start - s) buf (copy_start - off) (copy_end - copy_start))
    (touching m ~off ~len)

let covers m ~off ~len =
  if len = 0 then true
  else
    (* Because extents are coalesced, full coverage means one extent
       spans the whole range. *)
    IntMap.exists (fun s d -> s <= off && end_of s d >= off + len) m.extents

let take_first m ~max =
  match IntMap.min_binding_opt m.extents with
  | None -> None
  | Some (s, d) ->
      if Bytes.length d <= max then begin
        m.extents <- IntMap.remove s m.extents;
        Some (s, d)
      end
      else begin
        let head = Bytes.sub d 0 max in
        let tail = Bytes.sub d max (Bytes.length d - max) in
        m.extents <- IntMap.remove s m.extents;
        m.extents <- IntMap.add (s + max) tail m.extents;
        Some (s, head)
      end

let take_after m ~off ~max =
  let candidate =
    match IntMap.find_first_opt (fun s -> s >= off) m.extents with
    | Some binding -> Some binding
    | None -> IntMap.min_binding_opt m.extents
  in
  match candidate with
  | None -> None
  | Some (s, d) ->
      if Bytes.length d <= max then begin
        m.extents <- IntMap.remove s m.extents;
        Some (s, d)
      end
      else begin
        let head = Bytes.sub d 0 max in
        let tail = Bytes.sub d max (Bytes.length d - max) in
        m.extents <- IntMap.remove s m.extents;
        m.extents <- IntMap.add (s + max) tail m.extents;
        Some (s, head)
      end

let iter f m = IntMap.iter f m.extents
