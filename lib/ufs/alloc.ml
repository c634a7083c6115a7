exception No_space

type t = { cache : Buffer_cache.t; sb : Layout.superblock; mutable rotor : int }

let create cache sb = { cache; sb; rotor = sb.Layout.data_start }

let locate a b =
  let bits_per_block = a.sb.Layout.bsize * 8 in
  (a.sb.Layout.bitmap_start + (b / bits_per_block), b mod bits_per_block)

let get_bit a b =
  let blk, bit = locate a b in
  let buf = Buffer_cache.get a.cache blk in
  Char.code (Bytes.get buf (bit / 8)) land (1 lsl (bit mod 8)) <> 0

let set_bit a b v =
  let blk, bit = locate a b in
  Buffer_cache.modify a.cache blk Buffer_cache.Metadata Buffer_cache.From_disk (fun buf ->
      let byte = Char.code (Bytes.get buf (bit / 8)) in
      let byte' = if v then byte lor (1 lsl (bit mod 8)) else byte land lnot (1 lsl (bit mod 8)) in
      Bytes.set buf (bit / 8) (Char.chr byte'))

let is_allocated = get_bit

let alloc a ?near () =
  let nblocks = a.sb.Layout.nblocks in
  let try_one b = if get_bit a b then None else Some b in
  let candidate =
    match near with
    | Some n when n + 1 < nblocks && n + 1 >= a.sb.Layout.data_start -> try_one (n + 1)
    | Some _ | None -> None
  in
  let found =
    match candidate with
    | Some b -> Some b
    | None ->
        (* Next-fit scan from the rotor, wrapping once. *)
        let span = nblocks - a.sb.Layout.data_start in
        let rec scan i =
          if i >= span then None
          else begin
            let b =
              a.sb.Layout.data_start + ((a.rotor - a.sb.Layout.data_start + i) mod span)
            in
            match try_one b with Some b -> Some b | None -> scan (i + 1)
          end
        in
        scan 0
  in
  match found with
  | None -> raise No_space
  | Some b ->
      set_bit a b true;
      a.rotor <- b + 1;
      if a.rotor >= nblocks then a.rotor <- a.sb.Layout.data_start;
      b

let free a b =
  if b < a.sb.Layout.data_start || b >= a.sb.Layout.nblocks then
    invalid_arg (Printf.sprintf "alloc: freeing non-data block %d" b);
  if not (get_bit a b) then invalid_arg (Printf.sprintf "alloc: double free of block %d" b);
  set_bit a b false

let set_allocated a b = set_bit a b true

let clear_all_data_area a =
  for b = a.sb.Layout.data_start to a.sb.Layout.nblocks - 1 do
    if get_bit a b then set_bit a b false
  done
