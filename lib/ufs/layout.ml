let inode_size = 128
let nd_direct = 12
let magic = "NFSGUFS1"
let max_name_len = 255

type ftype = Free | Regular | Directory | Symlink

type superblock = {
  bsize : int;
  nblocks : int;
  ninodes : int;
  bitmap_start : int;
  bitmap_blocks : int;
  itable_start : int;
  itable_blocks : int;
  data_start : int;
  root_inum : int;
  format_gen : int;
}

let ftype_to_int = function Free -> 0 | Regular -> 1 | Directory -> 2 | Symlink -> 3

let ftype_of_int = function
  | 0 -> Free
  | 1 -> Regular
  | 2 -> Directory
  | 3 -> Symlink
  | n -> failwith (Printf.sprintf "layout: bad ftype %d" n)

let make_superblock ~bsize ~capacity ~ninodes =
  if bsize < 512 || bsize land (bsize - 1) <> 0 then
    invalid_arg "layout: bsize must be a power of two >= 512";
  let nblocks = capacity / bsize in
  let bitmap_blocks = (nblocks + (bsize * 8) - 1) / (bsize * 8) in
  let inodes_per_block = bsize / inode_size in
  let itable_blocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  let bitmap_start = 1 in
  let itable_start = bitmap_start + bitmap_blocks in
  let data_start = itable_start + itable_blocks in
  if data_start + 8 > nblocks then invalid_arg "layout: device too small";
  {
    bsize;
    nblocks;
    ninodes;
    bitmap_start;
    bitmap_blocks;
    itable_start;
    itable_blocks;
    data_start;
    root_inum = 1;
    format_gen = 1;
  }

let set32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let set64 b off v = Bytes.set_int64_be b off (Int64.of_int v)
let get64 b off = Int64.to_int (Bytes.get_int64_be b off)

let encode_superblock sb =
  let b = Bytes.make sb.bsize '\000' in
  Bytes.blit_string magic 0 b 0 8;
  set32 b 8 sb.bsize;
  set32 b 12 sb.nblocks;
  set32 b 16 sb.ninodes;
  set32 b 20 sb.bitmap_start;
  set32 b 24 sb.bitmap_blocks;
  set32 b 28 sb.itable_start;
  set32 b 32 sb.itable_blocks;
  set32 b 36 sb.data_start;
  set32 b 40 sb.root_inum;
  set32 b 44 sb.format_gen;
  b

let decode_superblock b =
  if Bytes.length b < 48 then failwith "layout: superblock too short";
  if Bytes.sub_string b 0 8 <> magic then failwith "layout: bad superblock magic";
  let sb =
    {
      bsize = get32 b 8;
      nblocks = get32 b 12;
      ninodes = get32 b 16;
      bitmap_start = get32 b 20;
      bitmap_blocks = get32 b 24;
      itable_start = get32 b 28;
      itable_blocks = get32 b 32;
      data_start = get32 b 36;
      root_inum = get32 b 40;
      format_gen = get32 b 44;
    }
  in
  if sb.bsize < 512 || sb.nblocks <= 0 || sb.ninodes <= 0 then
    failwith "layout: implausible superblock";
  sb

type dinode = {
  mutable ftype : ftype;
  mutable nlink : int;
  mutable size : int;
  mutable mtime : int;
  mutable atime : int;
  mutable ctime : int;
  direct : int array;
  mutable single_ind : int;
  mutable double_ind : int;
  mutable gen : int;
}

let new_dinode ftype ~gen ~now =
  {
    ftype;
    nlink = 1;
    size = 0;
    mtime = now;
    atime = now;
    ctime = now;
    direct = Array.make nd_direct 0;
    single_ind = 0;
    double_ind = 0;
    gen;
  }

let encode_dinode di =
  let b = Bytes.make inode_size '\000' in
  set32 b 0 (ftype_to_int di.ftype);
  set32 b 4 di.nlink;
  set64 b 8 di.size;
  set64 b 16 di.mtime;
  set64 b 24 di.atime;
  set64 b 32 di.ctime;
  Array.iteri (fun i p -> set32 b (40 + (4 * i)) p) di.direct;
  set32 b (40 + (4 * nd_direct)) di.single_ind;
  set32 b (44 + (4 * nd_direct)) di.double_ind;
  set32 b (48 + (4 * nd_direct)) di.gen;
  b

let check_slot b pos =
  if pos < 0 || Bytes.length b < pos + inode_size then failwith "layout: short inode"

let dinode_ftype b ~pos =
  check_slot b pos;
  ftype_of_int (get32 b pos)

let dinode_gen b ~pos =
  check_slot b pos;
  get32 b (pos + 48 + (4 * nd_direct))

let decode_dinode ?(pos = 0) b =
  check_slot b pos;
  {
    ftype = dinode_ftype b ~pos;
    nlink = get32 b (pos + 4);
    size = get64 b (pos + 8);
    mtime = get64 b (pos + 16);
    atime = get64 b (pos + 24);
    ctime = get64 b (pos + 32);
    direct = Array.init nd_direct (fun i -> get32 b (pos + 40 + (4 * i)));
    single_ind = get32 b (pos + 40 + (4 * nd_direct));
    double_ind = get32 b (pos + 44 + (4 * nd_direct));
    gen = dinode_gen b ~pos;
  }

let inode_block sb inum =
  if inum < 1 || inum >= sb.ninodes then invalid_arg (Printf.sprintf "layout: bad inum %d" inum);
  let per_block = sb.bsize / inode_size in
  (sb.itable_start + (inum / per_block), inum mod per_block * inode_size)

let pointers_per_block sb = sb.bsize / 4

type slot = Direct of int | Single of int | Double of int * int | Beyond

let slot sb fbn =
  let p = pointers_per_block sb in
  if fbn < 0 then invalid_arg (Printf.sprintf "layout: negative file block %d" fbn)
  else if fbn < nd_direct then Direct fbn
  else if fbn < nd_direct + p then Single (fbn - nd_direct)
  else
    let i = fbn - nd_direct - p in
    if i < p * p then Double (i / p, i mod p) else Beyond

let max_file_size sb =
  let p = pointers_per_block sb in
  (nd_direct + p + (p * p)) * sb.bsize

let get_pointer block i = get32 block (4 * i)
let set_pointer block i v = set32 block (4 * i) v

let walk sb di ~read ~stray visit =
  let rec node depth b =
    if b = 0 then ()
    else if b < sb.data_start || b >= sb.nblocks then stray b
    else begin
      visit b;
      if depth > 0 then begin
        (* Copy the pointers out before descending: a read below may
           refill the buffer [read] returned. *)
        let ptrs = Array.init (pointers_per_block sb) (get_pointer (read b)) in
        Array.iter (node (depth - 1)) ptrs
      end
    end
  in
  Array.iter (node 0) di.direct;
  node 1 di.single_ind;
  node 2 di.double_ind

let encode_dirents entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, inum) ->
      let n = String.length name in
      if n = 0 || n > max_name_len then invalid_arg ("layout: bad name " ^ name);
      let b4 = Bytes.create 4 in
      set32 b4 0 inum;
      Buffer.add_bytes buf b4;
      let b2 = Bytes.create 2 in
      Bytes.set_uint16_be b2 0 n;
      Buffer.add_bytes buf b2;
      Buffer.add_string buf name;
      let pad = (4 - ((6 + n) mod 4)) mod 4 in
      Buffer.add_string buf (String.make pad '\000'))
    entries;
  Buffer.to_bytes buf

(* The name length of the entry at [off], or 0 where the entries end:
   no room for a header, an empty name, or a name past the end. *)
let name_len_at b off =
  if off + 6 > Bytes.length b then 0
  else
    let n = Bytes.get_uint16_be b (off + 4) in
    if off + 6 + n > Bytes.length b then 0 else n

(* The offset of the entry after the one at [off], whose name is [n]
   bytes long. *)
let next_dirent off n = off + 6 + n + ((4 - ((6 + n) mod 4)) mod 4)

let decode_dirents b =
  let rec go off acc =
    match name_len_at b off with
    | 0 -> List.rev acc
    | n -> go (next_dirent off n) ((Bytes.sub_string b (off + 6) n, get32 b off) :: acc)
  in
  go 0 []

let find_dirent b name =
  let want = String.length name in
  let rec same pos i = i = want || (Bytes.get b (pos + i) = name.[i] && same pos (i + 1)) in
  let rec go off =
    match name_len_at b off with
    | 0 -> None
    | n when n = want && same (off + 6) 0 -> Some (get32 b off)
    | n -> go (next_dirent off n)
  in
  go 0
