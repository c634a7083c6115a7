open Nfsg_rpc

type fh = { fsid : int; vgen : int; inum : int; gen : int }

let fh_bytes = 32

type ftype = NFNON | NFREG | NFDIR | NFLNK

type timeval = { sec : int; usec : int }

let timeval_of_ns ns = { sec = ns / 1_000_000_000; usec = ns mod 1_000_000_000 / 1_000 }
let ns_of_timeval tv = (tv.sec * 1_000_000_000) + (tv.usec * 1_000)

type fattr = {
  ftype : ftype;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  blocksize : int;
  rdev : int;
  blocks : int;
  fsid : int;
  fileid : int;
  atime : timeval;
  mtime : timeval;
  ctime : timeval;
}

let max_size = 0xFFFF_FFFF
let max_data = 8192

type sattr = {
  s_mode : int;
  s_uid : int;
  s_gid : int;
  s_size : int;
  s_atime : timeval option;
  s_mtime : timeval option;
}

let sattr_none =
  { s_mode = -1; s_uid = -1; s_gid = -1; s_size = -1; s_atime = None; s_mtime = None }

let sattr_truncate size = { sattr_none with s_size = size }

type status =
  | NFS_OK
  | NFSERR_PERM
  | NFSERR_NOENT
  | NFSERR_IO
  | NFSERR_EXIST
  | NFSERR_NOTDIR
  | NFSERR_ISDIR
  | NFSERR_FBIG
  | NFSERR_NOSPC
  | NFSERR_ROFS
  | NFSERR_NOTEMPTY
  | NFSERR_STALE
  | NFSERR_XDEV

let status_to_int = function
  | NFS_OK -> 0
  | NFSERR_PERM -> 1
  | NFSERR_NOENT -> 2
  | NFSERR_IO -> 5
  | NFSERR_EXIST -> 17
  | NFSERR_XDEV -> 18
  | NFSERR_NOTDIR -> 20
  | NFSERR_ISDIR -> 21
  | NFSERR_FBIG -> 27
  | NFSERR_NOSPC -> 28
  | NFSERR_ROFS -> 30
  | NFSERR_NOTEMPTY -> 66
  | NFSERR_STALE -> 70

let status_of_int = function
  | 0 -> NFS_OK
  | 1 -> NFSERR_PERM
  | 2 -> NFSERR_NOENT
  | 5 -> NFSERR_IO
  | 17 -> NFSERR_EXIST
  | 18 -> NFSERR_XDEV
  | 20 -> NFSERR_NOTDIR
  | 21 -> NFSERR_ISDIR
  | 27 -> NFSERR_FBIG
  | 28 -> NFSERR_NOSPC
  | 30 -> NFSERR_ROFS
  | 66 -> NFSERR_NOTEMPTY
  | 70 -> NFSERR_STALE
  | n -> Xdr.malformed (Printf.sprintf "bad NFS status %d" n)

let string_of_status = function
  | NFS_OK -> "NFS_OK"
  | NFSERR_PERM -> "NFSERR_PERM"
  | NFSERR_NOENT -> "NFSERR_NOENT"
  | NFSERR_IO -> "NFSERR_IO"
  | NFSERR_EXIST -> "NFSERR_EXIST"
  | NFSERR_XDEV -> "NFSERR_XDEV"
  | NFSERR_NOTDIR -> "NFSERR_NOTDIR"
  | NFSERR_ISDIR -> "NFSERR_ISDIR"
  | NFSERR_FBIG -> "NFSERR_FBIG"
  | NFSERR_NOSPC -> "NFSERR_NOSPC"
  | NFSERR_ROFS -> "NFSERR_ROFS"
  | NFSERR_NOTEMPTY -> "NFSERR_NOTEMPTY"
  | NFSERR_STALE -> "NFSERR_STALE"

let proc_null = 0
let proc_getattr = 1
let proc_setattr = 2
let proc_lookup = 4
let proc_read = 6
let proc_write = 8
let proc_create = 9
let proc_remove = 10
let proc_rename = 11
let proc_mkdir = 14
let proc_rmdir = 15
let proc_readlink = 5
let proc_symlink = 13
let proc_readdir = 16
let proc_statfs = 17

(* NFSv3 additions: we reuse the v3 procedure numbers that do not
   collide with the v2 table (v2 procedure 7 was the unused
   WRITECACHE; 21 is beyond the v2 table). *)
let proc_write3 = 7
let proc_commit = 21

(* {1 Primitive XDR pieces} *)

(* The 32-byte opaque handle is server-private; our layout spends the
   first four words on (volume id, volume generation, inode, inode
   generation) so dispatch can route and detect staleness at every
   level of the identity. *)
let put_fh enc (fh : fh) =
  Xdr.Enc.word enc fh.fsid;
  Xdr.Enc.word enc fh.vgen;
  Xdr.Enc.word enc fh.inum;
  Xdr.Enc.word enc fh.gen;
  Xdr.Enc.zeros enc (fh_bytes - 16)

let get_fh dec =
  let b = Xdr.Dec.opaque_fixed dec fh_bytes in
  {
    fsid = Int32.to_int (Bytes.get_int32_be b 0);
    vgen = Int32.to_int (Bytes.get_int32_be b 4);
    inum = Int32.to_int (Bytes.get_int32_be b 8);
    gen = Int32.to_int (Bytes.get_int32_be b 12);
  }

let put_timeval enc tv =
  Xdr.Enc.uint32 enc tv.sec;
  Xdr.Enc.uint32 enc tv.usec

let get_timeval dec =
  let sec = Xdr.Dec.uint32 dec in
  let usec = Xdr.Dec.uint32 dec in
  { sec; usec }

let ftype_to_int = function NFNON -> 0 | NFREG -> 1 | NFDIR -> 2 | NFLNK -> 5

let ftype_of_int = function
  | 0 -> NFNON
  | 1 -> NFREG
  | 2 -> NFDIR
  | 5 -> NFLNK
  | n -> Xdr.malformed (Printf.sprintf "bad ftype %d" n)

let put_fattr enc a =
  Xdr.Enc.enum enc (ftype_to_int a.ftype);
  Xdr.Enc.uint32 enc a.mode;
  Xdr.Enc.uint32 enc a.nlink;
  Xdr.Enc.uint32 enc a.uid;
  Xdr.Enc.uint32 enc a.gid;
  Xdr.Enc.uint32 enc a.size;
  Xdr.Enc.uint32 enc a.blocksize;
  Xdr.Enc.uint32 enc a.rdev;
  Xdr.Enc.uint32 enc a.blocks;
  Xdr.Enc.uint32 enc a.fsid;
  Xdr.Enc.uint32 enc a.fileid;
  put_timeval enc a.atime;
  put_timeval enc a.mtime;
  put_timeval enc a.ctime

let get_fattr dec =
  let ftype = ftype_of_int (Xdr.Dec.enum dec) in
  let mode = Xdr.Dec.uint32 dec in
  let nlink = Xdr.Dec.uint32 dec in
  let uid = Xdr.Dec.uint32 dec in
  let gid = Xdr.Dec.uint32 dec in
  let size = Xdr.Dec.uint32 dec in
  let blocksize = Xdr.Dec.uint32 dec in
  let rdev = Xdr.Dec.uint32 dec in
  let blocks = Xdr.Dec.uint32 dec in
  let fsid = Xdr.Dec.uint32 dec in
  let fileid = Xdr.Dec.uint32 dec in
  let atime = get_timeval dec in
  let mtime = get_timeval dec in
  let ctime = get_timeval dec in
  { ftype; mode; nlink; uid; gid; size; blocksize; rdev; blocks; fsid; fileid; atime; mtime; ctime }

(* RFC 1094 encodes "don't set" as 0xffffffff. *)
let put_sattr enc s =
  let u32_or_neg v = if v < 0 then 0xFFFFFFFF else v in
  Xdr.Enc.uint32 enc (u32_or_neg s.s_mode);
  Xdr.Enc.uint32 enc (u32_or_neg s.s_uid);
  Xdr.Enc.uint32 enc (u32_or_neg s.s_gid);
  Xdr.Enc.uint32 enc (u32_or_neg s.s_size);
  (match s.s_atime with
  | Some tv -> put_timeval enc tv
  | None -> put_timeval enc { sec = 0xFFFFFFFF; usec = 0xFFFFFFFF });
  match s.s_mtime with
  | Some tv -> put_timeval enc tv
  | None -> put_timeval enc { sec = 0xFFFFFFFF; usec = 0xFFFFFFFF }

let get_sattr dec =
  let neg_or v = if v = 0xFFFFFFFF then -1 else v in
  let s_mode = neg_or (Xdr.Dec.uint32 dec) in
  let s_uid = neg_or (Xdr.Dec.uint32 dec) in
  let s_gid = neg_or (Xdr.Dec.uint32 dec) in
  let s_size = neg_or (Xdr.Dec.uint32 dec) in
  let tv_opt () =
    let tv = get_timeval dec in
    if tv.sec = 0xFFFFFFFF then None
    else if tv.usec >= 1_000_000 then Xdr.malformed "bad timeval"
    else Some tv
  in
  let s_atime = tv_opt () in
  let s_mtime = tv_opt () in
  { s_mode; s_uid; s_gid; s_size; s_atime; s_mtime }

(* RFC 1094's [filename<MAXNAMLEN>]: a longer name breaks the XDR
   bound, and an empty one is garbage too, as BSD's server answers it. *)
let get_name dec =
  let name = Xdr.Dec.string dec in
  if name = "" || String.length name > 255 then Xdr.malformed "bad file name";
  name

(* {1 Arguments} *)

type stable_how = Unstable | Data_sync | File_sync

let stable_to_int = function Unstable -> 0 | Data_sync -> 1 | File_sync -> 2

let stable_of_int = function
  | 0 -> Unstable
  | 1 -> Data_sync
  | 2 -> File_sync
  | n -> Xdr.malformed (Printf.sprintf "bad stable_how %d" n)

type args =
  | Null
  | Getattr of fh
  | Setattr of fh * sattr
  | Lookup of fh * string
  | Read of { fh : fh; offset : int; count : int }
  | Write of { fh : fh; offset : int; data : Xdr.view }
  | Create of { dir : fh; name : string; sattr : sattr }
  | Remove of { dir : fh; name : string }
  | Rename of { from_dir : fh; from_name : string; to_dir : fh; to_name : string }
  | Mkdir of { dir : fh; name : string; sattr : sattr }
  | Rmdir of { dir : fh; name : string }
  | Readdir of { fh : fh; cookie : int; count : int }
  | Statfs of fh
  | Readlink of fh
  | Symlink of { dir : fh; name : string; target : string; sattr : sattr }
  | Write3 of { fh : fh; offset : int; stable : stable_how; data : Xdr.view }
  | Commit of { fh : fh; offset : int; count : int }

let proc_of_args = function
  | Null -> proc_null
  | Getattr _ -> proc_getattr
  | Setattr _ -> proc_setattr
  | Lookup _ -> proc_lookup
  | Read _ -> proc_read
  | Write _ -> proc_write
  | Create _ -> proc_create
  | Remove _ -> proc_remove
  | Rename _ -> proc_rename
  | Mkdir _ -> proc_mkdir
  | Rmdir _ -> proc_rmdir
  | Readdir _ -> proc_readdir
  | Statfs _ -> proc_statfs
  | Readlink _ -> proc_readlink
  | Symlink _ -> proc_symlink
  | Write3 _ -> proc_write3
  | Commit _ -> proc_commit

let put_args enc = function
  | Null -> ()
  | Getattr fh | Statfs fh | Readlink fh -> put_fh enc fh
  | Symlink { dir; name; target; sattr } ->
      put_fh enc dir;
      Xdr.Enc.string enc name;
      Xdr.Enc.string enc target;
      put_sattr enc sattr
  | Setattr (fh, sattr) ->
      put_fh enc fh;
      put_sattr enc sattr
  | Lookup (fh, name) ->
      put_fh enc fh;
      Xdr.Enc.string enc name
  | Read { fh; offset; count } ->
      put_fh enc fh;
      Xdr.Enc.uint32 enc offset;
      Xdr.Enc.uint32 enc count;
      (* totalcount, unused per RFC *)
      Xdr.Enc.uint32 enc 0
  | Write { fh; offset; data } ->
      put_fh enc fh;
      (* beginoffset, unused *)
      Xdr.Enc.uint32 enc 0;
      Xdr.Enc.uint32 enc offset;
      (* totalcount, unused *)
      Xdr.Enc.uint32 enc 0;
      Xdr.Enc.opaque_view enc data
  | Create { dir; name; sattr } | Mkdir { dir; name; sattr } ->
      put_fh enc dir;
      Xdr.Enc.string enc name;
      put_sattr enc sattr
  | Remove { dir; name } | Rmdir { dir; name } ->
      put_fh enc dir;
      Xdr.Enc.string enc name
  | Rename { from_dir; from_name; to_dir; to_name } ->
      put_fh enc from_dir;
      Xdr.Enc.string enc from_name;
      put_fh enc to_dir;
      Xdr.Enc.string enc to_name
  | Readdir { fh; cookie; count } ->
      put_fh enc fh;
      Xdr.Enc.uint32 enc cookie;
      Xdr.Enc.uint32 enc count
  | Write3 { fh; offset; stable; data } ->
      put_fh enc fh;
      Xdr.Enc.uint64 enc offset;
      Xdr.Enc.uint32 enc (Xdr.view_length data);
      Xdr.Enc.enum enc (stable_to_int stable);
      Xdr.Enc.opaque_view enc data
  | Commit { fh; offset; count } ->
      put_fh enc fh;
      Xdr.Enc.uint64 enc offset;
      Xdr.Enc.uint32 enc count

let encode_args args = Xdr.Enc.encode (fun enc -> put_args enc args)

(* {1 Results} *)

type statfs_ok = { tsize : int; bsize : int; blocks : int; bfree : int; bavail : int }

type res =
  | RNull
  | RAttr of (fattr, status) result
  | RDirop of (fh * fattr, status) result
  | RRead of (fattr * Xdr.view, status) result
  | RStatus of status
  | RReaddir of ((string * int) list * bool, status) result
  | RStatfs of (statfs_ok, status) result
  | RReadlink of (string, status) result
  | RWrite3 of (fattr * stable_how * int, status) result
  | RCommit of (fattr * int, status) result

let put_status enc st = Xdr.Enc.enum enc (status_to_int st)
let get_status dec = status_of_int (Xdr.Dec.enum dec)

let put_res enc = function
  | RNull -> ()
  | RStatus st -> put_status enc st
  | RAttr (Ok a) ->
      put_status enc NFS_OK;
      put_fattr enc a
  | RAttr (Error st) -> put_status enc st
  | RDirop (Ok (fh, a)) ->
      put_status enc NFS_OK;
      put_fh enc fh;
      put_fattr enc a
  | RDirop (Error st) -> put_status enc st
  | RRead (Ok (a, data)) ->
      put_status enc NFS_OK;
      put_fattr enc a;
      Xdr.Enc.opaque_view enc data
  | RRead (Error st) -> put_status enc st
  | RReaddir (Ok (entries, eof)) ->
      put_status enc NFS_OK;
      List.iteri
        (fun i (name, fileid) ->
          (* value_follows marker, entry, cookie *)
          Xdr.Enc.bool enc true;
          Xdr.Enc.uint32 enc fileid;
          Xdr.Enc.string enc name;
          Xdr.Enc.uint32 enc (i + 1))
        entries;
      Xdr.Enc.bool enc false;
      Xdr.Enc.bool enc eof
  | RReaddir (Error st) -> put_status enc st
  | RStatfs (Ok s) ->
      put_status enc NFS_OK;
      Xdr.Enc.uint32 enc s.tsize;
      Xdr.Enc.uint32 enc s.bsize;
      Xdr.Enc.uint32 enc s.blocks;
      Xdr.Enc.uint32 enc s.bfree;
      Xdr.Enc.uint32 enc s.bavail
  | RStatfs (Error st) -> put_status enc st
  | RReadlink (Ok target) ->
      put_status enc NFS_OK;
      Xdr.Enc.string enc target
  | RReadlink (Error st) -> put_status enc st
  | RWrite3 (Ok (a, stable, verf)) ->
      put_status enc NFS_OK;
      put_fattr enc a;
      Xdr.Enc.enum enc (stable_to_int stable);
      Xdr.Enc.uint64 enc verf
  | RWrite3 (Error st) -> put_status enc st
  | RCommit (Ok (a, verf)) ->
      put_status enc NFS_OK;
      put_fattr enc a;
      Xdr.Enc.uint64 enc verf
  | RCommit (Error st) -> put_status enc st

let encode_res res = Xdr.Enc.encode (fun enc -> put_res enc res)

(* {1 The procedure table}

   One row per procedure number, as the reference port keeps one
   dispatch entry per procedure, built once at initialisation. Each
   decoder reads its fields in [let]s, in wire order: OCaml does not
   fix the evaluation order of a constructor's arguments. *)

type shape =
  | SNull | SAttr | SDirop | SRead | SStatus | SReaddir | SStatfs | SReadlink | SWrite3 | SCommit

type proc = {
  num : int;
  name : string;
  mutates : bool;
  klass : Rpc_client.op_class;
  decode : Xdr.Dec.t -> args;
  shape : shape;
}

let procs =
  let open Rpc_client in
  [
    { num = proc_null; name = "NULL"; mutates = false; klass = Light; shape = SNull;
      decode = (fun _ -> Null) };
    { num = proc_getattr; name = "GETATTR"; mutates = false; klass = Light; shape = SAttr;
      decode = (fun dec -> Getattr (get_fh dec)) };
    { num = proc_setattr; name = "SETATTR"; mutates = true; klass = Light; shape = SAttr;
      decode =
        (fun dec ->
          let fh = get_fh dec in
          Setattr (fh, get_sattr dec)) };
    { num = proc_lookup; name = "LOOKUP"; mutates = false; klass = Light; shape = SDirop;
      decode =
        (fun dec ->
          let fh = get_fh dec in
          Lookup (fh, get_name dec)) };
    { num = proc_readlink; name = "READLINK"; mutates = false; klass = Light; shape = SReadlink;
      decode = (fun dec -> Readlink (get_fh dec)) };
    { num = proc_read; name = "READ"; mutates = false; klass = Middle; shape = SRead;
      decode =
        (fun dec ->
          let fh = get_fh dec in
          let offset = Xdr.Dec.uint32 dec in
          let count = Xdr.Dec.uint32 dec in
          let _total = Xdr.Dec.uint32 dec in
          Read { fh; offset; count }) };
    { num = proc_write3; name = "WRITE3"; mutates = true; klass = Heavy; shape = SWrite3;
      decode =
        (fun dec ->
          let fh = get_fh dec in
          let offset = Xdr.Dec.uint64 dec in
          let _count = Xdr.Dec.uint32 dec in
          let stable = stable_of_int (Xdr.Dec.enum dec) in
          Write3 { fh; offset; stable; data = Xdr.Dec.opaque_view dec }) };
    { num = proc_write; name = "WRITE"; mutates = true; klass = Heavy; shape = SAttr;
      decode =
        (fun dec ->
          let fh = get_fh dec in
          let _begin = Xdr.Dec.uint32 dec in
          let offset = Xdr.Dec.uint32 dec in
          let _total = Xdr.Dec.uint32 dec in
          Write { fh; offset; data = Xdr.Dec.opaque_view dec }) };
    { num = proc_create; name = "CREATE"; mutates = true; klass = Middle; shape = SDirop;
      decode =
        (fun dec ->
          let dir = get_fh dec in
          let name = get_name dec in
          let sattr = get_sattr dec in
          Create { dir; name; sattr }) };
    { num = proc_remove; name = "REMOVE"; mutates = true; klass = Middle; shape = SStatus;
      decode =
        (fun dec ->
          let dir = get_fh dec in
          Remove { dir; name = get_name dec }) };
    { num = proc_rename; name = "RENAME"; mutates = true; klass = Middle; shape = SStatus;
      decode =
        (fun dec ->
          let from_dir = get_fh dec in
          let from_name = get_name dec in
          let to_dir = get_fh dec in
          let to_name = get_name dec in
          Rename { from_dir; from_name; to_dir; to_name }) };
    { num = proc_symlink; name = "SYMLINK"; mutates = true; klass = Middle; shape = SDirop;
      decode =
        (fun dec ->
          let dir = get_fh dec in
          let name = get_name dec in
          let target = Xdr.Dec.string dec in
          Symlink { dir; name; target; sattr = get_sattr dec }) };
    { num = proc_mkdir; name = "MKDIR"; mutates = true; klass = Middle; shape = SDirop;
      decode =
        (fun dec ->
          let dir = get_fh dec in
          let name = get_name dec in
          let sattr = get_sattr dec in
          Mkdir { dir; name; sattr }) };
    { num = proc_rmdir; name = "RMDIR"; mutates = true; klass = Middle; shape = SStatus;
      decode =
        (fun dec ->
          let dir = get_fh dec in
          Rmdir { dir; name = get_name dec }) };
    { num = proc_readdir; name = "READDIR"; mutates = false; klass = Light; shape = SReaddir;
      decode =
        (fun dec ->
          let fh = get_fh dec in
          let cookie = Xdr.Dec.uint32 dec in
          let count = Xdr.Dec.uint32 dec in
          Readdir { fh; cookie; count }) };
    { num = proc_statfs; name = "STATFS"; mutates = false; klass = Light; shape = SStatfs;
      decode = (fun dec -> Statfs (get_fh dec)) };
    { num = proc_commit; name = "COMMIT"; mutates = true; klass = Heavy; shape = SCommit;
      decode =
        (fun dec ->
          let fh = get_fh dec in
          let offset = Xdr.Dec.uint64 dec in
          let count = Xdr.Dec.uint32 dec in
          Commit { fh; offset; count }) };
  ]

let proc_limit = List.fold_left (fun n p -> max n (p.num + 1)) 0 procs

(* Indexed by procedure number; written only here. *)
let table =
  Array.of_list (List.init proc_limit (fun n -> List.find_opt (fun p -> p.num = n) procs))

let find_proc n = if n >= 0 && n < proc_limit then table.(n) else None

let known n =
  match find_proc n with
  | Some p -> p
  | None -> Xdr.malformed (Printf.sprintf "unknown procedure %d" n)

let proc_name n = match find_proc n with Some p -> p.name | None -> Printf.sprintf "PROC%d" n
let mutates n = match find_proc n with Some p -> p.mutates | None -> false
let op_class n = match find_proc n with Some p -> p.klass | None -> Rpc_client.Middle
let decode_args ~proc body = (known proc).decode (Xdr.Dec.of_view body)

let error_of_shape shape st =
  match shape with
  | SNull | SStatus -> RStatus st
  | SAttr -> RAttr (Error st)
  | SDirop -> RDirop (Error st)
  | SRead -> RRead (Error st)
  | SReaddir -> RReaddir (Error st)
  | SStatfs -> RStatfs (Error st)
  | SReadlink -> RReadlink (Error st)
  | SWrite3 -> RWrite3 (Error st)
  | SCommit -> RCommit (Error st)

let error_res ~proc st =
  error_of_shape (match find_proc proc with Some p -> p.shape | None -> SStatus) st

(* The body of a result whose status was NFS_OK. *)
let get_ok dec = function
  | SNull -> RNull
  | SStatus -> RStatus NFS_OK
  | SAttr -> RAttr (Ok (get_fattr dec))
  | SDirop ->
      let fh = get_fh dec in
      RDirop (Ok (fh, get_fattr dec))
  | SRead ->
      let a = get_fattr dec in
      RRead (Ok (a, Xdr.Dec.opaque_view dec))
  | SReaddir ->
      let rec entries acc =
        if Xdr.Dec.bool dec then begin
          let fileid = Xdr.Dec.uint32 dec in
          let name = Xdr.Dec.string dec in
          let _cookie = Xdr.Dec.uint32 dec in
          entries ((name, fileid) :: acc)
        end
        else List.rev acc
      in
      let es = entries [] in
      RReaddir (Ok (es, Xdr.Dec.bool dec))
  | SStatfs ->
      let tsize = Xdr.Dec.uint32 dec in
      let bsize = Xdr.Dec.uint32 dec in
      let blocks = Xdr.Dec.uint32 dec in
      let bfree = Xdr.Dec.uint32 dec in
      let bavail = Xdr.Dec.uint32 dec in
      RStatfs (Ok { tsize; bsize; blocks; bfree; bavail })
  | SReadlink -> RReadlink (Ok (Xdr.Dec.string dec))
  | SWrite3 ->
      let a = get_fattr dec in
      let stable = stable_of_int (Xdr.Dec.enum dec) in
      let verf = Xdr.Dec.uint64 dec in
      RWrite3 (Ok (a, stable, verf))
  | SCommit ->
      let a = get_fattr dec in
      RCommit (Ok (a, Xdr.Dec.uint64 dec))

let decode_res ~proc body =
  let shape = (known proc).shape in
  let dec = Xdr.Dec.of_view body in
  match shape with
  | SNull -> RNull
  | _ -> ( match get_status dec with NFS_OK -> get_ok dec shape | st -> error_of_shape shape st)

(* {1 Mount protocol (mini)} *)

(* A toy MOUNT (program 100005) with the single MNT procedure: export
   name in, root filehandle out. Real clients walk /etc/exports; ours
   just need a way to ask for a volume by name instead of baking the
   fsid into the bootstrap handle. *)

let proc_mnt = 1

let put_mnt_args enc name = Xdr.Enc.string enc name
let decode_mnt_args body = Xdr.Dec.string (Xdr.Dec.of_view body)

(* A successful MNT reply carries the root filehandle plus the
   export's read-only flag — the "exported ro" bit a diskless client
   wants before it tries to write its root. *)
let put_mnt_res enc = function
  | Ok (fh, read_only) ->
      put_status enc NFS_OK;
      put_fh enc fh;
      Xdr.Enc.bool enc read_only
  | Error st -> put_status enc st

let decode_mnt_res body =
  let dec = Xdr.Dec.of_view body in
  match get_status dec with
  | NFS_OK ->
      let fh = get_fh dec in
      let read_only = Xdr.Dec.bool dec in
      Ok (fh, read_only)
  | st -> Error st

(* {1 Scanning} *)

let peek_write datagram =
  match Nfsg_rpc.Rpc.peek_call datagram with
  | Some call
    when call.Nfsg_rpc.Rpc.prog = Nfsg_rpc.Rpc.nfs_program
         && call.Nfsg_rpc.Rpc.proc = proc_write -> (
      match decode_args ~proc:proc_write call.Nfsg_rpc.Rpc.body with
      | Write { fh; offset; data } -> Some (fh, offset, Xdr.view_length data)
      | _ | (exception Xdr.Decode_error _) -> None)
  | Some _ | None -> None
