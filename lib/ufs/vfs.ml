type vnode = { fs : Fs.t; ino : Fs.inode }

type io_flag = IO_SYNC | IO_DATAONLY | IO_DELAYDATA
type fsync_flag = FWRITE | FWRITE_METADATA

let vnode_of_inode fs ino = { fs; ino }
let fs_of v = v.fs
let inode_of v = v.ino
let vnode_id v = Fs.inum v.ino
let lock v = Nfsg_sim.Mutex.lock (Fs.lock_of v.ino)
let unlock v = Nfsg_sim.Mutex.unlock (Fs.lock_of v.ino)
let with_lock v f = Nfsg_sim.Mutex.with_lock (Fs.lock_of v.ino) f
let locked v = Nfsg_sim.Mutex.locked (Fs.lock_of v.ino)
let contenders v = Nfsg_sim.Mutex.contenders (Fs.lock_of v.ino)
let accelerated v = (Fs.device v.fs).Nfsg_disk.Device.accelerated ()
let vop_getattr v = Fs.getattr v.ino
let vop_read_ahead v ~stream ~off ~len = Fs.read_ahead v.fs v.ino ~stream ~off ~len

let mode_of_flags flags =
  let has f = List.mem f flags in
  match (has IO_SYNC, has IO_DATAONLY, has IO_DELAYDATA) with
  | true, true, false -> Fs.Sync_data_only
  | true, false, false -> Fs.Sync
  | false, false, true -> Fs.Delay_data
  | _ -> invalid_arg "Vfs.vop_write: unsupported flag combination"

let vop_write v ~off data ~flags = Fs.write_view v.fs v.ino ~off data ~mode:(mode_of_flags flags)

let vop_fsync v ~flags =
  if List.mem FWRITE_METADATA flags then Fs.fsync_metadata v.fs v.ino
  else Fs.fsync v.fs v.ino

let vop_syncdata v ~off ~len = Fs.syncdata v.fs v.ino ~off ~len
let vop_commit_begin v ~off ~len = Fs.commit_range_begin v.fs v.ino ~off ~len
let vop_lookup v name = { fs = v.fs; ino = Fs.lookup v.fs v.ino name }
let vop_create v name ftype = { fs = v.fs; ino = Fs.create v.fs v.ino name ftype }
let vop_remove v name = Fs.remove v.fs v.ino name
let vop_mkdir v name = { fs = v.fs; ino = Fs.create v.fs v.ino name Layout.Directory }
let vop_rmdir v name = Fs.rmdir v.fs v.ino name

let vop_rename v ~src ~dst_dir ~dst =
  Fs.rename v.fs ~src_dir:v.ino ~src ~dst_dir:dst_dir.ino ~dst

let vop_readdir v = Fs.readdir v.fs v.ino
let vop_symlink v name ~target = { fs = v.fs; ino = Fs.symlink v.fs v.ino name ~target }
let vop_readlink v = Fs.readlink v.fs v.ino
let vop_truncate v size = Fs.truncate v.fs v.ino size
let vop_touch v ~mtime = Fs.touch v.fs v.ino ~mtime
