module Fs = Nfsg_ufs.Fs
module Layout = Nfsg_ufs.Layout
module Proto = Nfsg_nfs.Proto

let of_inode fs ~fsid ino =
  let a = Fs.getattr ino in
  let bsize = Fs.bsize fs in
  {
    Proto.ftype =
      (match a.Fs.ftype with
      | Layout.Regular -> Proto.NFREG
      | Layout.Directory -> Proto.NFDIR
      | Layout.Symlink -> Proto.NFLNK
      | Layout.Free -> Proto.NFNON);
    mode = 0o644;
    nlink = a.Fs.nlink;
    uid = 0;
    gid = 0;
    size = a.Fs.size;
    blocksize = bsize;
    rdev = 0;
    blocks = (a.Fs.size + bsize - 1) / bsize;
    fsid;
    fileid = a.Fs.inum;
    atime = Proto.timeval_of_ns a.Fs.atime;
    mtime = Proto.timeval_of_ns a.Fs.mtime;
    ctime = Proto.timeval_of_ns a.Fs.ctime;
  }
