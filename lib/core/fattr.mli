(** NFS file attributes of an inode: the one mapping from UFS inode
    attributes to the wire [fattr], shared by the dispatcher's replies
    and the write layer's deferred ones. *)

val of_inode : Nfsg_ufs.Fs.t -> fsid:int -> Nfsg_ufs.Fs.inode -> Nfsg_nfs.Proto.fattr
(** [fsid] is the volume the inode was routed through; block counts use
    the filesystem's block size. *)
