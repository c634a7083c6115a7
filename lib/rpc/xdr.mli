(** XDR (RFC 1014) serialisation: the wire encoding under SunRPC and
    NFS. Everything is big-endian and padded to 4-byte alignment. *)

type failure =
  | Truncated of { what : string; need : int; pos : int; have : int }
      (** decoding a [what] needed [need] more bytes at cursor [pos] of a
          [have]-byte window *)
  | Malformed of string  (** bad enum value, framing that is not a call, ... *)

exception Decode_error of failure
(** The one decode failure. A request body that raises it is garbage
    arguments — {!Nfsg_rpc.Svc} maps it to a [Garbage_args] reply
    rather than [System_err] — so a caller catches this one name. *)

val malformed : string -> 'a
(** [malformed why] raises [Decode_error (Malformed why)]. *)

type view = { view_buf : Bytes.t; view_pos : int; view_len : int }
(** A zero-copy [pos]/[len] window into someone else's buffer. Decoded
    opaques and RPC bodies are views into the datagram they arrived
    in: valid exactly as long as that buffer is, which in the simulator
    means until the owner reuses it. Call {!view_copy} at the single
    point where the bytes must outlive the datagram (e.g. entering the
    buffer cache); everywhere else, pass the view. *)

val view_of_bytes : ?pos:int -> ?len:int -> Bytes.t -> view
(** [view_of_bytes b] views all of [b]; [pos]/[len] narrow the window.
    Raises [Invalid_argument] if the window overruns [b]. *)

val empty_view : view

val view_length : view -> int

val view_copy : view -> Bytes.t
(** Materialise the window as fresh bytes the caller owns. *)

val view_to_string : view -> string

val blit_view : view -> src_off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** Copy [len] bytes starting at window-relative [src_off] into [dst].
    The escape hatch for cache fills; bounds-checked against the
    window. *)

val view_equal : view -> view -> bool
(** Content equality. Structural ([=]) equality on views compares the
    whole backing buffers and window offsets, which is almost never
    what a test means. *)

module Enc : sig
  type t
  (** Writes each field in place into one buffer. *)

  val encode : ?buffer:(int -> Bytes.t) -> (t -> unit) -> Bytes.t
  (** [encode put] runs [put] once to size the message and once to fill
      it: one exactly sized buffer, returned without a copy. [put] must
      write the same fields both times ([Invalid_argument] otherwise).

      [buffer n] supplies the buffer for an [n]-byte message (a fresh
      [Bytes.create n] by default), so a caller can encode into a
      buffer it already owns. Every byte of it is written, padding
      included, so what it held before never shows. It must be exactly
      [n] bytes long, since a datagram's length sets its wire time
      ([Invalid_argument] otherwise). *)

  val uint32 : t -> int -> unit
  (** Raises [Invalid_argument] outside [0, 2^32). *)

  val int32 : t -> int -> unit
  val uint64 : t -> int -> unit
  val bool : t -> bool -> unit
  val enum : t -> int -> unit

  val word : t -> int -> unit
  (** The low 32 bits of an int, unchecked: for opaque words such as
      filehandle fields. *)

  val zeros : t -> int -> unit
  (** [n] zero bytes. *)

  val opaque : t -> Bytes.t -> unit
  (** Variable-length opaque: length prefix + padded bytes. *)

  val opaque_view : t -> view -> unit
  (** {!opaque}, straight out of a view without an intermediate copy. *)

  val string : t -> string -> unit

  val raw : t -> Bytes.t -> unit
  (** Append bytes verbatim, no padding — for embedding an
      already-encoded XDR body whose length is known to the framing. *)

  val raw_view : t -> view -> unit
  (** {!raw} from a view, copying only into the output buffer. *)
end

module Dec : sig
  type t

  val of_bytes : ?pos:int -> Bytes.t -> t

  val of_view : view -> t
  (** Decode within the window only: reads past [view_len] raise
      {!Decode_error} even if the backing buffer continues, so a
      truncated view cannot silently leak bytes from its neighbours. *)

  val uint32 : t -> int
  val int32 : t -> int
  val uint64 : t -> int
  val bool : t -> bool
  val enum : t -> int
  val opaque_fixed : t -> int -> Bytes.t
  val opaque : t -> Bytes.t

  val opaque_fixed_view : t -> int -> view
  (** Zero-copy {!opaque_fixed}: a window into the decoder's buffer. *)

  val opaque_view : t -> view
  (** Zero-copy {!opaque}: length-prefixed window, no allocation
      proportional to the payload. *)

  val string : t -> string

  val rest : t -> Bytes.t
  (** [rest t] is everything from the cursor to the end, verbatim (no
      padding rules) — the body of an RPC message. *)

  val rest_view : t -> view
  (** Zero-copy {!rest}. *)

  val pos : t -> int
  val remaining : t -> int
end
