let pad4 n = (4 - (n mod 4)) mod 4

type failure =
  | Truncated of { what : string; need : int; pos : int; have : int }
  | Malformed of string

exception Decode_error of failure

let () =
  Printexc.register_printer (function
    | Decode_error (Truncated { what; need; pos; have }) ->
        Some
          (Printf.sprintf "Xdr.Decode_error: truncated %s: need %d at %d of %d" what need pos have)
    | Decode_error (Malformed why) -> Some ("Xdr.Decode_error: " ^ why)
    | _ -> None)

let malformed why = raise (Decode_error (Malformed why))

(* An offset/length window into a buffer someone else owns. Views are
   how decoded opaques and RPC bodies travel through the stack without
   being copied at every hop; the copy happens exactly once, where the
   bytes escape into storage that outlives the datagram. *)
type view = { view_buf : Bytes.t; view_pos : int; view_len : int }

let view_of_bytes ?(pos = 0) ?len buf =
  let len = match len with Some n -> n | None -> Bytes.length buf - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Xdr.view_of_bytes: window [%d,+%d) outside %d-byte buffer" pos len
         (Bytes.length buf));
  { view_buf = buf; view_pos = pos; view_len = len }

let empty_view = { view_buf = Bytes.create 0; view_pos = 0; view_len = 0 }
let view_length v = v.view_len
let view_copy v = Bytes.sub v.view_buf v.view_pos v.view_len
let view_to_string v = Bytes.sub_string v.view_buf v.view_pos v.view_len
let blit_view v ~src_off ~dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > v.view_len then
    invalid_arg "Xdr.blit_view: range outside view";
  Bytes.blit v.view_buf (v.view_pos + src_off) dst dst_off len

let view_equal a b =
  a.view_len = b.view_len
  &&
  let rec eq i =
    i >= a.view_len
    || Bytes.get a.view_buf (a.view_pos + i) = Bytes.get b.view_buf (b.view_pos + i) && eq (i + 1)
  in
  eq 0

module Enc = struct
  (* Fields are written in place at [pos]. A counting encoder only
     advances [pos]: running the writer through one first gives the
     message's exact size, so [encode] allocates the message once and
     returns that buffer as it is. *)
  type t = { buf : Bytes.t; mutable pos : int; counting : bool }

  let write t = not t.counting

  let word t v =
    if write t then Bytes.set_int32_be t.buf t.pos (Int32.of_int v);
    t.pos <- t.pos + 4

  let uint32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg (Printf.sprintf "Xdr.uint32: %d" v);
    word t v

  let int32 t v =
    if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
      invalid_arg (Printf.sprintf "Xdr.int32: %d" v);
    word t v

  let uint64 t v =
    if v < 0 then invalid_arg (Printf.sprintf "Xdr.uint64: %d" v);
    if write t then Bytes.set_int64_be t.buf t.pos (Int64.of_int v);
    t.pos <- t.pos + 8

  let bool t v = uint32 t (if v then 1 else 0)
  let enum t v = int32 t v

  let zeros t n =
    if write t then Bytes.fill t.buf t.pos n '\000';
    t.pos <- t.pos + n

  let raw_sub t src off len =
    if write t then Bytes.blit src off t.buf t.pos len;
    t.pos <- t.pos + len

  let raw t data = raw_sub t data 0 (Bytes.length data)
  let raw_view t v = raw_sub t v.view_buf v.view_pos v.view_len

  let opaque t data =
    uint32 t (Bytes.length data);
    raw t data;
    zeros t (pad4 (Bytes.length data))

  let string t s =
    let len = String.length s in
    uint32 t len;
    if write t then Bytes.blit_string s 0 t.buf t.pos len;
    t.pos <- t.pos + len;
    zeros t (pad4 len)

  let opaque_view t v =
    uint32 t v.view_len;
    raw_view t v;
    zeros t (pad4 v.view_len)

  let encode ?(buffer = Bytes.create) put =
    let sizing = { buf = Bytes.empty; pos = 0; counting = true } in
    put sizing;
    let buf = buffer sizing.pos in
    if Bytes.length buf <> sizing.pos then
      invalid_arg
        (Printf.sprintf "Xdr.Enc.encode: a %d-byte buffer for a %d-byte message" (Bytes.length buf)
           sizing.pos);
    let t = { buf; pos = 0; counting = false } in
    put t;
    if t.pos <> sizing.pos then invalid_arg "Xdr.Enc.encode: the two passes wrote different sizes";
    t.buf
end

module Dec = struct
  (* [limit] bounds the decodable window so a decoder over a view
     cannot read past the view's end even though the underlying buffer
     continues; truncation errors report positions relative to the
     window start ([base]). *)
  type t = { buf : Bytes.t; base : int; limit : int; mutable pos : int }

  let of_bytes ?(pos = 0) buf = { buf; base = 0; limit = Bytes.length buf; pos }

  let of_view v =
    { buf = v.view_buf; base = v.view_pos; limit = v.view_pos + v.view_len; pos = v.view_pos }

  let need t ~what n =
    if t.pos + n > t.limit then
      raise (Decode_error (Truncated { what; need = n; pos = t.pos - t.base; have = t.limit - t.base }))

  let uint32 t =
    need t ~what:"uint32" 4;
    let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let int32 t =
    need t ~what:"int32" 4;
    let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) in
    t.pos <- t.pos + 4;
    v

  let uint64 t =
    need t ~what:"uint64" 8;
    let v = Int64.to_int (Bytes.get_int64_be t.buf t.pos) in
    t.pos <- t.pos + 8;
    if v < 0 then malformed "uint64 overflow";
    v

  let bool t =
    match uint32 t with
    | 0 -> false
    | 1 -> true
    | n -> malformed (Printf.sprintf "bad bool %d" n)

  let enum t = int32 t

  let opaque_fixed_view t n =
    if n < 0 then malformed "negative opaque length";
    need t ~what:"opaque" (n + pad4 n);
    let v = { view_buf = t.buf; view_pos = t.pos; view_len = n } in
    t.pos <- t.pos + n + pad4 n;
    v

  let opaque_fixed t n = view_copy (opaque_fixed_view t n)

  let opaque_view t =
    let n = uint32 t in
    opaque_fixed_view t n

  let opaque t = view_copy (opaque_view t)
  let string t = view_to_string (opaque_view t)

  let rest_view t =
    let v = { view_buf = t.buf; view_pos = t.pos; view_len = t.limit - t.pos } in
    t.pos <- t.limit;
    v

  let rest t = view_copy (rest_view t)
  let pos t = t.pos - t.base
  let remaining t = t.limit - t.pos
end
