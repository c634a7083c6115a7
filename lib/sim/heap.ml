(* Flat-array binary min-heap whose entries can be removed by handle.

   The heap proper is three int arrays indexed by heap position: the
   entry's key, its seq and the slot that holds its payload. A payload
   is written into [vals] once, when it is added, and overwritten with
   [dummy] when its entry leaves; sifting moves a hole through the int
   arrays and writes the moving entry once where it lands, so
   reordering the heap runs no write barrier. [pos] maps a live slot to
   its heap position, which is how [remove] finds an entry; a free slot
   instead holds the next free slot there, so the free list costs no
   extra array. [gens] counts how often each slot has been freed, and a
   handle carries the count it was issued under, so a handle to an
   entry that has already left the heap no longer matches its slot. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;
  mutable gens : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable free : int;  (** first free slot, or -1 when every slot is live *)
}

type handle = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let initial_capacity = 16

(* Chain slots [lo, hi) into the free list, ahead of [next]. *)
let chain_free pos ~lo ~hi ~next =
  for s = lo to hi - 2 do
    pos.(s) <- s + 1
  done;
  pos.(hi - 1) <- next

let create ~dummy =
  let cap = initial_capacity in
  let pos = Array.make cap 0 in
  chain_free pos ~lo:0 ~hi:cap ~next:(-1);
  {
    dummy;
    keys = Array.make cap 0;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    pos;
    gens = Array.make cap 0;
    vals = Array.make cap dummy;
    len = 0;
    free = 0;
  }

let size h = h.len
let is_empty h = h.len = 0

(* Only called with every slot live, so the new slots are all free. *)
let grow h =
  let cap = Array.length h.keys in
  if 2 * cap > slot_mask + 1 then failwith "Heap.add: too many entries";
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.keys <- extend h.keys 0;
  h.seqs <- extend h.seqs 0;
  h.slots <- extend h.slots 0;
  h.gens <- extend h.gens 0;
  h.vals <- extend h.vals h.dummy;
  h.pos <- extend h.pos 0;
  chain_free h.pos ~lo:cap ~hi:(2 * cap) ~next:(-1);
  h.free <- cap

(* Write entry (key, seq, slot) at heap position [i]. *)
let place h i ~key ~seq s =
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.slots.(i) <- s;
  h.pos.(s) <- i

(* Move the entry at [src] into the hole at [dst]. *)
let move h ~src ~dst = place h dst ~key:h.keys.(src) ~seq:h.seqs.(src) h.slots.(src)

(* (k1, s1) orders strictly before (k2, s2). *)
let lt (k1 : int) (s1 : int) k2 s2 = k1 < k2 || (k1 = k2 && s1 < s2)

(* Carry the hole at [i] up past every parent that (key, seq) orders
   before, then place the entry in it. *)
let rec sift_up h i ~key ~seq s =
  let parent = (i - 1) / 2 in
  if i > 0 && lt key seq h.keys.(parent) h.seqs.(parent) then begin
    move h ~src:parent ~dst:i;
    sift_up h parent ~key ~seq s
  end
  else place h i ~key ~seq s

(* Carry the hole at [i] down past every child that orders before
   (key, seq), smaller child first, then place the entry in it. *)
let rec sift_down h i ~key ~seq s =
  let l = (2 * i) + 1 in
  if l >= h.len then place h i ~key ~seq s
  else begin
    let r = l + 1 in
    let c = if r < h.len && lt h.keys.(r) h.seqs.(r) h.keys.(l) h.seqs.(l) then r else l in
    if lt h.keys.(c) h.seqs.(c) key seq then begin
      move h ~src:c ~dst:i;
      sift_down h c ~key ~seq s
    end
    else place h i ~key ~seq s
  end

(* The handle of slot [s]'s current entry. *)
let handle_of h s = (h.gens.(s) lsl slot_bits) lor s

let add h ~key ~seq v =
  if h.free < 0 then grow h;
  let s = h.free in
  h.free <- h.pos.(s);
  h.vals.(s) <- v;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) ~key ~seq s;
  handle_of h s

(* Retire slot [s]: drop its payload, invalidate its handles and put it
   on the free list. *)
let release h s =
  h.vals.(s) <- h.dummy;
  h.gens.(s) <- h.gens.(s) + 1;
  h.pos.(s) <- h.free;
  h.free <- s

(* Fill the hole left at heap position [i] with the last entry, which
   may belong above or below it. *)
let refill h i =
  h.len <- h.len - 1;
  let last = h.len in
  if i < last then begin
    let key = h.keys.(last) and seq = h.seqs.(last) and s = h.slots.(last) in
    let parent = (i - 1) / 2 in
    if i > 0 && lt key seq h.keys.(parent) h.seqs.(parent) then sift_up h i ~key ~seq s
    else sift_down h i ~key ~seq s
  end

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let s = h.slots.(0) in
  let v = h.vals.(s) in
  release h s;
  refill h 0;
  v

let pop h =
  if h.len = 0 then None
  else begin
    let key = h.keys.(0) and seq = h.seqs.(0) in
    let v = pop_min h in
    Some (key, seq, v)
  end

let remove h handle =
  let s = handle land slot_mask in
  if s >= Array.length h.gens || handle_of h s <> handle then false
  else begin
    let i = h.pos.(s) in
    release h s;
    refill h i;
    true
  end

let clear h =
  while h.len > 0 do
    h.len <- h.len - 1;
    release h h.slots.(h.len)
  done
