(* Reference model for Nfsg_sim.Heap: the event queue as it was before
   its entries became removable. Sifts swap whole entries, payloads
   included, and nothing can leave except through a pop, so the engine
   had to leave a cancelled timer queued until its instant. test_heap
   checks the real heap against it on random add/pop/remove traces,
   replaying a removal here by skipping the entry when it surfaces. *)

(* Flat-array binary min-heap: keys and seqs live in unboxed int
   arrays and payloads in a parallel ['a array], so add/pop allocate
   nothing once capacity is reached and sifting never matches on an
   option. [vals] stays physically empty until the first [add] hands
   us a value to use as array filler; thereafter freed slots are
   overwritten with [vals.(0)], so the heap retains at most one
   already-popped payload (the one parked in slot 0 of an emptied
   heap). *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let initial_capacity = 16

let create () =
  {
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    vals = [||];
    len = 0;
  }

let size h = h.len
let is_empty h = h.len = 0

let less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let grow h =
  let cap = 2 * Array.length h.keys in
  let keys = Array.make cap 0 in
  Array.blit h.keys 0 keys 0 h.len;
  h.keys <- keys;
  let seqs = Array.make cap 0 in
  Array.blit h.seqs 0 seqs 0 h.len;
  h.seqs <- seqs;
  let vals = Array.make cap h.vals.(0) in
  Array.blit h.vals 0 vals 0 h.len;
  h.vals <- vals

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && less h l !smallest then smallest := l;
  if r < h.len && less h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let add h ~key ~seq v =
  if Array.length h.vals = 0 then h.vals <- Array.make (Array.length h.keys) v;
  if h.len = Array.length h.keys then grow h;
  h.keys.(h.len) <- key;
  h.seqs.(h.len) <- seq;
  h.vals.(h.len) <- v;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let peek h = if h.len = 0 then None else Some (h.keys.(0), h.seqs.(0), h.vals.(0))

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let v = h.vals.(0) in
  h.len <- h.len - 1;
  let last = h.len in
  h.keys.(0) <- h.keys.(last);
  h.seqs.(0) <- h.seqs.(last);
  h.vals.(0) <- h.vals.(last);
  (* Drop the stale duplicate in the vacated slot so popped payloads
     are not kept alive; slot 0 keeps the moved (still live) value. *)
  h.vals.(last) <- h.vals.(0);
  if h.len > 0 then sift_down h 0;
  v

let pop h =
  if h.len = 0 then None
  else begin
    let key = h.keys.(0) and seq = h.seqs.(0) in
    let v = pop_min h in
    Some (key, seq, v)
  end

let clear h =
  (* Only the live prefix needs scrubbing, not the whole capacity. *)
  if h.len > 0 then Array.fill h.vals 0 h.len h.vals.(0);
  h.len <- 0
