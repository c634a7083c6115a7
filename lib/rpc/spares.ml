type t = Bytes.t Stack.t

let create () = Stack.create ()
let length = Stack.length

(* A datagram over 256 words (2 KB on 64-bit) is allocated outside the
   minor heap, so reusing it saves a major allocation. A smaller one
   costs a bump of the minor heap, and keeping it would promote it. *)
let keeps datagram = Bytes.length datagram > 256 * (Sys.word_size / 8)

let take t n =
  if (not (Stack.is_empty t)) && Bytes.length (Stack.top t) = n then Stack.pop t else Bytes.create n

let give_back t datagram =
  if keeps datagram then begin
    if (not (Stack.is_empty t)) && Bytes.length (Stack.top t) <> Bytes.length datagram then
      Stack.clear t;
    Stack.push datagram t
  end
