(* The one place the lock-discipline lives: every scoped critical
   section in the tree funnels through [run], so releasing on the
   value path and on every exception path is implemented (and
   reviewed) exactly once. The nfsrace checker treats the wrappers
   built on top of this ([Mutex.with_lock], [Fs.with_lock],
   [Stripe.with_rows]) as its scoped-lock idiom. *)

let run ~acquire ~release f =
  acquire ();
  match f () with
  | v ->
      release ();
      v
  | exception e ->
      release ();
      raise e
