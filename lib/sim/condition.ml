type waiter = { mutable wake : bool -> unit; mutable live : bool }

type t = { q : waiter Queue.t }

let create () = { q = Queue.create () }
let wait c =
  Engine.suspend (fun wake ->
      Queue.add { wake = (fun _ -> wake ()); live = true } c.q)

let wait_timeout eng c d =
  Engine.suspend (fun wake ->
      let w = { wake; live = true } in
      let tm =
        Engine.timer eng ~after:d (fun () ->
            if w.live then begin
              w.live <- false;
              wake false
            end)
      in
      (* A later signal must also cancel the pending timeout. *)
      w.wake <-
        (fun signalled ->
          ignore (Engine.cancel tm);
          wake signalled);
      Queue.add w c.q)

let rec signal c =
  match Queue.take_opt c.q with
  | None -> ()
  | Some w ->
      if w.live then begin
        w.live <- false;
        w.wake true
      end
      else signal c

let broadcast c =
  let rec drain () =
    match Queue.take_opt c.q with
    | None -> ()
    | Some w ->
        if w.live then begin
          w.live <- false;
          w.wake true
        end;
        drain ()
  in
  drain ()
