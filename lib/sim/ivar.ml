type 'a state = Empty of ('a -> unit) list | Filled of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill iv v =
  match iv.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      iv.state <- Filled v;
      (* Wake in arrival order. *)
      List.iter (fun wake -> wake v) (List.rev waiters)

let read iv =
  match iv.state with
  | Filled v -> v
  | Empty _ ->
      Engine.suspend (fun wake ->
          match iv.state with
          | Filled v -> wake v
          | Empty waiters -> iv.state <- Empty (wake :: waiters))

let upon iv f =
  match iv.state with
  | Filled v -> f v
  | Empty waiters -> iv.state <- Empty (f :: waiters)

let is_filled iv = match iv.state with Filled _ -> true | Empty _ -> false
