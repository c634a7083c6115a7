type 'a waiter = Reader of Engine.proc | Callback of ('a -> unit)
type 'a state = Empty of 'a waiter list | Filled of 'a
type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill iv v =
  match iv.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      iv.state <- Filled v;
      (* Wake in arrival order. *)
      List.iter (function Reader p -> Engine.unpark p | Callback f -> f v) (List.rev waiters)

let read iv =
  match iv.state with
  | Filled v -> v
  | Empty waiters -> (
      iv.state <- Empty (Reader (Engine.self ()) :: waiters);
      Engine.park ();
      match iv.state with Filled v -> v | Empty _ -> assert false)

let upon iv f =
  match iv.state with
  | Filled v -> f v
  | Empty waiters -> iv.state <- Empty (Callback f :: waiters)

let is_filled iv = match iv.state with Filled _ -> true | Empty _ -> false
