(* W001 suppressed: a unit-level probe that needs a bare engine. *)
let bare_engine () =
  (* nfslint: allow W001 fixture: the probe runs no world, only the event queue *)
  Nfsg_sim.Engine.create ()
