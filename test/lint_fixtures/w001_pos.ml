(* W001 positive: an experiment assembling its own world beside Rig. *)
module Server = Nfsg_core.Server

let build params device config =
  let eng = Nfsg_sim.Engine.create () in
  let segment = Nfsg_net.Segment.create eng params in
  let one = Server.make eng ~segment ~addr:"a" ~device config in
  let many = Server.make_exports eng ~segment ~addr:"b" config [] in
  (one, many)
