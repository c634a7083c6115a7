open Nfsg_sim

type counter = int ref
type gauge = float ref
type peak = float ref

type instrument = Counter of counter | Gauge of gauge | Peak of peak | Hist of Histogram.t

type t = { table : (string * string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Peak _ -> "peak"
  | Hist _ -> "histogram"

let register t ~ns name make =
  let key = (ns, name) in
  match Hashtbl.find_opt t.table key with
  | Some existing -> existing
  | None ->
      let i = make () in
      Hashtbl.replace t.table key i;
      i

let mismatch ~ns name ~want got =
  invalid_arg
    (Printf.sprintf "Metrics: %s/%s already registered as a %s, wanted a %s" ns name
       (kind_name got) want)

(* Registration is find-or-create: a server that crashes and restarts
   within its world re-registers its instruments and keeps counting
   where it left off. Worlds never share a registry; a sink collects
   them with [merge_into]. *)
let counter t ~ns name =
  match register t ~ns name (fun () -> Counter (ref 0)) with
  | Counter c -> c
  | other -> mismatch ~ns name ~want:"counter" other

let gauge t ~ns name =
  match register t ~ns name (fun () -> Gauge (ref 0.0)) with
  | Gauge g -> g
  | other -> mismatch ~ns name ~want:"gauge" other

let peak t ~ns name =
  match register t ~ns name (fun () -> Peak (ref 0.0)) with
  | Peak p -> p
  | other -> mismatch ~ns name ~want:"peak" other

let histogram t ~ns ?least ?growth ?buckets name =
  match register t ~ns name (fun () -> Hist (Histogram.create ?least ?growth ?buckets ())) with
  | Hist h -> h
  | other -> mismatch ~ns name ~want:"histogram" other

let incr c = Stdlib.incr c
let add c n = c := !c + n
let value c = !c
let set g v = g := v
let set_max g v = if v > !g then g := v

let find t ~ns name = Hashtbl.find_opt t.table (ns, name)
let find_counter t ~ns name = match find t ~ns name with Some (Counter c) -> Some !c | _ -> None
let find_gauge t ~ns name =
  match find t ~ns name with Some (Gauge g | Peak g) -> Some !g | _ -> None
let find_histogram t ~ns name = match find t ~ns name with Some (Hist h) -> Some h | _ -> None
let count t ~ns name = Option.value ~default:0 (find_counter t ~ns name)
let stat t ~ns name f = match find_histogram t ~ns name with Some h -> f h | None -> 0.0

(* Folded in key order, so no hash order can reach [into]. *)
let merge_into ~into src =
  Hashtbl.fold (fun key i acc -> (key, i) :: acc) src.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun ((ns, name), i) ->
         match (i, find into ~ns name) with
         | Counter c, _ -> add (counter into ~ns name) !c
         | Gauge g, _ -> set (gauge into ~ns name) !g
         | Peak p, _ -> set_max (peak into ~ns name) !p
         | Hist h, None -> Hashtbl.replace into.table (ns, name) (Hist (Histogram.copy h))
         | Hist h, Some (Hist dst) -> Histogram.merge_into ~into:dst h
         | Hist _, Some other -> mismatch ~ns name ~want:"histogram" other)

(* Span timing on the simulation clock: the elapsed virtual time of [f]
   (including everything it blocked on) lands in [h], in microseconds. *)
let span eng h f =
  let t0 = Engine.now eng in
  let finish () = Histogram.add h (Time.to_us_f (Engine.now eng - t0)) in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let namespaces t =
  Hashtbl.fold (fun (ns, _) _ acc -> if List.mem ns acc then acc else ns :: acc) t.table []
  |> List.sort compare

let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("total", Json.Float (Histogram.total h));
      ("mean", Json.Float (Histogram.mean h));
      ("p50", Json.Float (Histogram.median h));
      ("p99", Json.Float (Histogram.p99 h));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) -> Json.List [ Json.Float lo; Json.Float hi; Json.Int c ])
             (Histogram.buckets h)) );
    ]

(* Deterministic: namespaces and instrument names are emitted sorted,
   never in Hashtbl order. *)
let to_json t =
  let ns_json ns =
    let collect pick =
      Hashtbl.fold
        (fun (n, name) i acc -> if n = ns then match pick i with Some v -> (name, v) :: acc | None -> acc else acc)
        t.table []
      |> List.sort compare
    in
    let counters = collect (function Counter c -> Some (Json.Int !c) | _ -> None) in
    let gauges = collect (function Gauge g | Peak g -> Some (Json.Float !g) | _ -> None) in
    let hists = collect (function Hist h -> Some (histogram_json h) | _ -> None) in
    let section name fields = if fields = [] then [] else [ (name, Json.Obj fields) ] in
    Json.Obj (section "counters" counters @ section "gauges" gauges @ section "histograms" hists)
  in
  Json.Obj
    [
      ("schema", Json.String "nfsgather-metrics/1");
      ("namespaces", Json.Obj (List.map (fun ns -> (ns, ns_json ns)) (namespaces t)));
    ]

let to_string ?pretty t = Json.to_string ?pretty (to_json t)
