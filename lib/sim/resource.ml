type t = {
  eng : Engine.t;
  capacity : int;
  mutable in_service : int;
  mutable busy : Time.t;
  mutable jobs : int;
  waiting : Engine.proc Queue.t;
}

let create eng ?(capacity = 1) name =
  if capacity <= 0 then invalid_arg (name ^ ": capacity must be positive");
  { eng; capacity; in_service = 0; busy = Time.zero; jobs = 0; waiting = Queue.create () }

let busy_time r = r.busy
let jobs r = r.jobs

let acquire r =
  if r.in_service < r.capacity then r.in_service <- r.in_service + 1
  else begin
    (* The releaser keeps the slot count up across the hand-off. *)
    Queue.add (Engine.self ()) r.waiting;
    Engine.park ()
  end

let release r =
  if Queue.is_empty r.waiting then r.in_service <- r.in_service - 1
  else Engine.unpark (Queue.take r.waiting) (* slot passes directly to the next waiter *)

let charge r d = r.busy <- r.busy + d

let use r d =
  acquire r;
  Engine.delay d;
  r.busy <- r.busy + d;
  r.jobs <- r.jobs + 1;
  release r

let utilization r ~busy0 ~t0 =
  let elapsed = Engine.now r.eng - t0 in
  if elapsed <= 0 then 0.0
  else float_of_int (r.busy - busy0) /. float_of_int (elapsed * r.capacity)
