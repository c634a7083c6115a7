(** Nothing to reset between simulated worlds.

    A world owns its state (the write verifier is the server's
    incarnation number; {!Engine.run} clears the running process's
    name whenever it returns), and experiments take their
    configuration as values, so no process-global state carries from
    one world to the next. *)

val run_all : unit -> unit
(** Does nothing. It exists only because the benchmark harness under
    [perfbench/] calls it before building each world; it goes when
    that call does. *)
