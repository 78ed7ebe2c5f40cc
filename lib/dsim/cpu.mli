(** Single-server FIFO processing model for a node's CPU.

    Every protocol operation charges a service cost; work queues behind
    earlier work, which is what makes node throughput saturate (and
    abort-induced wasted work cause thrashing) at high client counts,
    as in the paper's EC2 deployment. *)

type t

val create : Sim.t -> t

(** [exec t ~cost k] enqueues [cost] microseconds of work; [k] runs when
    the work completes.  Zero-cost work is scheduled immediately but
    still via the event queue. *)
val exec : t -> cost:int -> (unit -> unit) -> unit

(** [book t ~cost] enqueues [cost] microseconds of work and returns
    the instant it completes, scheduling nothing: the caller waits for
    that instant itself (a fiber with {!Fiber.sleep}).
    @raise Invalid_argument if [cost < 0]. *)
val book : t -> cost:int -> int

(** Work currently queued ahead (microseconds until idle). *)
val backlog_us : t -> int
