(** Loosely synchronized per-node physical clocks.

    STR only assumes conventional hardware clocks that move forward
    monotonically; perfect synchrony is not required.  Each node's clock
    is modeled as simulated time plus a constant skew plus a linear
    drift, clamped to be monotone.  Values are microseconds. *)

type t

(** [create ~sim ~skew_us ~drift_ppm] builds a clock whose reading at
    simulated time [s] is [s + skew_us + drift_ppm * s / 1_000_000]. *)
val create : sim:Sim.t -> skew_us:int -> drift_ppm:float -> t

(** Current physical time of this node; guaranteed non-decreasing across
    successive calls even if parameters would regress. *)
val now : t -> int

(** Simulated-time delay until this clock will read at least [target];
    0 when it already does.  Used to implement Clock-SI read delays. *)
val delay_until : t -> int -> int
