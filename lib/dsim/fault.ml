(* Declarative fault layer.  See the interface for the determinism
   contract: loss draws only happen on links whose probability is
   nonzero, so a plan without [Drop] actions never touches the RNG. *)

type action =
  | Crash of int
  | Recover of int
  | Link_down of int * int
  | Link_up of int * int
  | Isolate of int
  | Partition of int list * int list
  | Drop of int * int * float
  | Drop_all of float
  | Heal

type plan = (int * action) list

type t = {
  n : int;
  cut : bool array array;  (** [cut.(src).(dst)]: directed blackhole *)
  drop : float array array;  (** per-link loss probability *)
  rng : Rng.t;
  mutable on_crash : int -> unit;
  mutable on_recover : int -> unit;
  mutable any_loss : bool;  (** some link has nonzero loss probability *)
  mutable blackholed : int;
  mutable dropped : int;
  mutable actions_applied : int;
}

let no_handler _ = invalid_arg "Fault: handlers not set (use set_handlers)"

let create ?(seed = 7) ~n () =
  {
    n;
    cut = Array.make_matrix n n false;
    drop = Array.make_matrix n n 0.;
    rng = Rng.create ~seed;
    on_crash = no_handler;
    on_recover = no_handler;
    any_loss = false;
    blackholed = 0;
    dropped = 0;
    actions_applied = 0;
  }

let set_handlers t ~crash ~recover =
  t.on_crash <- crash;
  t.on_recover <- recover

let check_action ~n a =
  let node i =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Fault: node %d is outside 0..%d" i (n - 1))
  in
  let prob p =
    if not (p >= 0. && p < 1.) then
      invalid_arg (Printf.sprintf "Fault: loss probability %g is outside [0, 1)" p)
  in
  match a with
  | Crash i | Recover i | Isolate i -> node i
  | Link_down (s, d) | Link_up (s, d) ->
    node s;
    node d
  | Partition (ga, gb) ->
    List.iter node ga;
    List.iter node gb
  | Drop (s, d, p) ->
    node s;
    node d;
    prob p
  | Drop_all p -> prob p
  | Heal -> ()

let validate ~n plan =
  List.iter
    (fun (time, a) ->
      if time < 0 then
        invalid_arg (Printf.sprintf "Fault: action time %d us is before the run starts (0)" time);
      check_action ~n a)
    plan

let set_cut t s d v = if s <> d then t.cut.(s).(d) <- v

let set_drop t s d p =
  if s <> d then begin
    t.drop.(s).(d) <- p;
    if p > 0. then t.any_loss <- true
  end

let apply t a =
  check_action ~n:t.n a;
  t.actions_applied <- t.actions_applied + 1;
  match a with
  | Crash i -> t.on_crash i
  | Recover i -> t.on_recover i
  | Link_down (s, d) -> set_cut t s d true
  | Link_up (s, d) -> set_cut t s d false
  | Isolate i ->
    for m = 0 to t.n - 1 do
      if m <> i then begin
        t.cut.(i).(m) <- true;
        t.cut.(m).(i) <- true
      end
    done
  | Partition (ga, gb) ->
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            set_cut t a b true;
            set_cut t b a true)
          gb)
      ga
  | Drop (s, d, p) -> set_drop t s d p
  | Drop_all p ->
    for s = 0 to t.n - 1 do
      for d = 0 to t.n - 1 do
        if s <> d then set_drop t s d p
      done
    done
  | Heal ->
    for s = 0 to t.n - 1 do
      for d = 0 to t.n - 1 do
        t.cut.(s).(d) <- false;
        t.drop.(s).(d) <- 0.
      done
    done;
    t.any_loss <- false

(* Plan order is preserved: equal-time actions keep list order in every
   queue mode, and the controlled-mode [Fault] lane is FIFO. *)
let install t ~sim plan =
  validate ~n:t.n plan;
  List.iter (fun (time, a) -> Sim.schedule_fault sim ~time (fun () -> apply t a)) plan

let deliverable t ~src ~dst =
  if t.cut.(src).(dst) then begin
    t.blackholed <- t.blackholed + 1;
    false
  end
  else if t.any_loss then begin
    let p = t.drop.(src).(dst) in
    (* Draw only on lossy links: lossless traffic must not perturb the
       RNG stream (bit-identical fault-free runs). *)
    if p > 0. && Rng.float t.rng < p then begin
      t.dropped <- t.dropped + 1;
      false
    end
    else true
  end
  else true

let active t =
  t.any_loss
  || Array.exists (fun row -> Array.exists (fun c -> c) row) t.cut

let cut_links t =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc c -> if c then acc + 1 else acc) acc row)
    0 t.cut

let blackholed t = t.blackholed
let dropped t = t.dropped
let actions_applied t = t.actions_applied

(** Structural hash of the installed link state (cut + loss matrices).
    Mixed into consumer state fingerprints so model-checker dedup
    distinguishes states that differ only in active faults; an empty
    layer hashes to the FNV offset basis, deterministically. *)
let fingerprint t =
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  for s = 0 to t.n - 1 do
    for d = 0 to t.n - 1 do
      if t.cut.(s).(d) then mix (((s * t.n) + d) + 1);
      let p = t.drop.(s).(d) in
      if p > 0. then begin
        mix (((s * t.n) + d) + 1);
        mix (Int64.to_int (Int64.bits_of_float p))
      end
    done
  done;
  !h
