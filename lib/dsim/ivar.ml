(* A state is [Full v] or the chain of parked fibers, newest first,
   ending in [Empty].  A parked fiber is its continuation and the
   simulator to resume it on, with no closure; a fresh ivar is one
   2-word record. *)
type 'a state =
  | Empty
  | Full of 'a
  | Park of Sim.t * ('a, unit) Effect.Deep.continuation * 'a state

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }

let is_full iv = match iv.state with Full _ -> true | Empty | Park _ -> false

(* Fibers parked first resume first: queue the older chain, then this
   fiber. *)
let rec wake v = function
  | Empty | Full _ -> ()
  | Park (sim, k, older) ->
    wake v older;
    Sim.resume sim k v

let fill iv v =
  match iv.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | (Empty | Park _) as waiters ->
    iv.state <- Full v;
    wake v waiters

let fill_if_empty iv v =
  match iv.state with
  | Full _ -> false
  | Empty | Park _ -> fill iv v; true

let peek iv = match iv.state with Full v -> Some v | Empty | Park _ -> None

let park iv sim k =
  match iv.state with
  | Full v -> Sim.resume sim k v
  | (Empty | Park _) as waiters -> iv.state <- Park (sim, k, waiters)
