(** See sweep.mli. *)

type ('k, 'r) cell = { key : 'k; trace : Obs.Trace.t option; thunk : unit -> 'r }

let cell ?trace key thunk = { key; trace; thunk }

let run ?(jobs = 1) cells =
  (* A worker's recorder is a copy of the parent's, so it travels back
     with the result.  Inline, the two are the same recorder and the
     adopt is a no-op. *)
  Procpool.run ~jobs (List.map (fun c () -> (c.thunk (), c.trace)) cells)
  |> List.map2
       (fun c (r, recorded) ->
         (match (c.trace, recorded) with
         | Some t, Some from -> Obs.Trace.adopt t ~from
         | _ -> ());
         (c.key, r))
       cells

let get results key =
  match List.assq_opt key results with
  | Some r -> r
  | None -> (
    (* assq misses keys rebuilt structurally (tuples, strings); fall
       back to structural equality before giving up. *)
    match List.assoc_opt key results with
    | Some r -> r
    | None -> invalid_arg "Sweep.get: key absent from sweep results")

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs
