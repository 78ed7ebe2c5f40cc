(* Each use below breaks replay determinism and must not compile under
   the Prelude's [nondet] alert: hash-table iteration (the Stdlib
   table, and a table built by [Hashtbl.Make] like every [*Tbl]), the
   global Random state and the wall clock. *)

module Tbl = Hashtbl.Make (Int)

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
let each tbl = Hashtbl.iter (fun _ _ -> ()) tbl
let visit tbl = Tbl.iter (fun _ _ -> ()) tbl
let draw () = Random.int 6
let stamp () = Unix.gettimeofday ()
let cpu () = Sys.time ()

(* A reviewed site compiles. *)
let sorted tbl = List.sort Int.compare (Tbl.fold (fun k _ acc -> k :: acc) tbl [] [@alert "-nondet"])
