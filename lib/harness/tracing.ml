(* Sweep-level trace collector.  Cells register in the parent process
   while the sweep is enumerated, so registration order — and hence
   every pid and the export byte stream — is independent of the worker
   count. *)

type t = {
  filter : string option;
  mutable cells : (string * Obs.Trace.t) list;  (* reverse registration order *)
  mutable n : int;  (* registrations so far, including filtered-out ones *)
}

let create ?filter () = { filter; cells = []; n = 0 }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let trace_for t ~cell =
  let selected =
    match t.filter with None -> true | Some f -> contains ~sub:f cell
  in
  let r =
    if not selected then None
    else begin
      (* 64 pids per cell leaves room for any realistic DC count while
         keeping cell process ids disjoint in the merged trace. *)
      let tr = Obs.Trace.create ~pid_base:(t.n * 64) () in
      t.cells <- (cell, tr) :: t.cells;
      Some tr
    end
  in
  t.n <- t.n + 1;
  r

let traces t = List.rev t.cells

let n_selected t = List.length t.cells

let export_chrome t = Obs.Export.chrome (traces t)

let export_jsonl t = Obs.Export.jsonl (traces t)
