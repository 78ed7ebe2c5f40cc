(** Fixed-width ASCII table rendering for experiment reports. *)

type t = { title : string; headers : string list; mutable rows : string list list }

let create ~title ~headers = { title; headers; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let rows t = List.rev t.rows

let widths t =
  let all = t.headers :: rows t in
  let cols = List.length t.headers in
  let w = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if i < cols then w.(i) <- max w.(i) (String.length cell)) row)
    all;
  w

let render t =
  let w = widths t in
  let buf = Buffer.create 1024 in
  let line ch =
    Array.iter (fun width -> Buffer.add_string buf (String.make (width + 2) ch)) w;
    Buffer.add_char buf '\n'
  in
  let row_str cells =
    List.iteri
      (fun i cell ->
        if i < Array.length w then
          Buffer.add_string buf (Printf.sprintf " %-*s " w.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  row_str t.headers;
  line '-';
  List.iter row_str (rows t);
  Buffer.contents buf

(* [print] is the one sanctioned sink the binaries call to emit a
   rendered report; everything else returns strings. *)
let print t = (print_string (render t) [@alert "-print"])

(* Formatting helpers shared by the experiment tables. *)
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let pct x = Printf.sprintf "%.0f%%" (100. *. x)
let ms_of_us us = Printf.sprintf "%.1f" (float_of_int us /. 1000.)
