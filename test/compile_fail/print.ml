(* Library code returns strings; printing to stdout must not compile
   under the Prelude's [print] alert, an error in lib/. *)

let show n = print_endline (string_of_int n)
let shout s = print_string s
let report n = Printf.printf "n=%d\n" n
let pretty n = Format.printf "n=%d@." n

(* Printing to a caller's formatter or buffer is fine. *)
let pp ppf n = Format.fprintf ppf "n=%d" n
