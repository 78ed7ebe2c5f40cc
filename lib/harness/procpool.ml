(** See procpool.mli. *)

(* Child-side outcome of one thunk.  Exceptions cannot be marshalled
   usefully across a process boundary (the reader gets a structurally
   equal but unmatchable block), so they are flattened to strings in
   the child and re-raised as [Cell_failed] in the parent. *)
type 'a outcome = Ok_ of 'a | Error_ of string * string

exception Cell_failed of string

let default_jobs () =
  match Option.map String.trim (Sys.getenv_opt "STR_JOBS") with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | Some _ | None ->
      invalid_arg (Printf.sprintf "STR_JOBS must be a positive integer, got %S" s))

let read_all fd =
  let buf = Buffer.create 4_096 in
  let chunk = Bytes.create 65_536 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
  in
  loop ()

let write_all fd payload =
  let rec go off =
    if off < Bytes.length payload then
      go (off + Unix.write fd payload off (Bytes.length payload - off))
  in
  go 0

(* Body of worker [w]: run the cells it owns, ship their outcomes, and
   leave with [_exit] (skipping at_exit handlers — the parent owns the
   formatters and any tempfile cleanups).  Nothing may unwind out of
   here into the parent's code: a payload that fails to marshal exits
   non-zero instead. *)
let worker thunks ~jobs ~w wr =
  let mine = List.filter (fun i -> i mod jobs = w) (List.init (Array.length thunks) Fun.id) in
  let code =
    try
      let results =
        List.map
          (fun i ->
            let r =
              try Ok_ (thunks.(i) ())
              with e -> Error_ (Printexc.to_string e, Printexc.get_backtrace ())
            in
            (i, r))
          mine
      in
      write_all wr (Marshal.to_bytes results []);
      0
    with _ -> 2
  in
  Unix._exit code

let status_message = function
  | Unix.WEXITED c -> Printf.sprintf "worker process exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "worker process killed by signal %d" s
  | Unix.WSTOPPED _ -> "worker process stopped"

let run ?(jobs = 1) thunks =
  let n = List.length thunks in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then List.map (fun f -> f ()) thunks
  else begin
    let thunks = Array.of_list thunks in
    (* Flush before forking so no buffered output is duplicated into
       the children. *)
    flush stdout;
    flush stderr;
    (* Worker [w] owns the index slice [i mod jobs = w] — a static
       assignment, so the result vector (and anything rendered from it)
       never depends on scheduling. *)
    let spawn w =
      let rd, wr = Unix.pipe ~cloexec:false () in
      match Unix.fork () with
      | 0 ->
        Unix.close rd;
        worker thunks ~jobs ~w wr
      | pid ->
        Unix.close wr;
        (pid, rd)
    in
    let children = List.init jobs spawn in
    (* Reap every worker before raising anything, so a failure never
       leaves a child unwaited or a pipe open. *)
    let results = Array.make n None in
    let worker_error = Array.make jobs None in
    List.iteri
      (fun w (pid, rd) ->
        let raw = read_all rd in
        Unix.close rd;
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 when String.length raw > 0 ->
          List.iter
            (fun (i, r) -> results.(i) <- Some r)
            (Marshal.from_string raw 0 : (int * _ outcome) list)
        | status -> worker_error.(w) <- Some (status_message status))
      children;
    (* Lowest-index failure wins: a cell that raised, or the first cell
       of a worker that died, whichever comes first. *)
    let fail i why = raise (Cell_failed (Printf.sprintf "cell %d %s" i why)) in
    Array.iteri
      (fun i r ->
        match r with
        | Some (Ok_ _) -> ()
        | Some (Error_ (msg, bt)) ->
          fail i ("raised: " ^ msg ^ if bt = "" then "" else "\n" ^ bt)
        | None -> (
          match worker_error.(i mod jobs) with
          | Some why -> fail i ("produced no result: " ^ why)
          | None -> fail i "produced no result"))
      results;
    Array.to_list
      (Array.map
         (function Some (Ok_ v) -> v | Some (Error_ _) | None -> assert false)
         results)
  end
