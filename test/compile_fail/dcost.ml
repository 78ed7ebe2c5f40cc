(* Every message send names its destination-side cost: a send without
   [~dcost] is a partial application, not a send, and must not
   compile. *)

let send_reply eng ~ctx ~src ~dst k : unit =
  Core__Link.send eng ~kind:Obs.Trace.M_read_reply ~ctx ~src ~dst k
