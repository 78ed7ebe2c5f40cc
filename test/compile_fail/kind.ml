(* Every message send names its message kind: the message-flow lint
   finds send sites by their [~kind:] label, and the send counts the
   kind.  A send without [~kind] is a partial application, not a send,
   and must not compile.  (The destination-side cost of a message is
   named once, by its delivery handler.) *)

let send_reply eng ~src ~dst m : unit = Core__Link.send eng ~src ~dst m
