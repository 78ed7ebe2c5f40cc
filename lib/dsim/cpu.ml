type t = { sim : Sim.t; mutable busy_until : int }

let create sim = { sim; busy_until = 0 }

let book t ~cost =
  if cost < 0 then invalid_arg "Cpu.book: negative cost";
  let now = Sim.now t.sim in
  let start = if t.busy_until > now then t.busy_until else now in
  let finish = start + cost in
  t.busy_until <- finish;
  finish

let exec t ~cost k = Sim.schedule_at t.sim ~time:(book t ~cost) k

let backlog_us t =
  let now = Sim.now t.sim in
  if t.busy_until > now then t.busy_until - now else 0
