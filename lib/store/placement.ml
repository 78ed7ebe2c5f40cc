(** Data placement: which nodes replicate which partitions and who is
    the master replica of each.

    The paper's deployment ("a replication factor of six, [...] each
    instance holds one master replica of a partition and slave replicas
    of five other partitions") corresponds to [ring] with
    [replication_factor = 6]. *)

type t = {
  n_partitions : int;
  n_nodes : int;
  master : int array; (* partition -> master node *)
  replicas : int array array; (* partition -> replica nodes, master first *)
  hosted : int array array; (* node -> partitions it replicates *)
}

let n_partitions t = t.n_partitions
let n_nodes t = t.n_nodes

let master t p = t.master.(p)
let replicas t p = t.replicas.(p)
let hosted t n = t.hosted.(n)

let replicates t ~node ~partition =
  Array.exists (fun r -> r = node) t.replicas.(partition)

let of_replicas ~n_nodes ~replicas =
  let n_partitions = Array.length replicas in
  if n_partitions = 0 then invalid_arg "Placement.of_replicas: no partitions";
  Array.iteri
    (fun p reps ->
      if Array.length reps = 0 then invalid_arg "Placement.of_replicas: empty replica set";
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun r ->
          if r < 0 || r >= n_nodes then invalid_arg "Placement.of_replicas: node out of range";
          if Hashtbl.mem seen r then
            invalid_arg (Printf.sprintf "Placement.of_replicas: duplicate replica %d of partition %d" r p);
          Hashtbl.add seen r ())
        reps)
    replicas;
  let master = Array.map (fun reps -> reps.(0)) replicas in
  let hosted_lists = Array.make n_nodes [] in
  Array.iteri
    (fun p reps -> Array.iter (fun r -> hosted_lists.(r) <- p :: hosted_lists.(r)) reps)
    replicas;
  let hosted = Array.map (fun l -> Array.of_list (List.sort Int.compare l)) hosted_lists in
  { n_partitions; n_nodes; master; replicas; hosted }

(** Ring placement: partition [p] is mastered by node [p] and replicated
    on the next [replication_factor - 1] nodes around the ring. *)
let ring ~n_nodes ~replication_factor () =
  if replication_factor < 1 || replication_factor > n_nodes then
    invalid_arg "Placement.ring: replication factor out of range";
  let replicas =
    Array.init n_nodes (fun p -> Array.init replication_factor (fun i -> (p + i) mod n_nodes))
  in
  of_replicas ~n_nodes ~replicas
