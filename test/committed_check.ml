(* Checks over the committed versions every replica of a cluster holds,
   shared by the protocol and failover suites. *)

open Store

(* [f key v] for each committed version [v] of each replica (not the
   cache partitions), partitions ascending, replicas in placement
   order. *)
let iter eng f =
  let placement = Core.Engine.placement eng in
  for p = 0 to Placement.n_partitions placement - 1 do
    Array.iter
      (fun r ->
        let store = Core.Partition_server.store (Core.Engine.server eng ~node:r ~partition:p) in
        List.iter (fun (key, v) -> f key v) (Mvstore.committed_versions store))
      (Placement.replicas placement p)
  done

(* Fails unless all replicas holding a committed version of one key by
   one writer hold the same physical object.  Returns how many such
   (key, writer) pairs more than one replica holds. *)
let check_shared eng =
  let first = Hashtbl.create 4096 and shared = Hashtbl.create 4096 in
  iter eng (fun key v ->
      let writer = Version.writer v in
      let id = (Keyspace.Key.to_string key, Txid.origin writer, Txid.number writer) in
      match Hashtbl.find_opt first id with
      | None -> Hashtbl.replace first id v
      | Some w ->
        if w != v then
          Alcotest.failf "replicas hold distinct copies of %s's committed version of %s"
            (Txid.to_string writer) (Keyspace.Key.to_string key);
        Hashtbl.replace shared id ());
  Hashtbl.length shared
