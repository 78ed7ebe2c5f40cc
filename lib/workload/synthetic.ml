(** The paper's synthetic benchmark (§6.1).

    Transactions read-modify-write [keys_per_tx] keys with zero think
    time.  Each data partition holds [local_space] keys only accessed by
    locally-initiated transactions and [remote_space] keys only accessed
    by remote transactions (the paper uses one million of each), which
    decouples local from remote contention.  10% of accesses go to a
    per-partition hotspot whose size controls the contention level:

    - {b Synth-A} (best case for speculation): local hotspot of a single
      key, remote hotspot of 800 keys — very high local contention,
      very low remote contention.
    - {b Synth-B} (worst case): local hotspot 10 keys, remote hotspot 3
      keys — both contentions high, so speculation mostly fails. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value

type params = {
  keys_per_tx : int;
  hot_prob : float;  (** fraction of accesses that hit the hotspot *)
  local_hot : int;  (** hotspot size of the local key range *)
  remote_hot : int;  (** hotspot size of the remote key range *)
  local_space : int;  (** cold local keys *)
  remote_space : int;  (** cold remote keys *)
  remote_access_prob : float;  (** chance that one access targets a remote partition *)
  read_remote_keys : bool;
      (** when true, remote keys are read before being written (adds one
          WAN round trip per remote key to the execution phase); the
          default models them as blind writes, keeping the execution
          phase local and fast — contention on remote keys is still
          exercised at global certification, which is what the paper's
          "remote contention" knob controls *)
  zipf_theta : float option;
      (** optional skew inside the hotspot (extension; [None] = uniform) *)
}

let default =
  {
    keys_per_tx = 10;
    hot_prob = 0.1;
    local_hot = 1;
    remote_hot = 800;
    local_space = 1_000_000;
    remote_space = 1_000_000;
    remote_access_prob = 0.3;
    read_remote_keys = false;
    zipf_theta = None;
  }

let synth_a = { default with local_hot = 1; remote_hot = 800 }
let synth_b = { default with local_hot = 10; remote_hot = 3 }

(** Scale the number of keys per transaction while keeping contention
    constant (Table 1: the key space grows by the same factor). *)
let scale_keys p factor =
  {
    p with
    keys_per_tx = p.keys_per_tx * factor;
    local_hot = p.local_hot * factor;
    remote_hot = p.remote_hot * factor;
    local_space = p.local_space * factor;
    remote_space = p.remote_space * factor;
  }

let local_key ~partition i = Key.v ~partition ("l" ^ string_of_int i)
let remote_key ~partition i = Key.v ~partition ("r" ^ string_of_int i)

(* Partitions that [node] does not replicate: targets for remote accesses. *)
let remote_partitions placement node =
  let all = List.init (Placement.n_partitions placement) Fun.id in
  List.filter
    (fun p -> not (Placement.replicates placement ~node ~partition:p))
    all

let pick_index rng ~hot_prob ~hot ~cold ~zipf =
  if Dsim.Rng.float rng < hot_prob && hot > 0 then
    match zipf with
    | Some z when Zipf.n z = hot -> Zipf.draw z rng
    | Some _ | None -> Dsim.Rng.int rng hot
  else hot + Dsim.Rng.int rng (max 1 cold)

type access = [ `Local of Key.t | `Remote of Key.t ]

let accesses params placement =
  let zipf_local =
    match params.zipf_theta with
    | Some theta when params.local_hot > 1 -> Some (Zipf.make ~n:params.local_hot ~theta)
    | Some _ | None -> None
  in
  let zipf_remote =
    match params.zipf_theta with
    | Some theta when params.remote_hot > 1 ->
      Some (Zipf.make ~n:params.remote_hot ~theta)
    | Some _ | None -> None
  in
  let remote_parts = Array.init (Placement.n_nodes placement) (fun n ->
      Array.of_list (remote_partitions placement n))
  in
  (* Has [key] been drawn already?  A scan of the at most
     [keys_per_tx] accesses drawn so far. *)
  let drawn key acc =
    List.exists (fun (`Remote k | `Local k) -> Key.equal k key) acc
  in
  fun rng ~node ->
    (* Distinct keys per transaction (duplicates are collapsed by the
       write buffer anyway, but distinct keys keep the tx size fixed). *)
    let rec draw acc n =
      if n = 0 then acc
      else begin
        let remotes = remote_parts.(node) in
        let access =
          if Array.length remotes > 0 && Dsim.Rng.float rng < params.remote_access_prob
          then begin
            let p = remotes.(Dsim.Rng.int rng (Array.length remotes)) in
            let i =
              pick_index rng ~hot_prob:params.hot_prob ~hot:params.remote_hot
                ~cold:params.remote_space ~zipf:zipf_remote
            in
            `Remote (remote_key ~partition:p i)
          end
          else begin
            let i =
              pick_index rng ~hot_prob:params.hot_prob ~hot:params.local_hot
                ~cold:params.local_space ~zipf:zipf_local
            in
            `Local (local_key ~partition:node i)
          end
        in
        let key = match access with `Remote k | `Local k -> k in
        if drawn key acc then draw acc n else draw (access :: acc) (n - 1)
      end
    in
    draw [] params.keys_per_tx

let make ?(params = default) placement =
  let gen_keys = accesses params placement in
  let next_program rng ~node =
    let accesses = gen_keys rng ~node in
    let stamp = Dsim.Rng.int rng 1_000_000 in
    {
      Spec.label = "rmw";
      read_only = false;
      think_us = 0;
      body =
        (fun eng tx ->
          List.iter
            (fun access ->
              match access with
              | `Local key ->
                (* Local keys are read-modify-written: this is where
                   speculative reads of hot local-committed versions
                   kick in. *)
                let v = Spec.read_int eng tx key in
                Core.Engine.write eng tx key (Value.Int (v + 1))
              | `Remote key ->
                if params.read_remote_keys then begin
                  let v = Spec.read_int eng tx key in
                  Core.Engine.write eng tx key (Value.Int (v + 1))
                end
                else Core.Engine.write eng tx key (Value.Int stamp))
            accesses);
    }
  in
  {
    Spec.name = "synthetic";
    (* Keys default to 0 when absent: no preloading needed, which keeps
       the simulated stores small (the paper's two-million-key
       partitions are materialized lazily). *)
    load = (fun _ -> ());
    next_program;
  }
