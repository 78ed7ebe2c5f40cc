type t = {
  names : string array;
  oneway : int array array; (* microseconds, symmetric, 0 diagonal replaced below *)
  intra_oneway : int;
}

let size t = Array.length t.names

let name t i = t.names.(i)

let oneway_us t i j = if i = j then t.intra_oneway else t.oneway.(i).(j)

let rtt_us t i j = 2 * oneway_us t i j

let of_rtt_ms ~names ~rtt_ms ~intra_rtt_ms =
  let n = Array.length names in
  if Array.length rtt_ms <> n then invalid_arg "Topology.of_rtt_ms: matrix size";
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Topology.of_rtt_ms: matrix not square")
    rtt_ms;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if abs_float (rtt_ms.(i).(j) -. rtt_ms.(j).(i)) > 1e-9 then
        invalid_arg "Topology.of_rtt_ms: matrix not symmetric"
    done
  done;
  let to_oneway ms = int_of_float (ms *. 1000. /. 2.) in
  {
    names;
    oneway = Array.map (Array.map to_oneway) rtt_ms;
    intra_oneway = to_oneway intra_rtt_ms;
  }

let uniform ~dcs ~rtt_ms ~intra_rtt_ms =
  let names = Array.init dcs (fun i -> Printf.sprintf "dc%d" i) in
  let rtt = Array.init dcs (fun i -> Array.init dcs (fun j -> if i = j then 0. else rtt_ms)) in
  of_rtt_ms ~names ~rtt_ms:rtt ~intra_rtt_ms

(* RTTs in milliseconds between the nine EC2 regions of the paper's
   testbed, calibrated to published inter-region measurements.  Order:
   Virginia, California, Oregon, Ireland, Frankfurt, Tokyo, Seoul,
   Singapore, Sydney. *)
let ec2_names =
  [| "virginia"; "california"; "oregon"; "ireland"; "frankfurt";
     "tokyo"; "seoul"; "singapore"; "sydney" |]

let ec2_rtt_ms =
  [|
    (*              VA     CA     OR     IR     FR     TK     SE     SG     SY *)
    (* VA *) [| 0.;  65.;  75.;  75.;  90.; 165.; 180.; 230.; 200. |];
    (* CA *) [| 65.;  0.;  22.; 140.; 150.; 105.; 130.; 175.; 140. |];
    (* OR *) [| 75.; 22.;   0.; 130.; 155.;  95.; 125.; 165.; 160. |];
    (* IR *) [| 75.; 140.; 130.;  0.;  25.; 215.; 240.; 180.; 270. |];
    (* FR *) [| 90.; 150.; 155.; 25.;   0.; 235.; 260.; 160.; 290. |];
    (* TK *) [| 165.; 105.; 95.; 215.; 235.;  0.;  35.;  70.; 105. |];
    (* SE *) [| 180.; 130.; 125.; 240.; 260.; 35.;   0.;  95.; 135. |];
    (* SG *) [| 230.; 175.; 165.; 180.; 160.; 70.;  95.;   0.; 170. |];
    (* SY *) [| 200.; 140.; 160.; 270.; 290.; 105.; 135.; 170.;  0. |];
  |]

let ec2_intra_rtt_ms = 0.5

let ec2_nine = of_rtt_ms ~names:ec2_names ~rtt_ms:ec2_rtt_ms ~intra_rtt_ms:ec2_intra_rtt_ms

let ec2_prefix n =
  if n < 1 || n > Array.length ec2_names then invalid_arg "Topology.ec2_prefix";
  let names = Array.sub ec2_names 0 n in
  let rtt = Array.init n (fun i -> Array.sub ec2_rtt_ms.(i) 0 n) in
  of_rtt_ms ~names ~rtt_ms:rtt ~intra_rtt_ms:ec2_intra_rtt_ms

