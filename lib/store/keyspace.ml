(** Keys and values of the partitioned key-value data model.

    A key names an item inside a specific data partition; the partition
    id is part of the key so that routing never needs a directory
    lookup (workloads decide placement when they mint keys, mirroring
    Antidote's hash-distributed keyspace). *)

module Key = struct
  type t = { partition : int; name : string }

  let v ~partition name = { partition; name }

  (** Compose a name from path-like components: [path ~partition ["order"; "3"; "7"]]. *)
  let path ~partition parts = { partition; name = String.concat "/" parts }

  let partition k = k.partition
  let name k = k.name

  let equal a b = a.partition = b.partition && String.equal a.name b.name
  let compare a b =
    match compare a.partition b.partition with
    | 0 -> String.compare a.name b.name
    | c -> c

  (* Hashes the record itself: the same value as hashing the tuple
     [(partition, name)], which has the same block layout, without
     allocating that tuple on every table lookup. *)
  let hash (a : t) = Hashtbl.hash a

  let pp ppf k = Format.fprintf ppf "%d:%s" k.partition k.name
  let to_string k = Printf.sprintf "%d:%s" k.partition k.name
end

module Value = struct
  (** A small dynamic value universe, rich enough to encode TPC-C and
      RUBiS rows without an external serialization library. *)
  type t =
    | Unit
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Rec of (string * t) list

  exception Type_error of string

  let int = function
    | Int i -> i
    | v -> raise (Type_error (Printf.sprintf "expected Int, got %s"
                                (match v with
                                 | Unit -> "Unit" | Float _ -> "Float" | Str _ -> "Str"
                                 | List _ -> "List" | Rec _ -> "Rec" | Int _ -> "Int")))


  (** Record field access. @raise Type_error when missing. *)
  let field v name =
    match v with
    | Rec fs ->
      (try List.assoc name fs
       with Not_found -> raise (Type_error (Printf.sprintf "missing field %S" name)))
    | _ -> raise (Type_error "expected Rec")

  let field_opt v name =
    match v with Rec fs -> List.assoc_opt name fs | _ -> None

  (** Functional field update (adds the field if absent). *)
  let set_field v name fv =
    match v with
    | Rec fs ->
      let rec go = function
        | [] -> [ (name, fv) ]
        | (n, _) :: rest when String.equal n name -> (n, fv) :: rest
        | pair :: rest -> pair :: go rest
      in
      Rec (go fs)
    | _ -> raise (Type_error "expected Rec")

  let rec equal a b =
    match a, b with
    | Unit, Unit -> true
    | Int x, Int y -> x = y
    | Float x, Float y -> x = y
    | Str x, Str y -> String.equal x y
    | List x, List y -> (try List.for_all2 equal x y with Invalid_argument _ -> false)
    | Rec x, Rec y ->
      (try List.for_all2 (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && equal v1 v2) x y
       with Invalid_argument _ -> false)
    | (Unit | Int _ | Float _ | Str _ | List _ | Rec _), _ -> false

  let rec pp ppf = function
    | Unit -> Format.pp_print_string ppf "()"
    | Int i -> Format.pp_print_int ppf i
    | Float f -> Format.pp_print_float ppf f
    | Str s -> Format.fprintf ppf "%S" s
    | List l ->
      Format.fprintf ppf "[@[%a@]]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp) l
    | Rec fs ->
      let pp_field ppf (n, v) = Format.fprintf ppf "%s=%a" n pp v in
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_field)
        fs

  (** Approximate in-memory footprint in bytes, used for the Precise
      Clocks storage-overhead accounting of the paper (§6.1). *)
  let rec size_bytes = function
    | Unit -> 8
    | Int _ -> 8
    | Float _ -> 8
    | Str s -> 24 + String.length s
    | List l -> List.fold_left (fun acc v -> acc + 16 + size_bytes v) 16 l
    | Rec fs ->
      List.fold_left (fun acc (n, v) -> acc + 32 + String.length n + size_bytes v) 16 fs
end
