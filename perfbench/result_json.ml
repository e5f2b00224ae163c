(* The benchmark's result writer.  It renders through the service's
   own {!Dsp_serve.Json} printer but first refuses what would make the
   output invalid or ambiguous: a key repeated inside one object, and a
   non-finite number (the printer would turn it into [null]). *)

module Json = Dsp_serve.Json

let rec check path = function
  | Json.Obj fields ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          if Hashtbl.mem seen k then
            invalid_arg (Printf.sprintf "Result_json: duplicate key %S in %s" k path);
          Hashtbl.add seen k ();
          check (path ^ "." ^ k) v)
        fields
  | Json.List vs -> List.iteri (fun i v -> check (Printf.sprintf "%s[%d]" path i) v) vs
  | Json.Float f when not (Float.is_finite f) ->
      invalid_arg (Printf.sprintf "Result_json: non-finite number at %s" path)
  | Json.Float _ | Json.Int _ | Json.String _ | Json.Bool _ | Json.Null -> ()

(* Raises [Invalid_argument] instead of writing an invalid document. *)
let to_string v =
  check "$" v;
  Json.to_string v

let metric value unit = Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]

(* The last line of a run: exactly these four keys. *)
let result ~correct ~attempted ~failed metrics =
  to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj (List.map (fun (name, value, unit) -> (name, metric value unit)) metrics) );
       ])
