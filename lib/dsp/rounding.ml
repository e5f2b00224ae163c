open Dsp_core
module Rat = Dsp_util.Rat

type t = { original : Instance.t; rounded : Instance.t }

(* The Lemma 3 scales of one guess as integer cuts: entry ℓ-1 holds
   (ceil (eps^ℓ · H'), max 1 (floor (eps^(ℓ+1) · H'))), the cut an
   integer height must reach to sit at scale ℓ and that scale's grid.
   The table stops at the first cut of at most 1, which every height
   reaches, or at scale 63, which takes every height left. *)
let scale_table (p : Classify.params) =
  let eps = p.Classify.eps in
  let rec go level bound acc =
    let bound = Rat.mul bound eps in
    let cut = Rat.ceil bound in
    let acc = (cut, max 1 (Rat.floor (Rat.mul bound eps))) :: acc in
    if cut <= 1 || level > 62 then Array.of_list (List.rev acc)
    else go (level + 1) bound acc
  in
  go 1 (Rat.of_int p.Classify.target) []

let round_heights (inst : Instance.t) (p : Classify.params) =
  let threshold = Rat.floor (Rat.mul p.Classify.delta (Rat.of_int p.Classify.target)) in
  let scales = scale_table p in
  let last = Array.length scales - 1 in
  let round_item (it : Item.t) =
    let h = it.Item.h in
    if h <= threshold then it
    else begin
      (* Scale ℓ: smallest ℓ >= 1 with h >= eps^ℓ · H'; the grid for
         that scale is eps^(ℓ+1) · H'. *)
      let rec grid l =
        let cut, g = scales.(l) in
        if h >= cut || l = last then g else grid (l + 1)
      in
      let grid = grid 0 in
      { it with Item.h = Dsp_util.Xutil.ceil_div h grid * grid }
    end
  in
  { original = inst; rounded = Instance.map_items round_item inst }

let restore t (pk : Packing.t) =
  if not (Instance.equal (Packing.instance pk) t.rounded) then
    invalid_arg "Rounding.restore: packing is not over the rounded instance";
  Packing.make t.original (Packing.starts pk)

let distinct_heights (inst : Instance.t) ~above =
  Array.to_list inst.Instance.items
  |> List.filter_map (fun (it : Item.t) ->
         if it.Item.h > above then Some it.Item.h else None)
  |> List.sort_uniq compare |> List.length
