let render ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc row -> max acc (List.length row)) 0 all in
  let width i =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let pad cell w = cell ^ String.make (max 0 (w - String.length cell)) ' ' in
  let line row =
    String.concat "  " (List.mapi (fun i cell -> pad cell (List.nth widths i)) row)
  in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line header :: rule :: List.map line rows)

let print ~title ~header ~rows =
  Printf.printf "\n== %s ==\n%s\n" title (render ~header ~rows)

let us v =
  if Float.is_nan v then "-"
  else if v >= 10_000.0 then Printf.sprintf "%.1fms" (v /. 1000.0)
  else Printf.sprintf "%.0fus" v

let ops v =
  if Float.is_nan v then "-"
  else if v >= 10_000.0 then Printf.sprintf "%.1fk" (v /. 1000.0)
  else Printf.sprintf "%.0f" v

let pct v = Printf.sprintf "%.0f%%" (100.0 *. v)
let yes_no b = if b then "yes" else "no"
