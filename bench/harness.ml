(* Table rendering and small formatting helpers for the experiment
   harness.  Every experiment prints one or more tables via [table], so
   bench output stays uniform and diffable. *)

let hr = String.make 78 '-'

let section ~id ~title ~paper =
  Printf.printf "\n%s\n%s  %s\n  reproduces: %s\n%s\n" hr id title paper hr

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

let table ~headers rows =
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  measure headers;
  List.iter measure rows;
  let print_row row =
    print_string "  ";
    List.iteri
      (fun i cell -> Printf.printf "%-*s%s" widths.(i) cell (if i = ncols - 1 then "\n" else "  "))
      row
  in
  print_newline ();
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows;
  print_newline ()

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

let fopt = function Some x -> f2 x | None -> "-"

let pct num den = if den = 0 then "-" else Printf.sprintf "%d%%" (100 * num / den)

let verdict_cell = function
  | Weakset_spec.Figures.Conforms -> "conforms"
  | Weakset_spec.Figures.Violates vs -> Printf.sprintf "VIOLATES(%d)" (List.length vs)
