let has_suffix_from name suffixes =
  List.exists
    (fun suf ->
      (* exact suffix, or suffix followed by .N *)
      Filename.check_suffix name suf
      ||
      match String.index_opt name '.' with
      | None -> false
      | Some _ ->
        let rec contains_part s =
          match String.length s with
          | 0 -> false
          | _ -> (
            match String.index_opt s '.' with
            | None -> false
            | Some i ->
              let rest = String.sub s i (String.length s - i) in
              String.length rest >= String.length suf
              && String.sub rest 0 (String.length suf) = suf
              || contains_part (String.sub s (i + 1) (String.length s - i - 1)))
        in
        contains_part name)
    suffixes

let is_fragment_name name = has_suffix_from name [ ".cold"; ".part" ]

let from_symbols_impl reader =
  Cet_elf.Reader.symbols reader
  |> List.filter_map (fun (s : Cet_elf.Symbol.t) ->
         match (s.kind, s.section) with
         | Cet_elf.Symbol.Func, Some ".text" when not (is_fragment_name s.name) ->
           Some (s.name, s.value)
         | _ -> None)

let from_symbols reader =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"eval.ground_truth" (fun () ->
        from_symbols_impl reader)
  else from_symbols_impl reader

let addresses truth = List.sort_uniq compare (List.map snd truth)
