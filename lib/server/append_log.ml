type t = out_channel

(* Offset just past the last '\n' of [ic]'s file (0 when it has none),
   found by scanning back from the end: a torn tail is at most one line. *)
let whole_length ic =
  let chunk = Bytes.create 4096 in
  let rec scan stop =
    if stop = 0 then 0
    else begin
      let start = max 0 (stop - Bytes.length chunk) in
      seek_in ic start;
      really_input ic chunk 0 (stop - start);
      match Bytes.rindex_from_opt chunk (stop - start - 1) '\n' with
      | Some i -> start + i + 1
      | None -> scan start
    end
  in
  scan (in_channel_length ic)

let open_ path =
  if Sys.file_exists path then begin
    let size, keep =
      In_channel.with_open_bin path (fun ic -> (in_channel_length ic, whole_length ic))
    in
    if keep < size then Unix.truncate path keep
  end;
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let append oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* [input_line] also returns an unterminated last line; it is whole only
   if reading it consumed its newline too. *)
let fold path ~init ~f =
  if not (Sys.file_exists path) then init
  else
    In_channel.with_open_bin path (fun ic ->
        let rec go acc =
          let start = pos_in ic in
          match input_line ic with
          | exception End_of_file -> acc
          | line when pos_in ic - start > String.length line -> go (f acc line)
          | _ -> acc
        in
        go init)

let close = close_out_noerr
