type t = { oc : out_channel; buf : Buffer.t; mutable closed : bool }

let open_file path = { oc = open_out path; buf = Buffer.create 512; closed = false }

let write t e =
  if not t.closed then begin
    Buffer.clear t.buf;
    Event.write_json t.buf e;
    Buffer.add_char t.buf '\n';
    Buffer.output_buffer t.oc t.buf
  end

let note t s =
  if not t.closed then begin
    output_string t.oc {|{"note":"|};
    output_string t.oc (Event.json_escape s);
    output_string t.oc "\"}\n"
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end

let sink t = write t
