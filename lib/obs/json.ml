(* Minimal JSON reader for the trace toolchain.  Numbers keep their
   lexeme so integer and float fields round-trip exactly (Event.to_json
   prints ints as %d and floats as %.17g, which is injective on finite
   doubles); no dependency beyond the stdlib. *)

type t =
  | Null
  | Bool of bool
  | Num of string (* unparsed lexeme *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail "expected %c at %d, got %c" c st.pos c'
  | None -> fail "expected %c at %d, got end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "bad literal at %d" st.pos

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail "unterminated string at %d" st.pos
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; loop ()
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; loop ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; loop ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape %s" hex
            in
            (* Our own writer only escapes control characters; decode the
               BMP code point as UTF-8 so foreign files stay readable. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end;
            loop ()
        | _ -> fail "bad escape at %d" st.pos)
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        loop ()
    | _ -> ()
  in
  loop ();
  if st.pos = start then fail "expected number at %d" start;
  String.sub st.src start (st.pos - start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((k, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } at %d" st.pos
        in
        Obj (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] at %d" st.pos
        in
        Arr (elements [])
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at %d" st.pos;
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* --- accessors ------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int = function
  | Num lexeme -> ( try Some (int_of_string lexeme) with _ -> None)
  | _ -> None

let to_float = function
  | Num lexeme -> ( try Some (float_of_string lexeme) with _ -> None)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_list = function Arr l -> Some l | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let field k conv j =
  match member k j with
  | None -> Error (Printf.sprintf "missing field %S" k)
  | Some v -> (
      match conv v with Some x -> Ok x | None -> Error (Printf.sprintf "ill-typed field %S" k))

let map f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] l
