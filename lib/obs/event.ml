type drop_reason = Unreachable | Endpoint_down | In_flight | Lost
type rpc_outcome = Rpc_ok | Rpc_timeout | Rpc_unreachable
type elem = { elem_id : int; elem_label : string }
type spec_op = Spec_add of elem | Spec_remove of elem

type spec_phase =
  | Phase_first
  | Phase_invocation_start
  | Phase_invocation_retry
  | Phase_returns
  | Phase_fails
  | Phase_suspends of elem
  | Phase_mutation of spec_op

type park =
  | Park_yield
  | Park_sleep of float
  | Park_suspend
  | Park_done
  | Park_crash

type alert_severity = Sev_warn | Sev_crit
type cache_kind = Cache_dir | Cache_obj

type kind =
  | Fiber_spawn of { fid : int; fiber : string }
  | Run_begin of { fid : int; fiber : string }
  | Run_end of { fid : int; fiber : string; park : park }
  | Fiber_crash of { fiber : string; exn_text : string }
  | Sched of { at : float }
  | Fault_node_crash of { node : int }
  | Fault_node_recover of { node : int }
  | Fault_link_cut of { a : int; b : int }
  | Fault_link_heal of { a : int; b : int }
  | Fault_partition
  | Fault_heal_all
  | Net_send of { src : int; dst : int; lc : int }
  | Net_deliver of { src : int; dst : int; sent_at : float; send_lc : int; lc : int }
  | Net_drop of { src : int; dst : int; reason : drop_reason }
  | Rpc_call of { src : int; dst : int; id : int; lc : int; parent : int option }
  | Rpc_done of { src : int; dst : int; id : int; outcome : rpc_outcome; lc : int }
  | Span_start of { span : int; parent : int option; name : string; node : int option }
  | Span_end of { span : int; name : string; node : int option; dur : float }
  | Store_op of { node : int; op : string; parent : int option }
  | Cache_hit of { node : int; ckind : cache_kind; id : int; version : int; age : float }
  | Cache_miss of { node : int; ckind : cache_kind; id : int }
  | Cache_inval of { node : int; set_id : int; version : int }
  | Lease_expire of { node : int; ckind : cache_kind; id : int }
  | Spec_observe of {
      set_id : int;
      phase : spec_phase;
      s : elem list;
      accessible : elem list;
    }
  | Alert of {
      source : string;
      op : string;
      severity : alert_severity;
      burn : float;
      window : float;
      detail : string;
    }
  | Spec_violation of { set_id : int; where : string; message : string }
  | Custom of { label : string; detail : string }

type t = { seq : int; time : float; kind : kind }

let drop_reason_string = function
  | Unreachable -> "unreachable"
  | Endpoint_down -> "endpoint-down"
  | In_flight -> "in-flight"
  | Lost -> "lost"

let drop_reason_of_string = function
  | "unreachable" -> Some Unreachable
  | "endpoint-down" -> Some Endpoint_down
  | "in-flight" -> Some In_flight
  | "lost" -> Some Lost
  | _ -> None

let rpc_outcome_string = function
  | Rpc_ok -> "ok"
  | Rpc_timeout -> "timeout"
  | Rpc_unreachable -> "unreachable"

let rpc_outcome_of_string = function
  | "ok" -> Some Rpc_ok
  | "timeout" -> Some Rpc_timeout
  | "unreachable" -> Some Rpc_unreachable
  | _ -> None

let phase_string = function
  | Phase_first -> "first"
  | Phase_invocation_start -> "invocation-start"
  | Phase_invocation_retry -> "invocation-retry"
  | Phase_returns -> "returns"
  | Phase_fails -> "fails"
  | Phase_suspends _ -> "suspends"
  | Phase_mutation (Spec_add _) -> "add"
  | Phase_mutation (Spec_remove _) -> "remove"

let park_base = function
  | Park_yield -> "yield"
  | Park_sleep _ -> "sleep"
  | Park_suspend -> "suspend"
  | Park_done -> "done"
  | Park_crash -> "crash"

let severity_string = function Sev_warn -> "warn" | Sev_crit -> "crit"

let cache_kind_string = function Cache_dir -> "dir" | Cache_obj -> "obj"

let cache_kind_of_string = function
  | "dir" -> Some Cache_dir
  | "obj" -> Some Cache_obj
  | _ -> None

let severity_of_string = function
  | "warn" -> Some Sev_warn
  | "crit" -> Some Sev_crit
  | _ -> None

let label = function
  | Fiber_spawn _ -> "fiber"
  | Run_begin _ | Run_end _ -> "run"
  | Fiber_crash _ -> "fiber-crash"
  | Sched _ -> "sched"
  | Fault_node_crash _ | Fault_node_recover _ | Fault_link_cut _
  | Fault_link_heal _ | Fault_partition | Fault_heal_all ->
      "fault"
  | Net_send _ | Net_deliver _ | Net_drop _ -> "net"
  | Rpc_call _ | Rpc_done _ -> "rpc"
  | Span_start _ | Span_end _ -> "span"
  | Store_op _ -> "store"
  | Cache_hit _ | Cache_miss _ | Cache_inval _ | Lease_expire _ -> "cache"
  | Spec_observe _ -> "spec"
  | Alert _ -> "alert"
  | Spec_violation _ -> "spec-violation"
  | Custom { label; _ } -> label

(* --- writers ---------------------------------------------------------

   Both encodings append straight into a caller-owned [Buffer.t]: the
   digest feeds one event per bus emit, so they run on the hot path and
   avoid intermediate strings (JSON's decimal floats aside). *)

let add = Buffer.add_string
let addc = Buffer.add_char

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  addc b (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int], without the intermediate string. *)
let add_int b n = if n >= 0 then add_digits b n else add b (string_of_int n)

let hex_digit d = String.unsafe_get "0123456789abcdef" d

let render write x =
  let b = Buffer.create 128 in
  write b x;
  Buffer.contents b

(* --- compact binary (the digest's input) ------------------------------

   Prefix-free, so a stream of encodings parses back one way only: a tag
   byte per constructor, zigzag LEB128 ints, the IEEE-754 bits of each
   float little-endian, strings and lists prefixed by their length, and
   options tagged 0/1. *)

let add_byte b n = addc b (Char.unsafe_chr n)

(* Zigzag maps small magnitudes of either sign to small naturals; LEB128
   then writes 7 bits per byte, low bits first, with the high bit set on
   every byte but the last. *)
let rec add_leb128 b z =
  if z lsr 7 = 0 then add_byte b z
  else begin
    add_byte b (z land 0x7f lor 0x80);
    add_leb128 b (z lsr 7)
  end

let add_varint b n = add_leb128 b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

(* The bits as two 32-bit ints, written 16 bits at a time, so the int64
   is never boxed. *)
let add_bits b f =
  let bits = Int64.bits_of_float f in
  let lo = Int64.to_int bits and hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  Buffer.add_uint16_le b (lo land 0xffff);
  Buffer.add_uint16_le b ((lo lsr 16) land 0xffff);
  Buffer.add_uint16_le b (hi land 0xffff);
  Buffer.add_uint16_le b (hi lsr 16)

let add_bstr b s =
  add_varint b (String.length s);
  add b s

let add_bopt b = function
  | None -> add_byte b 0
  | Some i ->
      add_byte b 1;
      add_varint b i

let add_belem b e =
  add_varint b e.elem_id;
  add_bstr b e.elem_label

let add_belems b es =
  add_varint b (List.length es);
  List.iter (add_belem b) es

let drop_reason_tag = function Unreachable -> 0 | Endpoint_down -> 1 | In_flight -> 2 | Lost -> 3
let rpc_outcome_tag = function Rpc_ok -> 0 | Rpc_timeout -> 1 | Rpc_unreachable -> 2
let cache_kind_tag = function Cache_dir -> 0 | Cache_obj -> 1
let severity_tag = function Sev_warn -> 0 | Sev_crit -> 1

let add_park b = function
  | Park_yield -> add_byte b 0
  | Park_sleep wake ->
      add_byte b 1;
      add_bits b wake
  | Park_suspend -> add_byte b 2
  | Park_done -> add_byte b 3
  | Park_crash -> add_byte b 4

let add_phase b = function
  | Phase_first -> add_byte b 0
  | Phase_invocation_start -> add_byte b 1
  | Phase_invocation_retry -> add_byte b 2
  | Phase_returns -> add_byte b 3
  | Phase_fails -> add_byte b 4
  | Phase_suspends e ->
      add_byte b 5;
      add_belem b e
  | Phase_mutation (Spec_add e) ->
      add_byte b 6;
      add_belem b e
  | Phase_mutation (Spec_remove e) ->
      add_byte b 7;
      add_belem b e

(* [tag] then the ints [x] and [y]: the shape of most kinds. *)
let add_tag2 b tag x y =
  add_byte b tag;
  add_varint b x;
  add_varint b y

let write_binary_kind b = function
  | Fiber_spawn { fid; fiber } ->
      add_byte b 0;
      add_varint b fid;
      add_bstr b fiber
  | Run_begin { fid; fiber } ->
      add_byte b 1;
      add_varint b fid;
      add_bstr b fiber
  | Run_end { fid; fiber; park } ->
      add_byte b 2;
      add_varint b fid;
      add_bstr b fiber;
      add_park b park
  | Fiber_crash { fiber; exn_text } ->
      add_byte b 3;
      add_bstr b fiber;
      add_bstr b exn_text
  | Sched { at } ->
      add_byte b 4;
      add_bits b at
  | Fault_node_crash { node } ->
      add_byte b 5;
      add_varint b node
  | Fault_node_recover { node } ->
      add_byte b 6;
      add_varint b node
  | Fault_link_cut { a; b = b' } -> add_tag2 b 7 a b'
  | Fault_link_heal { a; b = b' } -> add_tag2 b 8 a b'
  | Fault_partition -> add_byte b 9
  | Fault_heal_all -> add_byte b 10
  | Net_send { src; dst; lc } ->
      add_tag2 b 11 src dst;
      add_varint b lc
  | Net_deliver { src; dst; sent_at; send_lc; lc } ->
      add_tag2 b 12 src dst;
      add_bits b sent_at;
      add_varint b send_lc;
      add_varint b lc
  | Net_drop { src; dst; reason } ->
      add_tag2 b 13 src dst;
      add_byte b (drop_reason_tag reason)
  | Rpc_call { src; dst; id; lc; parent } ->
      add_tag2 b 14 src dst;
      add_varint b id;
      add_varint b lc;
      add_bopt b parent
  | Rpc_done { src; dst; id; outcome; lc } ->
      add_tag2 b 15 src dst;
      add_varint b id;
      add_byte b (rpc_outcome_tag outcome);
      add_varint b lc
  | Span_start { span; parent; name; node } ->
      add_byte b 16;
      add_varint b span;
      add_bopt b parent;
      add_bstr b name;
      add_bopt b node
  | Span_end { span; name; node; dur } ->
      add_byte b 17;
      add_varint b span;
      add_bstr b name;
      add_bopt b node;
      add_bits b dur
  | Store_op { node; op; parent } ->
      add_byte b 18;
      add_varint b node;
      add_bstr b op;
      add_bopt b parent
  | Cache_hit { node; ckind; id; version; age } ->
      add_tag2 b 19 node id;
      add_byte b (cache_kind_tag ckind);
      add_varint b version;
      add_bits b age
  | Cache_miss { node; ckind; id } ->
      add_tag2 b 20 node id;
      add_byte b (cache_kind_tag ckind)
  | Cache_inval { node; set_id; version } ->
      add_tag2 b 21 node set_id;
      add_varint b version
  | Lease_expire { node; ckind; id } ->
      add_tag2 b 22 node id;
      add_byte b (cache_kind_tag ckind)
  | Spec_observe { set_id; phase; s; accessible } ->
      add_byte b 23;
      add_varint b set_id;
      add_phase b phase;
      add_belems b s;
      add_belems b accessible
  | Alert { source; op; severity; burn; window; detail } ->
      add_byte b 24;
      add_bstr b source;
      add_bstr b op;
      add_byte b (severity_tag severity);
      add_bits b burn;
      add_bits b window;
      add_bstr b detail
  | Spec_violation { set_id; where; message } ->
      add_byte b 25;
      add_varint b set_id;
      add_bstr b where;
      add_bstr b message
  | Custom { label; detail } ->
      add_byte b 26;
      add_bstr b label;
      add_bstr b detail

let write_binary b t =
  add_varint b t.seq;
  add_bits b t.time;
  write_binary_kind b t.kind

(* --- structured JSON (lossless; Event.of_json is the inverse) ------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Strings with nothing to escape (nearly all of them) go in with one
   blit. *)
let add_escaped b s =
  if not (String.exists needs_escape s) then add b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> add b "\\\""
        | '\\' -> add b "\\\\"
        | '\n' -> add b "\\n"
        | '\t' -> add b "\\t"
        | '\r' -> add b "\\r"
        | c when Char.code c < 0x20 ->
            add b "\\u00";
            addc b (hex_digit (Char.code c lsr 4));
            addc b (hex_digit (Char.code c land 0xf))
        | c -> addc b c)
      s

let json_escape s =
  if not (String.exists needs_escape s) then s else render add_escaped s

(* The runtime primitive behind [Printf]'s [%g] conversions. *)
external format_float : string -> float -> string = "caml_format_float"

(* Floats are rendered with 17 significant digits, which round-trips
   every finite double through [float_of_string]. *)
let add_jfloat b f = add b (format_float "%.17g" f)

let add_jstr b s =
  addc b '"';
  add_escaped b s;
  addc b '"'

(* [key] carries its own punctuation, e.g. [{|,"fid":|}]. *)
let int_field b key v =
  add b key;
  add_int b v

let str_field b key s =
  add b key;
  add_jstr b s

let float_field b key f =
  add b key;
  add_jfloat b f

(* Absent options are omitted. *)
let opt_field b key = function None -> () | Some v -> int_field b key v

let add_jelem b e =
  int_field b {|{"id":|} e.elem_id;
  str_field b {|,"label":|} e.elem_label;
  addc b '}'

let add_jelems b es =
  addc b '[';
  List.iteri
    (fun i e ->
      if i > 0 then addc b ',';
      add_jelem b e)
    es;
  addc b ']'

let write_kind_fields b = function
  | Fiber_spawn { fid; fiber } ->
      int_field b {|"kind":"fiber_spawn","fid":|} fid;
      str_field b {|,"fiber":|} fiber
  | Run_begin { fid; fiber } ->
      int_field b {|"kind":"run_begin","fid":|} fid;
      str_field b {|,"fiber":|} fiber
  | Run_end { fid; fiber; park } -> (
      int_field b {|"kind":"run_end","fid":|} fid;
      str_field b {|,"fiber":|} fiber;
      str_field b {|,"park":|} (park_base park);
      match park with Park_sleep wake -> float_field b {|,"wake":|} wake | _ -> ())
  | Fiber_crash { fiber; exn_text } ->
      str_field b {|"kind":"fiber_crash","fiber":|} fiber;
      str_field b {|,"exn":|} exn_text
  | Sched { at } -> float_field b {|"kind":"sched","at":|} at
  | Fault_node_crash { node } -> int_field b {|"kind":"fault_node_crash","node":|} node
  | Fault_node_recover { node } -> int_field b {|"kind":"fault_node_recover","node":|} node
  | Fault_link_cut { a; b = b' } ->
      int_field b {|"kind":"fault_link_cut","a":|} a;
      int_field b {|,"b":|} b'
  | Fault_link_heal { a; b = b' } ->
      int_field b {|"kind":"fault_link_heal","a":|} a;
      int_field b {|,"b":|} b'
  | Fault_partition -> add b {|"kind":"fault_partition"|}
  | Fault_heal_all -> add b {|"kind":"fault_heal_all"|}
  | Net_send { src; dst; lc } ->
      int_field b {|"kind":"net_send","src":|} src;
      int_field b {|,"dst":|} dst;
      int_field b {|,"lc":|} lc
  | Net_deliver { src; dst; sent_at; send_lc; lc } ->
      int_field b {|"kind":"net_deliver","src":|} src;
      int_field b {|,"dst":|} dst;
      float_field b {|,"sent_at":|} sent_at;
      int_field b {|,"send_lc":|} send_lc;
      int_field b {|,"lc":|} lc
  | Net_drop { src; dst; reason } ->
      int_field b {|"kind":"net_drop","src":|} src;
      int_field b {|,"dst":|} dst;
      str_field b {|,"reason":|} (drop_reason_string reason)
  | Rpc_call { src; dst; id; lc; parent } ->
      int_field b {|"kind":"rpc_call","src":|} src;
      int_field b {|,"dst":|} dst;
      int_field b {|,"id":|} id;
      int_field b {|,"lc":|} lc;
      opt_field b {|,"parent":|} parent
  | Rpc_done { src; dst; id; outcome; lc } ->
      int_field b {|"kind":"rpc_done","src":|} src;
      int_field b {|,"dst":|} dst;
      int_field b {|,"id":|} id;
      str_field b {|,"outcome":|} (rpc_outcome_string outcome);
      int_field b {|,"lc":|} lc
  | Span_start { span; parent; name; node } ->
      int_field b {|"kind":"span_start","span":|} span;
      str_field b {|,"name":|} name;
      opt_field b {|,"parent":|} parent;
      opt_field b {|,"node":|} node
  | Span_end { span; name; node; dur } ->
      int_field b {|"kind":"span_end","span":|} span;
      str_field b {|,"name":|} name;
      opt_field b {|,"node":|} node;
      float_field b {|,"dur":|} dur
  | Store_op { node; op; parent } ->
      int_field b {|"kind":"store_op","node":|} node;
      str_field b {|,"op":|} op;
      opt_field b {|,"parent":|} parent
  | Cache_hit { node; ckind; id; version; age } ->
      int_field b {|"kind":"cache_hit","node":|} node;
      str_field b {|,"ckind":|} (cache_kind_string ckind);
      int_field b {|,"id":|} id;
      int_field b {|,"version":|} version;
      float_field b {|,"age":|} age
  | Cache_miss { node; ckind; id } ->
      int_field b {|"kind":"cache_miss","node":|} node;
      str_field b {|,"ckind":|} (cache_kind_string ckind);
      int_field b {|,"id":|} id
  | Cache_inval { node; set_id; version } ->
      int_field b {|"kind":"cache_inval","node":|} node;
      int_field b {|,"set_id":|} set_id;
      int_field b {|,"version":|} version
  | Lease_expire { node; ckind; id } ->
      int_field b {|"kind":"lease_expire","node":|} node;
      str_field b {|,"ckind":|} (cache_kind_string ckind);
      int_field b {|,"id":|} id
  | Spec_observe { set_id; phase; s; accessible } ->
      int_field b {|"kind":"spec_observe","set_id":|} set_id;
      str_field b {|,"phase":|} (phase_string phase);
      (match phase with
      | Phase_suspends e | Phase_mutation (Spec_add e) | Phase_mutation (Spec_remove e) ->
          add b {|,"elem":|};
          add_jelem b e
      | _ -> ());
      add b {|,"s":|};
      add_jelems b s;
      add b {|,"acc":|};
      add_jelems b accessible
  | Alert { source; op; severity; burn; window; detail } ->
      str_field b {|"kind":"alert","source":|} source;
      str_field b {|,"op":|} op;
      str_field b {|,"severity":|} (severity_string severity);
      float_field b {|,"burn":|} burn;
      float_field b {|,"window":|} window;
      str_field b {|,"detail":|} detail
  | Spec_violation { set_id; where; message } ->
      int_field b {|"kind":"spec_violation","set_id":|} set_id;
      str_field b {|,"where":|} where;
      str_field b {|,"message":|} message
  | Custom { label; detail } ->
      str_field b {|"kind":"custom","clabel":|} label;
      str_field b {|,"detail":|} detail

let write_json b t =
  int_field b {|{"seq":|} t.seq;
  float_field b {|,"time":|} t.time;
  str_field b {|,"label":|} (label t.kind);
  addc b ',';
  write_kind_fields b t.kind;
  addc b '}'

let to_json t = render write_json t

(* --- JSON parsing: the inverse of [to_json] ------------------------- *)

exception Bad of string

(* Field [k] of [j] through [conv], or [Bad] naming the field. *)
let get conv j k = match Json.field k conv j with Ok v -> v | Error e -> raise (Bad e)

(* An enumeration field: a string that [of_string] accepts. *)
let enum of_string v = Option.bind (Json.to_string v) of_string

let felem j = { elem_id = get Json.to_int j "id"; elem_label = get Json.to_string j "label" }

let kind_of_json j =
  let int = get Json.to_int j and float = get Json.to_float j and str = get Json.to_string j in
  (* Absent (or null) options are [None]. *)
  let int_opt k =
    match Json.member k j with None | Some Json.Null -> None | Some _ -> Some (int k)
  in
  let elems k = List.map felem (get Json.to_list j k) in
  match str "kind" with
  | "fiber_spawn" -> Fiber_spawn { fid = int "fid"; fiber = str "fiber" }
  | "run_begin" -> Run_begin { fid = int "fid"; fiber = str "fiber" }
  | "run_end" ->
      let park =
        match str "park" with
        | "yield" -> Park_yield
        | "sleep" -> Park_sleep (float "wake")
        | "suspend" -> Park_suspend
        | "done" -> Park_done
        | "crash" -> Park_crash
        | p -> raise (Bad ("park " ^ p))
      in
      Run_end { fid = int "fid"; fiber = str "fiber"; park }
  | "fiber_crash" -> Fiber_crash { fiber = str "fiber"; exn_text = str "exn" }
  | "sched" -> Sched { at = float "at" }
  | "fault_node_crash" -> Fault_node_crash { node = int "node" }
  | "fault_node_recover" -> Fault_node_recover { node = int "node" }
  | "fault_link_cut" -> Fault_link_cut { a = int "a"; b = int "b" }
  | "fault_link_heal" -> Fault_link_heal { a = int "a"; b = int "b" }
  | "fault_partition" -> Fault_partition
  | "fault_heal_all" -> Fault_heal_all
  | "net_send" -> Net_send { src = int "src"; dst = int "dst"; lc = int "lc" }
  | "net_deliver" ->
      Net_deliver
        {
          src = int "src";
          dst = int "dst";
          sent_at = float "sent_at";
          send_lc = int "send_lc";
          lc = int "lc";
        }
  | "net_drop" ->
      Net_drop
        {
          src = int "src";
          dst = int "dst";
          reason = get (enum drop_reason_of_string) j "reason";
        }
  | "rpc_call" ->
      Rpc_call
        {
          src = int "src";
          dst = int "dst";
          id = int "id";
          lc = int "lc";
          parent = int_opt "parent";
        }
  | "rpc_done" ->
      Rpc_done
        {
          src = int "src";
          dst = int "dst";
          id = int "id";
          outcome = get (enum rpc_outcome_of_string) j "outcome";
          lc = int "lc";
        }
  | "span_start" ->
      Span_start
        {
          span = int "span";
          parent = int_opt "parent";
          name = str "name";
          node = int_opt "node";
        }
  | "span_end" ->
      Span_end
        {
          span = int "span";
          name = str "name";
          node = int_opt "node";
          dur = float "dur";
        }
  | "store_op" -> Store_op { node = int "node"; op = str "op"; parent = int_opt "parent" }
  | "cache_hit" ->
      Cache_hit
        {
          node = int "node";
          ckind = get (enum cache_kind_of_string) j "ckind";
          id = int "id";
          version = int "version";
          age = float "age";
        }
  | "cache_miss" ->
      Cache_miss
        {
          node = int "node";
          ckind = get (enum cache_kind_of_string) j "ckind";
          id = int "id";
        }
  | "cache_inval" ->
      Cache_inval { node = int "node"; set_id = int "set_id"; version = int "version" }
  | "lease_expire" ->
      Lease_expire
        {
          node = int "node";
          ckind = get (enum cache_kind_of_string) j "ckind";
          id = int "id";
        }
  | "spec_observe" ->
      let elem () = felem (get Option.some j "elem") in
      let phase =
        match str "phase" with
        | "first" -> Phase_first
        | "invocation-start" -> Phase_invocation_start
        | "invocation-retry" -> Phase_invocation_retry
        | "returns" -> Phase_returns
        | "fails" -> Phase_fails
        | "suspends" -> Phase_suspends (elem ())
        | "add" -> Phase_mutation (Spec_add (elem ()))
        | "remove" -> Phase_mutation (Spec_remove (elem ()))
        | p -> raise (Bad ("phase " ^ p))
      in
      Spec_observe
        { set_id = int "set_id"; phase; s = elems "s"; accessible = elems "acc" }
  | "alert" ->
      Alert
        {
          source = str "source";
          op = str "op";
          severity = get (enum severity_of_string) j "severity";
          burn = float "burn";
          window = float "window";
          detail = str "detail";
        }
  | "spec_violation" ->
      Spec_violation
        { set_id = int "set_id"; where = str "where"; message = str "message" }
  | "custom" -> Custom { label = str "clabel"; detail = str "detail" }
  | k -> raise (Bad ("kind " ^ k))

let of_json j =
  match
    { seq = get Json.to_int j "seq"; time = get Json.to_float j "time"; kind = kind_of_json j }
  with
  | e -> Ok e
  | exception Bad what -> Error ("Event.of_json: " ^ what)

let of_json_string s =
  match Json.of_string_opt s with
  | None -> Error "Event.of_json_string: malformed JSON"
  | Some j -> of_json j

let dummy = { seq = -1; time = 0.0; kind = Custom { label = ""; detail = "" } }
