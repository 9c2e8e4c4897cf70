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

   Every rendering appends straight into a caller-owned [Buffer.t]: the
   digest feeds one event per bus emit, so these run on the hot path and
   avoid intermediate strings (JSON's decimal floats aside). *)

let add = Buffer.add_string
let addc = Buffer.add_char

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  addc b (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int], without the intermediate string. *)
let add_int b n = if n >= 0 then add_digits b n else add b (string_of_int n)

let hex_digit d = String.unsafe_get "0123456789abcdef" d

(* Exact, locale-independent float rendering, byte-for-byte what
   [Printf.sprintf "%h"] prints: sign, then [infinity] / [nan], or
   [0x] with the leading bit, the 52-bit fraction as hex digits with
   trailing zeros dropped, and a signed binary exponent (-1022 for
   subnormals).  Hex round-trips every finite double, so canonical
   strings are injective on time and duration fields. *)
let add_hexf b f =
  let bits = Int64.bits_of_float f in
  if Int64.compare bits 0L < 0 then addc b '-';
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.to_int bits land 0xf_ffff_ffff_ffff in
  if biased = 0x7ff then add b (if frac = 0 then "infinity" else "nan")
  else begin
    add b (if biased = 0 then "0x0" else "0x1");
    if frac <> 0 then begin
      addc b '.';
      let m = ref frac in
      while !m <> 0 do
        addc b (hex_digit (!m lsr 48));
        m := (!m lsl 4) land 0xf_ffff_ffff_ffff
      done
    end;
    let exp = if biased = 0 then if frac = 0 then 0 else -1022 else biased - 1023 in
    add b (if exp >= 0 then "p+" else "p");
    add_int b exp
  end

let add_node b n =
  addc b 'n';
  add_int b n

let add_opt_int b = function None -> addc b '-' | Some i -> add_int b i

let add_elem b e =
  add_int b e.elem_id;
  addc b ':';
  add b e.elem_label

let add_elems b es =
  List.iteri
    (fun i e ->
      if i > 0 then addc b ',';
      add_elem b e)
    es

let add_at_node b = function
  | None -> ()
  | Some n ->
      add b " @";
      add_node b n

(* [src->dst] of a network or RPC event. *)
let add_link b src dst =
  add_node b src;
  add b "->";
  add_node b dst

(* [verb #fid fiber] of a fiber event. *)
let add_fiber b verb fid fiber =
  add b verb;
  add_int b fid;
  addc b ' ';
  add b fiber

(* [verb na-nb] of a link fault. *)
let add_link_fault b verb x y =
  add b verb;
  add_node b x;
  addc b '-';
  add_node b y

(* [kind#id @node] of a cache event. *)
let add_cache_entry b ckind id node =
  add b (cache_kind_string ckind);
  addc b '#';
  add_int b id;
  add b " @";
  add_node b node

let write_detail b = function
  | Fiber_spawn { fid; fiber } -> add_fiber b "spawn #" fid fiber
  | Run_begin { fid; fiber } -> add_fiber b "begin #" fid fiber
  | Run_end { fid; fiber; park } -> (
      add_fiber b "end #" fid fiber;
      addc b ' ';
      match park with
      | Park_sleep wake ->
          add b "sleep until=";
          add_hexf b wake
      | p -> add b (park_base p))
  | Fiber_crash { fiber; exn_text } ->
      add b fiber;
      add b ": ";
      add b exn_text
  | Sched { at } ->
      add b "at=";
      add_hexf b at
  | Fault_node_crash { node } ->
      add b "crash ";
      add_node b node
  | Fault_node_recover { node } ->
      add b "recover ";
      add_node b node
  | Fault_link_cut { a; b = b' } -> add_link_fault b "cut " a b'
  | Fault_link_heal { a; b = b' } -> add_link_fault b "heal " a b'
  | Fault_partition -> add b "partition"
  | Fault_heal_all -> add b "heal-all"
  | Net_send { src; dst; lc } ->
      add b "send ";
      add_link b src dst;
      add b " lc=";
      add_int b lc
  | Net_deliver { src; dst; sent_at; send_lc; lc } ->
      add b "deliver ";
      add_link b src dst;
      add b " sent=";
      add_hexf b sent_at;
      add b " slc=";
      add_int b send_lc;
      add b " lc=";
      add_int b lc
  | Net_drop { src; dst; reason } ->
      add b "drop ";
      add_link b src dst;
      addc b ' ';
      add b (drop_reason_string reason)
  | Rpc_call { src; dst; id; lc; parent } ->
      add b "call#";
      add_int b id;
      addc b ' ';
      add_link b src dst;
      add b " lc=";
      add_int b lc;
      add b " parent=";
      add_opt_int b parent
  | Rpc_done { src; dst; id; outcome; lc } ->
      add b "done#";
      add_int b id;
      addc b ' ';
      add_link b src dst;
      addc b ' ';
      add b (rpc_outcome_string outcome);
      add b " lc=";
      add_int b lc
  | Span_start { span; parent; name; node } ->
      add b "start#";
      add_int b span;
      addc b ' ';
      add b name;
      add_at_node b node;
      add b " parent=";
      add_opt_int b parent
  | Span_end { span; name; node; dur } ->
      add b "end#";
      add_int b span;
      addc b ' ';
      add b name;
      add_at_node b node;
      add b " dur=";
      add_hexf b dur
  | Store_op { node; op; parent } ->
      add b op;
      add b " @";
      add_node b node;
      add b " parent=";
      add_opt_int b parent
  | Cache_hit { node; ckind; id; version; age } ->
      add b "hit ";
      add_cache_entry b ckind id node;
      add b " v=";
      add_int b version;
      add b " age=";
      add_hexf b age
  | Cache_miss { node; ckind; id } ->
      add b "miss ";
      add_cache_entry b ckind id node
  | Cache_inval { node; set_id; version } ->
      add b "inval ";
      add_cache_entry b Cache_dir set_id node;
      add b " v=";
      add_int b version
  | Lease_expire { node; ckind; id } ->
      add b "expire ";
      add_cache_entry b ckind id node
  | Spec_observe { set_id; phase; s; accessible } ->
      add b "set#";
      add_int b set_id;
      addc b ' ';
      add b (phase_string phase);
      (match phase with
      | Phase_suspends e | Phase_mutation (Spec_add e) | Phase_mutation (Spec_remove e) ->
          add b " e=";
          add_elem b e
      | _ -> ());
      add b " s=[";
      add_elems b s;
      add b "] acc=[";
      add_elems b accessible;
      addc b ']'
  | Alert { source; op; severity; burn; window; detail } ->
      addc b '[';
      add b (severity_string severity);
      add b "] ";
      add b source;
      addc b '/';
      add b op;
      add b " burn=";
      add_hexf b burn;
      add b " window=";
      add_hexf b window;
      addc b ' ';
      add b detail
  | Spec_violation { set_id; where; message } ->
      add b "set#";
      add_int b set_id;
      addc b ' ';
      add b where;
      add b ": ";
      add b message
  | Custom { detail; _ } -> add b detail

let write_canonical b t =
  add_int b t.seq;
  addc b '|';
  add_hexf b t.time;
  addc b '|';
  add b (label t.kind);
  addc b '|';
  write_detail b t.kind

let render write x =
  let b = Buffer.create 128 in
  write b x;
  Buffer.contents b

let detail k = render write_detail k
let to_canonical t = render write_canonical t

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

let req what = function Some v -> v | None -> raise (Bad what)

let fint j k = req k (Option.bind (Json.member k j) Json.to_int)
let ffloat j k = req k (Option.bind (Json.member k j) Json.to_float)
let fstr j k = req k (Option.bind (Json.member k j) Json.to_string)

let fint_opt j k =
  match Json.member k j with
  | None | Some Json.Null -> None
  | Some v -> Some (req k (Json.to_int v))

let felem j =
  { elem_id = fint j "id"; elem_label = fstr j "label" }

let felems j k =
  List.map felem (req k (Option.bind (Json.member k j) Json.to_list))

let kind_of_json j =
  match fstr j "kind" with
  | "fiber_spawn" -> Fiber_spawn { fid = fint j "fid"; fiber = fstr j "fiber" }
  | "run_begin" -> Run_begin { fid = fint j "fid"; fiber = fstr j "fiber" }
  | "run_end" ->
      let park =
        match fstr j "park" with
        | "yield" -> Park_yield
        | "sleep" -> Park_sleep (ffloat j "wake")
        | "suspend" -> Park_suspend
        | "done" -> Park_done
        | "crash" -> Park_crash
        | p -> raise (Bad ("park " ^ p))
      in
      Run_end { fid = fint j "fid"; fiber = fstr j "fiber"; park }
  | "fiber_crash" -> Fiber_crash { fiber = fstr j "fiber"; exn_text = fstr j "exn" }
  | "sched" -> Sched { at = ffloat j "at" }
  | "fault_node_crash" -> Fault_node_crash { node = fint j "node" }
  | "fault_node_recover" -> Fault_node_recover { node = fint j "node" }
  | "fault_link_cut" -> Fault_link_cut { a = fint j "a"; b = fint j "b" }
  | "fault_link_heal" -> Fault_link_heal { a = fint j "a"; b = fint j "b" }
  | "fault_partition" -> Fault_partition
  | "fault_heal_all" -> Fault_heal_all
  | "net_send" -> Net_send { src = fint j "src"; dst = fint j "dst"; lc = fint j "lc" }
  | "net_deliver" ->
      Net_deliver
        {
          src = fint j "src";
          dst = fint j "dst";
          sent_at = ffloat j "sent_at";
          send_lc = fint j "send_lc";
          lc = fint j "lc";
        }
  | "net_drop" ->
      Net_drop
        {
          src = fint j "src";
          dst = fint j "dst";
          reason = req "reason" (drop_reason_of_string (fstr j "reason"));
        }
  | "rpc_call" ->
      Rpc_call
        {
          src = fint j "src";
          dst = fint j "dst";
          id = fint j "id";
          lc = fint j "lc";
          parent = fint_opt j "parent";
        }
  | "rpc_done" ->
      Rpc_done
        {
          src = fint j "src";
          dst = fint j "dst";
          id = fint j "id";
          outcome = req "outcome" (rpc_outcome_of_string (fstr j "outcome"));
          lc = fint j "lc";
        }
  | "span_start" ->
      Span_start
        {
          span = fint j "span";
          parent = fint_opt j "parent";
          name = fstr j "name";
          node = fint_opt j "node";
        }
  | "span_end" ->
      Span_end
        {
          span = fint j "span";
          name = fstr j "name";
          node = fint_opt j "node";
          dur = ffloat j "dur";
        }
  | "store_op" ->
      Store_op { node = fint j "node"; op = fstr j "op"; parent = fint_opt j "parent" }
  | "cache_hit" ->
      Cache_hit
        {
          node = fint j "node";
          ckind = req "ckind" (cache_kind_of_string (fstr j "ckind"));
          id = fint j "id";
          version = fint j "version";
          age = ffloat j "age";
        }
  | "cache_miss" ->
      Cache_miss
        {
          node = fint j "node";
          ckind = req "ckind" (cache_kind_of_string (fstr j "ckind"));
          id = fint j "id";
        }
  | "cache_inval" ->
      Cache_inval
        { node = fint j "node"; set_id = fint j "set_id"; version = fint j "version" }
  | "lease_expire" ->
      Lease_expire
        {
          node = fint j "node";
          ckind = req "ckind" (cache_kind_of_string (fstr j "ckind"));
          id = fint j "id";
        }
  | "spec_observe" ->
      let elem () = felem (req "elem" (Json.member "elem" j)) in
      let phase =
        match fstr j "phase" with
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
        { set_id = fint j "set_id"; phase; s = felems j "s"; accessible = felems j "acc" }
  | "alert" ->
      Alert
        {
          source = fstr j "source";
          op = fstr j "op";
          severity = req "severity" (severity_of_string (fstr j "severity"));
          burn = ffloat j "burn";
          window = ffloat j "window";
          detail = fstr j "detail";
        }
  | "spec_violation" ->
      Spec_violation
        { set_id = fint j "set_id"; where = fstr j "where"; message = fstr j "message" }
  | "custom" -> Custom { label = fstr j "clabel"; detail = fstr j "detail" }
  | k -> raise (Bad ("kind " ^ k))

let of_json j =
  match
    { seq = fint j "seq"; time = ffloat j "time"; kind = kind_of_json j }
  with
  | e -> Ok e
  | exception Bad what -> Error ("Event.of_json: missing or bad field: " ^ what)

let of_json_string s =
  match Json.of_string_opt s with
  | None -> Error "Event.of_json_string: malformed JSON"
  | Some j -> of_json j

let pp fmt t =
  Format.fprintf fmt "[%d @%g] %s: %s" t.seq t.time (label t.kind)
    (detail t.kind)

let dummy = { seq = -1; time = 0.0; kind = Custom { label = ""; detail = "" } }
