(** Minimal JSON reader used by the trace toolchain ({!Trace},
    {!Event.of_json}) and the dump and repro-bundle parsers.  Numbers
    keep their original lexeme, so integer and float fields round-trip
    exactly through {!Event.to_json}'s [%d]/[%.17g] renderings.
    Intentionally tiny: no writer (events render themselves) and no
    external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** unparsed number lexeme *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [of_string s] parses one complete JSON value; raises {!Parse_error}
    on malformed input or trailing garbage. *)
val of_string : string -> t

val of_string_opt : string -> t option

(** [member k j] is the field [k] of object [j], if present. *)
val member : string -> t -> t option

val to_int : t -> int option
val to_float : t -> float option
val to_string : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option

(** [field k conv j] is field [k] of object [j] converted by [conv]
    (one of the [to_*] above, or [Option.some] for the raw value); the
    [Error] names [k] and says whether it was missing or ill-typed. *)
val field : string -> (t -> 'a option) -> t -> ('a, string) result

(** [map f l] applies [f] to every element of [l] in order and stops at
    the first [Error]. *)
val map : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
