(** Result emission for the sweep harness: RFC-4180 CSV and JSON.

    The CLI's [sweep --csv] used to interpolate fields with [%s],
    silently producing an unparseable file the day a field grows a
    comma; this module owns the quoting rules and the file I/O so the
    behaviour is testable without running the binary.  The JSON side
    serves [sweep --json] and the Chrome-trace exporter
    ({!Timeline}). *)

val csv_field : string -> string
(** Quote a field if (and only if) it contains a comma, a double
    quote, or a line break; embedded double quotes are doubled
    (RFC 4180). *)

val csv_line : string list -> string
(** Escape each field, join with commas, terminate with ["\n"]. *)

val write_file : path:string -> (out_channel -> unit) -> (unit, string) result
(** Create [path] and fill it through the channel.  Any failure to
    open, write or flush it (a missing directory, a permission, a full
    disk) is reported as [Error message] — never an exception — so
    callers exit cleanly with a diagnostic. *)

val write_csv :
  path:string ->
  header:string list ->
  rows:string list list ->
  (unit, string) result
(** Write a header plus rows to [path]; errors are reported like
    {!write_file}. *)

type json =
  | Jnull
  | Jbool of bool
  | Jint of int
  | Jfloat of float
  | Jstring of string
  | Jlist of json list
  | Jobj of (string * json) list

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal: quotes,
    backslashes, and control characters (RFC 8259). *)

val json_to_string : json -> string
(** Compact (single-line) rendering.  Floats print with the fewest
    digits of [%.12g] / [%.15g] / [%.16g] / [%.17g] that parse back to
    the same double (integral values keep a trailing [.0]), so
    [parse (json_to_string j) = Ok j] for every value free of
    non-finite floats; NaN/infinity render as [null] (they have no
    JSON encoding). *)

val write_json : path:string -> json -> (unit, string) result
(** Write the rendered value plus a trailing newline to [path]; errors
    are reported like {!write_csv}. *)

val parse : string -> (json, string) result
(** Strict recursive-descent parser for the grammar {!json_to_string}
    emits (RFC 8259): the serve protocol's receiving half.  Accepts a
    single JSON value with surrounding whitespace; strings decode every
    escape including [\uXXXX] surrogate pairs (to UTF-8); integer
    literals that fit the native [int] parse as {!Jint}, fractional /
    exponent / oversized ones as {!Jfloat}.  Every malformed input —
    truncated text, duplicate object keys, lone surrogates, unescaped
    control characters, trailing garbage, nesting beyond 512 levels —
    returns [Error "JSON parse error at offset N: ..."], never raises:
    the daemon feeds it whatever bytes a client chooses to send. *)

val member : string -> json -> json option
(** Field of a {!Jobj} ([None] for absent keys or non-objects). *)

val to_int : json -> int option
val to_float : json -> float option
(** {!Jfloat} or (widened) {!Jint}. *)

val to_string : json -> string option
val to_bool : json -> bool option
val to_list : json -> json list option

val parse_perf_rows :
  string -> (((string * string * string) * float) list * int, string) result
(** Read a [BENCH_sim.json] perf file (the line-oriented format the
    bench harness writes: one result object per line) and return its
    [((benchmark, scheme, path), instrs_per_sec)] rows in file order,
    plus the number of malformed result lines that were skipped
    (truncated mid-object, missing fields, unparseable or non-finite
    numbers).  Tolerant by design — a stale or corrupt perf artifact
    must degrade to a warning, not fail CI: only an unreadable file is
    an [Error]; a file with no recognisable rows is [Ok ([], n)] and
    the caller decides how loudly to complain. *)
