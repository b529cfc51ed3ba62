(** SPICE-format netlist parser.

    Supported cards (case-insensitive):
    {v
      Rname n1 n2 value           Cname n1 n2 value [IC=v]
      Lname n1 n2 value [IC=v]
      Vname n+ n- [DC v] [AC mag [phase]] [PULSE(...)|SIN(...)|PWL(...)]
      Iname n+ n- ...same as V...
      Ename n+ n- c+ c- gain      Gname n+ n- c+ c- gm
      Fname n+ n- vsrc gain       Hname n+ n- vsrc rm
      Dname n+ n- model [area]
      Qname nc nb ne model [area]
      Mname nd ng ns nb model [W=v] [L=v]
      Xname n1 ... SUBCKT [p=v ...]
      .subckt NAME n1 ... [p=v ...] / .ends
      .model NAME d|npn|pnp|nmos|pmos [(] k=v ... [)]
      .param k=v ...
      .temp t
      .op  .ac dec|lin n f1 f2  .tran tstep tstop  .stab node|all
      .nodeset v(n)=val ...   .options k=v ...   .include "file"
      .end
    v}
    The first line is the title (SPICE convention) unless it is itself a
    card. Values may be engineering-notation numbers or braced
    [{expressions}] over parameters. Continuation lines start with [+];
    [*] starts a comment line, [;] and [$ ] trailing comments. Subcircuits
    are flattened at parse time: internal devices and nets are prefixed
    with ["xinst."]. *)

exception Parse_error of { line : int; message : string }

val parse_string :
  ?name:string -> ?base_dir:string -> ?first_line_title:bool -> string ->
  Netlist.t
(** Parse a complete netlist from a string. [.include] paths resolve
    relative to [base_dir] (default: the current directory). With
    [first_line_title] (what {!parse_file} uses) the first line is always
    the SPICE title; by default a heuristic keeps inline snippets that
    start directly with cards working. Raises {!Parse_error}. *)

val parse_file : string -> Netlist.t
(** Parse a netlist file; the file name becomes the default title. *)

val read_file : string -> string
(** A netlist file's bytes as {!parse_file} reads them: as many as the
    file's length reports, so a device path cannot stream without bound
    (a pipe, which has no length, raises [Sys_error]). Raises
    [Sys_error]. *)

val parse_file_text : string -> string -> Netlist.t
(** [parse_file_text path text] parses [text] as if it had been read
    from [path]: {!parse_file}'s settings (first line is the title, the
    basename is the default title, [.include] resolves next to [path])
    without reading the file again. *)

val expand_includes : ?base_dir:string -> string -> string
(** Splice every [.include "file"] line's file into [text], recursively
    (paths relative to [base_dir], default the current directory, and
    then to the including file). Lines are split and rejoined on ['\n']
    only, so text without [.include] comes back byte-identical; text in
    which no line can be an [.include] card (no ['.'] followed by
    "include", in any case) comes back as the argument itself. A
    missing file or nesting deeper than 8 (a file that includes itself)
    raises {!Parse_error} at the top-level line of the [.include] that
    started the chain. {!parse_string} expands first; calling this
    alone gives the exact text a deck's fingerprint should cover. *)
