(** Instruction-cache simulation (paper Figs. 8 and 9).

    Fetch is modelled as the paper describes it: instructions are
    extracted sequentially from the current line without re-accessing
    the cache until the run crosses into a new line (sequentially or
    via a taken branch); each new line is one cache access. Line
    usefulness (consumed bytes per fetched line) is reported by the
    underlying {!Repro_frontend.Icache}. *)

type t

val create :
  ?next_line_prefetch:bool -> ?policy:Repro_frontend.Replacement.spec ->
  size_bytes:int -> line_bytes:int -> assoc:int -> unit -> t
(** [policy] defaults to {!Repro_frontend.Replacement.Lru}. *)

val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit

val insts : t -> Branch_mix.scope -> int
val misses : t -> Branch_mix.scope -> int
val mpki : t -> Branch_mix.scope -> float
val accesses : t -> int
val usefulness : t -> float
val cache : t -> Repro_frontend.Icache.t
(** The underlying cache (prefetch counters, storage). *)
