(** Analysis-tool plumbing: the moral equivalent of running several
    pintools over one instrumented execution. Each tool is an
    [Inst.t -> unit] observer; {!run_all} drives a trace through many
    observers in a single pass, which matters because trace generation
    dominates runtime. *)

val run_all : Repro_isa.Trace.t -> (Repro_isa.Inst.t -> unit) list -> unit
(** One pass, observers called in list order per instruction. *)

(** The source every sweep kernel ({!Bp_sweep}, {!Btb_sweep},
    {!Icache_sweep}) replays: a packed capture, generated once per
    (benchmark, scale). The alias is kept for callers that build
    kernel inputs through it. *)
module Source : sig
  type t = Repro_isa.Packed_trace.t

  val of_packed : Repro_isa.Packed_trace.t -> t
end

(** Per-section tallies many tools need. *)
module Split : sig
  type t = { mutable serial : int; mutable parallel : int }

  val create : unit -> t
  val incr : t -> Repro_isa.Section.t -> unit
  val get : t -> Repro_isa.Section.t -> int
  val total : t -> int
end
