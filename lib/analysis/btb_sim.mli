(** Branch-target-buffer simulation (paper Fig. 7).

    Every taken branch looks its own address up in the BTB; a miss —
    either absent or present with a stale target, as happens for
    indirect branches — costs a fetch redirect and counts toward BTB
    MPKI. Taken branches (re)install their target. Syscalls are
    excluded (traps do not use the BTB), and so are returns: a return
    address stack predicts them, and in a single-threaded trace the
    RAS is exact. *)

type t

val create : entries:int -> assoc:int -> t
val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit

val insts : t -> Branch_mix.scope -> int
val taken_branches : t -> Branch_mix.scope -> int
val misses : t -> Branch_mix.scope -> int
val mpki : t -> Branch_mix.scope -> float
val miss_rate : t -> Branch_mix.scope -> float
