(** Branch-predictor simulation (paper Figs. 5 and 6): drives a
    {!Repro_frontend.Predictor.t} with the conditional-branch stream
    and reports mispredictions per kilo-instruction (MPKI, normalized
    by *all* executed instructions), split by section and broken down
    by the kind of outcome that was mispredicted. *)

type t

val create : Repro_frontend.Predictor.t -> t
(** The predictor instance is owned (and trained) by this tool. *)

(** Static schemes the compiler/decoder could implement without any
    prediction storage; BTFN (backward-taken, forward-not-taken) is
    the natural baseline for the paper's bias findings. *)
type static = Always_taken | Always_not_taken | Btfn

val create_static : static -> t
(** Zero-storage static predictor (the decoder knows the branch's
    direction/offset, so BTFN reads the instruction's target). *)

val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit

val predictor_name : t -> string
val insts : t -> Branch_mix.scope -> int
val conditional_branches : t -> Branch_mix.scope -> int
val mispredictions : t -> Branch_mix.scope -> int

val mpki : t -> Branch_mix.scope -> float
(** Mispredictions per 1000 instructions in scope. *)

val misprediction_rate : t -> Branch_mix.scope -> float
(** Mispredictions per conditional branch. *)

(** Fig. 6 breakdown: what the branch actually did when mispredicted. *)
type cause = On_not_taken | On_taken_backward | On_taken_forward

val causes : cause list
val cause_to_string : cause -> string

val mpki_by_cause : t -> Branch_mix.scope -> cause -> float
