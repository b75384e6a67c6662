module Inst = Repro_isa.Inst

type t = {
  btb : Repro_frontend.Btb.t;
  insts : Tool.Split.t;
  taken : Tool.Split.t;
  misses : Tool.Split.t;
}

let create ~entries ~assoc =
  { btb = Repro_frontend.Btb.create ~entries ~assoc;
    insts = Tool.Split.create ();
    taken = Tool.Split.create ();
    misses = Tool.Split.create () }

let feed t (i : Inst.t) =
  if i.warmup then begin
    if i.taken && Inst.is_branch i && i.kind <> Inst.Syscall
       && i.kind <> Inst.Return then
      Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
  end
  else begin
    let s = i.section in
    Tool.Split.incr t.insts s;
    if i.taken && Inst.is_branch i && i.kind <> Inst.Syscall
       && i.kind <> Inst.Return then begin
      Tool.Split.incr t.taken s;
      (match Repro_frontend.Btb.lookup t.btb ~pc:i.addr with
      | Some target when target = i.target -> ()
      | Some _ | None -> Tool.Split.incr t.misses s);
      Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
    end
  end

let observer t = feed t

let scope_get split = function
  | Branch_mix.Total -> Tool.Split.total split
  | Branch_mix.Only s -> Tool.Split.get split s

let insts t scope = scope_get t.insts scope
let taken_branches t scope = scope_get t.taken scope
let misses t scope = scope_get t.misses scope

let mpki t scope =
  let n = insts t scope in
  if n = 0 then nan
  else float_of_int (misses t scope) /. (float_of_int n /. 1000.0)

let miss_rate t scope =
  let n = taken_branches t scope in
  if n = 0 then nan else float_of_int (misses t scope) /. float_of_int n
