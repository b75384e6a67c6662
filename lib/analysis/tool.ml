let run_all trace observers =
  match observers with
  | [] -> ()
  | [ f ] -> Repro_isa.Trace.iter trace f
  | fs ->
      let arr = Array.of_list fs in
      Repro_isa.Trace.iter trace (fun inst ->
          for i = 0 to Array.length arr - 1 do
            arr.(i) inst
          done)

module Source = struct
  type t = Repro_isa.Packed_trace.t

  let of_packed pt = pt
end

module Split = struct
  type t = { mutable serial : int; mutable parallel : int }

  let create () = { serial = 0; parallel = 0 }

  let incr t = function
    | Repro_isa.Section.Serial -> t.serial <- t.serial + 1
    | Repro_isa.Section.Parallel -> t.parallel <- t.parallel + 1

  let get t = function
    | Repro_isa.Section.Serial -> t.serial
    | Repro_isa.Section.Parallel -> t.parallel

  let total t = t.serial + t.parallel
end
