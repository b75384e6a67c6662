(* Benchmark helper for run.py. Every subcommand drives the program
   through its public entry points and prints one JSON object per
   line on stdout; run.py turns those lines into metrics.

     pb batch [--telemetry] SCALE ID...     one-shot renders, in order
     pb warm SOCKET PASSES PINGS ID...      sequential requests to a daemon
     pb load SOCKET CONNS SECONDS SEED ID...  closed-loop load on a daemon
     pb render SCALE REPEATS ID...          warm in-process renders
     pb layers SCALE                        per-layer calls, per profile

   With no ID, [batch] only does its set-up and exits: that is the
   batch set-up probe. *)

module Json = Repro_util.Json
module Telemetry = Repro_util.Telemetry
module Experiment = Repro_core.Experiment
module Client = Repro_core.Server.Client
module W = Repro_workload
module A = Repro_analysis
module Pt = Repro_isa.Packed_trace

(* One object per line: [Json.to_string] indents, and no string here
   holds a raw newline, so the layout collapses safely. *)
let emit fields =
  Json.to_string (Json.Obj fields)
  |> String.split_on_char '\n'
  |> List.map String.trim |> String.concat "" |> print_endline
let num f = Json.Num f
let count n = Json.Num (float_of_int n)
let now = Telemetry.now_ns
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)
let ms_since t0 = ns_since t0 /. 1e6

(* Time [f ()] in nanoseconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, ns_since t0)

let experiment s =
  match Experiment.of_string s with
  | Some id -> id
  | None -> failwith ("unknown experiment " ^ s)

let md5 text = Digest.to_hex (Digest.string text)

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* batch: what `repro_cli experiment ID` prints, for each ID in one
   fresh process at -j 1. *)

let rec count_spans name acc (s : Telemetry.span) =
  List.fold_left (count_spans name)
    (if s.sname = name then acc + 1 else acc)
    s.schildren

let batch ~telemetry scale ids =
  if telemetry then Telemetry.set_enabled true;
  let ids = List.map experiment ids in
  List.iter
    (fun id ->
      let text, ns =
        timed (fun () -> Repro_core.Report.run_to_string ~scale ~jobs:1 id)
      in
      emit
        [ ("id", Json.Str (Experiment.to_string id));
          ("md5", Json.Str (md5 text));
          ("ms", num (ns /. 1e6)) ])
    ids;
  if telemetry then begin
    let st = Repro_core.Engine.stats () in
    emit
      [ ("captures",
         count (List.fold_left (count_spans "trace.capture") 0 (Telemetry.spans ())));
        ("tasks_retried", count st.tasks_retried);
        ("tasks_failed", count st.tasks_failed) ]
  end

(* ------------------------------------------------------------------ *)
(* Daemon clients *)

let connect socket = Client.connect ~retry_for:60. ~socket ()

(* One experiment request: latency and the digest of the returned
   text, or ["error"] for a failed or refused request. *)
let fetch conn id =
  let req = Json.Obj [ ("op", Json.Str "experiment"); ("id", Json.Str id) ] in
  let resp, ns = timed (fun () -> Client.request conn req) in
  let digest =
    match resp with
    | Ok r -> (
        match (Json.member "ok" r, Json.member "text" r) with
        | Some (Json.Bool true), Some (Json.Str text) -> md5 text
        | _ -> "error")
    | Error _ -> "error"
  in
  (ns /. 1e6, digest)

let emit_fetch id (ms, digest) =
  emit [ ("id", Json.Str id); ("ms", num ms); ("md5", Json.Str digest) ]

let warm socket passes pings ids =
  let conn = connect socket in
  for _ = 1 to passes do
    List.iter (fun id -> emit_fetch id (fetch conn id)) ids
  done;
  let ping = Json.Obj [ ("op", Json.Str "ping") ] in
  for _ = 1 to pings do
    let resp, ns = timed (fun () -> Client.request conn ping) in
    let ok =
      match resp with
      | Ok r -> Json.member "ok" r = Some (Json.Bool true)
      | Error _ -> false
    in
    emit [ ("ping_ms", num (ns /. 1e6)); ("ok", Json.Bool ok) ]
  done;
  let stats =
    match Client.request conn (Json.Obj [ ("op", Json.Str "stats") ]) with
    | Ok r -> ( match Json.member "engine" r with Some e -> e | None -> Json.Null)
    | Error _ -> Json.Null
  in
  emit [ ("engine", stats) ];
  Client.close conn

(* Closed loop: each connection sends its next request only when the
   previous one has returned, and issues whole rounds of [ids] in an
   order shuffled per round from [seed], until [seconds] have passed
   at the start of a round. A connection stops at its first failed
   request. *)
let load socket conns seconds seed ids =
  let ids = Array.of_list ids in
  let conns = Array.init conns (fun _ -> connect socket) in
  let t_start = now () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let worker i =
    let rng = Random.State.make [| seed; i |] in
    let log = ref [] and failed = ref false in
    while (not !failed) && Int64.compare (now ()) deadline < 0 do
      let order = Array.copy ids in
      for k = Array.length order - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let x = order.(k) in
        order.(k) <- order.(j);
        order.(j) <- x
      done;
      Array.iter
        (fun id ->
          if not !failed then begin
            let r = fetch conns.(i) id in
            log := (id, r) :: !log;
            failed := snd r = "error"
          end)
        order
    done;
    List.rev !log
  in
  let logs = Array.make (Array.length conns) [] in
  let threads =
    Array.mapi (fun i _ -> Thread.create (fun () -> logs.(i) <- worker i) ()) conns
  in
  Array.iter Thread.join threads;
  let wall_ms = ms_since t_start in
  Array.iter Client.close conns;
  Array.iter (List.iter (fun (id, r) -> emit_fetch id r)) logs;
  emit [ ("window_ms", num wall_ms) ]

(* ------------------------------------------------------------------ *)
(* render: report-layer cost from warm state. The first render of
   each figure fills the memo (from the disk cache when a daemon has
   already computed it); the next [repeats] are timed. *)

let render scale repeats ids =
  List.iter
    (fun s ->
      let id = experiment s in
      ignore (Repro_core.Report.run_to_string ~scale ~jobs:1 id);
      let times =
        List.init repeats (fun _ ->
            snd (timed (fun () -> Repro_core.Report.run_to_string ~scale ~jobs:1 id)))
      in
      emit [ ("id", Json.Str s); ("ms", num (median times /. 1e6)) ])
    ids

(* ------------------------------------------------------------------ *)
(* layers: the batch pipeline re-enacted per profile through each
   layer's public calls, timed from here. Kernel and capture times
   have the decode or generation they contain subtracted. *)

let btb_configs =
  Array.of_list
    (List.concat_map (fun e -> List.map (fun a -> (e, a)) [ 2; 4; 8 ]) [ 256; 512; 1024 ])

let icache_configs =
  Array.of_list
    (List.concat_map
       (fun size -> List.map (fun a -> A.Icache_sweep.cfg (size, 64, a)) [ 2; 4; 8 ])
       [ 8192; 16384; 32768 ])

let bp_specs = Array.of_list (List.map A.Bp_sweep.of_name Repro_frontend.Zoo.all_names)

let file_bytes path = (Unix.stat path).Unix.st_size

let layers scale =
  let noop (_ : Repro_isa.Inst.t) = () in
  let sums = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k))
  in
  let stores = ref [] and finds = ref [] and sizes = ref [] in
  (* Store and read back one artifact through the persistent cache. *)
  let cache_roundtrip : type a. W.Profile.t -> string -> a -> unit =
   fun p kind v ->
    let key = Repro_core.Cache.key ~profile:p ~scale ~kind in
    let (), st = timed (fun () -> Repro_core.Cache.store key v) in
    let (found : a option), fd = timed (fun () -> Repro_core.Cache.find key) in
    if found = None then failwith ("cache lost " ^ kind);
    stores := st :: !stores;
    finds := fd :: !finds;
    sizes := float_of_int (file_bytes (Repro_core.Cache.path key)) :: !sizes
  in
  List.iter
    (fun (p : W.Profile.t) ->
      let insts = max 50_000 (int_of_float (float_of_int p.total_insts *. scale)) in
      let e, t = timed (fun () -> W.Executor.create ~insts p) in
      add "codegen_ns" t;
      let (), gen = timed (fun () -> W.Executor.run e noop) in
      add "gen_ns" gen;
      let pt, t = timed (fun () -> W.Executor.packed e) in
      add "capture_ns" (t -. gen);
      add "packed_ns" t;
      let n = float_of_int (Pt.length pt) in
      add "insts" n;
      add "bytes" (float_of_int (Pt.byte_size pt));
      let conds = ref 0 and redirects = ref 0 in
      let (), rf = timed (fun () -> Pt.replay pt noop) in
      let (), rc = timed (fun () -> Pt.replay_conditionals pt (fun _ -> incr conds)) in
      let (), rr = timed (fun () -> Pt.replay_redirects pt (fun _ -> incr redirects)) in
      add "replay_ns" (rf +. rc +. rr);
      add "conds" (float_of_int !conds);
      add "redirects" (float_of_int !redirects);
      let src = A.Tool.Source.of_packed pt in
      let bp, t = timed (fun () -> A.Bp_sweep.run src bp_specs) in
      add "bp_ns" t;
      add "bp_kernel_ns" (t -. rc);
      let btb, t = timed (fun () -> A.Btb_sweep.run src btb_configs) in
      add "btb_ns" t;
      add "btb_kernel_ns" (t -. rr);
      let ic, t = timed (fun () -> A.Icache_sweep.run src icache_configs) in
      add "icache_ns" t;
      add "icache_kernel_ns" (t -. rf);
      let charz, t = timed (fun () -> A.Characterization.of_profile ~insts p) in
      add "charz_ns" t;
      let cmp, t =
        timed (fun () ->
            Repro_uarch.Cmp.evaluate_many ~insts Repro_uarch.Cmp.standard_configs p)
      in
      add "cmp_ns" t;
      let total = A.Branch_mix.Total in
      cache_roundtrip p "perfbench.charz" charz;
      cache_roundtrip p "perfbench.cmp" cmp;
      cache_roundtrip p "perfbench.bp"
        (Array.map (fun r -> (A.Bp_sweep.mpki r total, A.Bp_sweep.mpki_ci r total)) bp);
      cache_roundtrip p "perfbench.btb"
        (Array.map (fun r -> (A.Btb_sweep.mpki r total, A.Btb_sweep.mpki_ci r total)) btb);
      cache_roundtrip p "perfbench.icache"
        (Array.map
           (fun r -> (A.Icache_sweep.mpki r total, A.Icache_sweep.mpki_ci r total))
           ic))
    W.Suites.all;
  let fields = Hashtbl.fold (fun k v acc -> (k, num v) :: acc) sums [] in
  emit
    (List.sort compare fields
    @ [ ("benches", count (List.length W.Suites.all));
        ("bp_configs", count (Array.length bp_specs));
        ("btb_configs", count (Array.length btb_configs));
        ("icache_configs", count (Array.length icache_configs));
        ("store_ms", num (median !stores /. 1e6));
        ("find_ms", num (median !finds /. 1e6));
        ("entry_bytes", num (List.fold_left ( +. ) 0. !sizes /. float_of_int (List.length !sizes))) ])

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: pb batch [--telemetry] SCALE ID... | warm SOCKET PASSES PINGS ID... \
     | load SOCKET CONNS SECONDS SEED ID... | render SCALE REPEATS ID... \
     | layers SCALE";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "batch" :: "--telemetry" :: scale :: ids ->
      batch ~telemetry:true (float_of_string scale) ids
  | "batch" :: scale :: ids -> batch ~telemetry:false (float_of_string scale) ids
  | "warm" :: socket :: passes :: pings :: ids ->
      warm socket (int_of_string passes) (int_of_string pings) ids
  | "load" :: socket :: conns :: seconds :: seed :: ids ->
      load socket (int_of_string conns) (float_of_string seconds)
        (int_of_string seed) ids
  | "render" :: scale :: repeats :: ids ->
      render (float_of_string scale) (int_of_string repeats) ids
  | [ "layers"; scale ] -> layers (float_of_string scale)
  | _ -> usage ()
