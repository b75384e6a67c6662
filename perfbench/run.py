#!/usr/bin/env python3
"""End-to-end benchmark of frontend-repro.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bp-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

It builds the CLI and the helper (perfbench/pb.ml) with dune, runs one
workload, checks every rendered table against perfbench/expected.json,
and prints one JSON result as its last stdout line. The line before it
is a record of the run's surroundings (cores, 1-minute load average at
start and end, hypervisor steal time, sample counts), for spotting a
run disturbed from outside; it holds no gated metric.

Workloads (defaults: packed + fused, unsampled, LRU; each run gets
empty private cache directories and a scrubbed REPRO_* environment):

  bp-sweep     fig5 at scale 0.3, fresh processes at -j 1
  fetch-sweep  fig7 then fig8 at scale 0.3, fresh processes at -j 1
  charz-cmp    fig1, fig10, then tab1/fig2/fig3/fig4/fig11 from memo,
               scale 0.2, fresh processes at -j 1
  serve-warm   a `repro_cli serve --serve-workers 2 -j 1` daemon at
               scale 0.05, loaded by 2 closed-loop connections

A batch run measures whole fresh-process invocations (INVOCATIONS; each
4-14 s on 2 cores) and reports their median; --seconds is the serve
load window.
Set-up is measured several times per run and reported as a median:
batch set-up is spawn-to-ready of a fresh process, serve set-up is
spawn-to-ready plus one warm pass.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
is a separate traced run: the workload again with Telemetry on, the
layer calls re-enacted per profile from pb.ml, and a probe of the
report and server layers at the serve scale.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = os.path.join("_build", "default", "bin", "repro_cli.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
WORK = "_perfbench"

# charz-cmp runs below the sweeps' scale, so that a run of three
# invocations stays shorter than a bp-sweep run.
FULL = {"batch_scale": {"bp-sweep": 0.3, "fetch-sweep": 0.3,
                        "charz-cmp": 0.2},
        "serve_scale": 0.05, "setups": 3,
        "batch_setups": 15, "probe_passes": 5, "pings": 50}
SMOKE = {"batch_scale": {"bp-sweep": 0.01, "fetch-sweep": 0.01,
                         "charz-cmp": 0.01},
         "serve_scale": 0.01, "setups": 1,
         "batch_setups": 3, "probe_passes": 1, "pings": 5}

BATCH = {
    "bp-sweep": ["fig5"],
    "fetch-sweep": ["fig7", "fig8"],
    "charz-cmp": ["fig1", "fig10", "tab1", "fig2", "fig3", "fig4", "fig11"],
}
SERVE = "serve-warm"
# The warm pass covers every paper figure except fig8p/fig10p, whose
# tables a planned I-cache replacement fix will change.
WARM = ["fig1", "fig2", "tab1", "fig3", "fig4", "fig5", "fig6", "fig7",
        "fig8", "fig9", "tab2", "tab3", "fig10", "fig11"]
# The load mix: 13 equally weighted figures. Warm render costs fall in
# classes (six under 1 ms, fig6 about 1 ms, five at 3-7 ms, fig2 about
# 20 ms, fig3 about 400 ms); without fig2 the median request is fig6,
# the middle of a class rather than the edge between two.
MIX = [f for f in WARM if f != "fig2"]
SERVE_CONNS = 2
# Batch times swing with the machine's other load. Over ten
# one-invocation runs on a shared 2-core VM the quartile spread of
# wall_s reached 27% (bp-sweep), 24% (fetch-sweep) and 30% (charz-cmp);
# the median of several invocations per run damps it.
INVOCATIONS = {"bp-sweep": 3, "fetch-sweep": 2, "charz-cmp": 3}
BENCHES = 41


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------
# Processes

def child_env(cache):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "OCAMLRUNPARAM"}
    env["REPRO_CACHE_DIR"] = cache
    return env


def fresh_dir(run_dir, name):
    path = os.path.join(run_dir, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def reap(proc, timeout):
    """Block until proc exits (killed after timeout s); its rusage."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    _, status, ru = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ru


def run(args, cache, timeout=170):
    """Run a fresh process to completion: (stdout lines, wall s, rusage)."""
    out_path = os.path.join(cache, "..", "stdout")
    err_path = os.path.join(cache, "..", "stderr")
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, env=child_env(cache), stdout=out,
                             stderr=err)
        ru = reap(p, timeout)
        wall = time.perf_counter() - t0
        if p.returncode != 0:
            err.seek(0)
            raise BenchError("%s exited %d: %s" % (
                " ".join(args), p.returncode, err.read().strip()[-500:]))
        out.seek(0)
        lines = out.read().splitlines()
    return lines, wall, ru


def parse(lines):
    return [json.loads(l) for l in lines if l.startswith("{")]


class Daemon:
    """A `repro_cli serve` process on a private socket and cache."""

    def __init__(self, run_dir, name, scale, trace=False):
        self.cache = fresh_dir(run_dir, name)
        self.scale = scale
        self.sock = os.path.join(run_dir, name + ".sock")
        self.log = open(os.path.join(run_dir, name + ".log"), "w+")
        env = child_env(self.cache)
        if trace:
            env["REPRO_TRACE"] = "1"
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--scale", str(scale), "--serve-workers", "2",
             "-j", "1", "--socket", self.sock],
            env=env, stdout=subprocess.DEVNULL, stderr=self.log)
        self.rusage = None

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.rusage is not None:
            return
        # Not reaped yet, so the signal lands even if it already exited.
        os.kill(self.proc.pid, signal.SIGTERM)
        self.rusage = reap(self.proc, 30)
        self.log.seek(0)
        self.stderr = self.log.read()
        self.log.close()


# ---------------------------------------------------------------------
# Checks and statistics

class Checks:
    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def digest(self, scale, fig, md5):
        self.attempted += 1
        if md5 != self.expected[str(scale)].get(fig):
            self.failed += 1
            return False
        return True

    def missing(self, n):
        """n expected outputs never arrived."""
        self.attempted += n
        self.failed += n


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def loadavg():
    return round(os.getloadavg()[0], 2)


def steal_s():
    """Time the hypervisor ran something else on this machine's CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------
# Batch workloads

def batch_setup(run_dir, scale, n):
    """Batch set-up: spawn of a fresh process until it is ready to run
    its first experiment. A batch user pays it on every run, so it is
    a few milliseconds; the median of n spawns keeps it repeatable."""
    times = []
    for i in range(n):
        cache = fresh_dir(run_dir, "setup")
        _, wall, _ = run([PB, "batch", str(scale)], cache)
        times.append(wall)
    return statistics.median(times)


def batch_invocation(run_dir, name, scale, figs, checks, telemetry=False):
    cache = fresh_dir(run_dir, name)
    args = [PB, "batch"] + (["--telemetry"] if telemetry else []) \
        + [str(scale)] + figs
    lines, wall, ru = run(args, cache)
    rows = parse(lines)
    rendered = [r for r in rows if "md5" in r]
    for r in rendered:
        checks.digest(scale, r["id"], r["md5"])
    checks.missing(len(figs) - len(rendered))
    shutil.rmtree(cache, ignore_errors=True)
    extra = [r for r in rows if "captures" in r]
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "tel": extra[0] if extra else None}


def batch_e2e(workload, cfg, run_dir, checks, record):
    figs = BATCH[workload]
    scale = cfg["batch_scale"][workload]
    setup = batch_setup(run_dir, scale, cfg["batch_setups"])
    # One request of a batch user is one fresh-process invocation.
    runs = [batch_invocation(run_dir, "run", scale, figs, checks)
            for _ in range(INVOCATIONS[workload])]
    walls = [r["wall_s"] for r in runs]
    record["requests"] = len(runs)
    record["walls_s"] = [round(w, 3) for w in walls]
    record["setup_samples"] = cfg["batch_setups"]
    return {"wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": setup,
            "throughput_rps": len(runs) / sum(walls),
            "req_p50_ms": percentile(walls, 0.50) * 1e3,
            "req_p99_ms": percentile(walls, 0.99) * 1e3}


# ---------------------------------------------------------------------
# Serve workload

def warm_pass(daemon, figs, checks, passes=1, pings=0):
    lines, _, _ = run([PB, "warm", daemon.sock, str(passes), str(pings)]
                      + figs, daemon.cache)
    rows = parse(lines)
    fetched = [r for r in rows if "md5" in r]
    for r in fetched:
        checks.digest(daemon.scale, r["id"], r["md5"])
    checks.missing(len(figs) * passes - len(fetched))
    pings = [r["ping_ms"] for r in rows if "ping_ms" in r]
    checks.attempted += len(pings)
    checks.failed += sum(1 for r in rows if "ping_ms" in r and not r["ok"])
    engine = [r["engine"] for r in rows if "engine" in r]
    return fetched, pings, (engine[0] if engine else {})


def serve_setup(run_dir, name, scale, checks, trace=False):
    """Spawn-to-ready plus one warm pass over WARM."""
    d = Daemon(run_dir, name, scale, trace=trace)
    try:
        warm_pass(d, WARM, checks)
    except BaseException:
        d.stop()
        raise
    d.setup_s = time.perf_counter() - d.t0
    return d


def serve_load(d, seconds, seed, checks):
    lines, _, _ = run([PB, "load", d.sock, str(SERVE_CONNS), str(seconds),
                       str(seed)] + MIX, d.cache, timeout=seconds + 120)
    rows = parse(lines)
    window_ms = [r["window_ms"] for r in rows if "window_ms" in r][0]
    lat, failed = [], 0
    for r in rows:
        if "md5" in r:
            ok = checks.digest(d.scale, r["id"], r["md5"])
            failed += not ok
            # A failed request misses every latency limit: it counts as
            # taking the whole window.
            lat.append(r["ms"] if ok else window_ms)
    return lat, failed, window_ms / 1e3


def serve_e2e(cfg, run_dir, checks, record, seed, seconds):
    scale = cfg["serve_scale"]
    setups = []
    for k in range(cfg["setups"] - 1):
        d = serve_setup(run_dir, "setup%d" % k, scale, checks)
        d.stop()
        setups.append(d.setup_s)
        shutil.rmtree(d.cache, ignore_errors=True)
    d = serve_setup(run_dir, "daemon", scale, checks)
    try:
        setups.append(d.setup_s)
        cpu0 = d.cpu_s()
        lat, failed, window = serve_load(d, seconds, seed, checks)
        cpu1 = d.cpu_s()
    finally:
        d.stop()
    record["requests"] = len(lat)
    record["beyond_p99"] = len(lat) - math.ceil(0.99 * len(lat))
    record["setup_samples"] = len(setups)
    return {"wall_s": window, "cpu_s": cpu1 - cpu0,
            "peak_rss_mb": d.rusage.ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
            "throughput_rps": (len(lat) - failed) / window,
            "req_p50_ms": percentile(lat, 0.50),
            "req_p99_ms": percentile(lat, 0.99)}


# ---------------------------------------------------------------------
# Traced run

def probe(cfg, run_dir, checks):
    """Report and server layers at the serve scale: a daemon's cold
    set-up, pings and warm requests per figure, then the same figures
    rendered in-process from the disk cache the daemon filled."""
    scale = cfg["serve_scale"]
    n = cfg["probe_passes"]
    d = serve_setup(run_dir, "probe", scale, checks)
    try:
        fetched, pings, _ = warm_pass(d, WARM, checks, passes=n,
                                      pings=cfg["pings"])
    finally:
        d.stop()
    lines, _, _ = run([PB, "render", str(scale), str(n)] + WARM, d.cache)
    render = {r["id"]: r["ms"] for r in parse(lines)}
    req = {f: statistics.median(r["ms"] for r in fetched if r["id"] == f)
           for f in WARM}
    return {"setup_s": d.setup_s, "render": render, "req": req,
            "ping_ms": statistics.median(pings)}


def capture_count(report):
    """Sum of `trace.capture` span counts in a Telemetry report."""
    total = 0
    for line in report.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "trace.capture":
            total += int(parts[1].rstrip("x"))
    return total


def layer_metrics(lay):
    insts = lay["insts"]
    return {
        "executor.codegen_ms": lay["codegen_ns"] / 1e6,
        "executor.gen_ns_per_inst": lay["gen_ns"] / insts,
        "packed.capture_ns_per_inst": lay["capture_ns"] / insts,
        "packed.bytes_per_inst": lay["bytes"] / insts,
        "packed.replay_ns_per_inst": lay["replay_ns"] / insts,
        "bp_sweep.ns_per_cond_config":
            lay["bp_kernel_ns"] / (lay["conds"] * lay["bp_configs"]),
        "btb_sweep.ns_per_redirect_config":
            lay["btb_kernel_ns"] / (lay["redirects"] * lay["btb_configs"]),
        "icache_sweep.ns_per_inst_config":
            lay["icache_kernel_ns"] / (insts * lay["icache_configs"]),
        # of_profile generates its own stream: keep only the tools.
        "characterization.ns_per_inst":
            (lay["charz_ns"] - lay["codegen_ns"] - lay["gen_ns"]) / insts,
        "cmp.ms_per_bench": lay["cmp_ns"] / lay["benches"] / 1e6,
        "cache.store_ms": lay["store_ms"],
        "cache.find_ms": lay["find_ms"],
        "cache.kb_per_entry": lay["entry_bytes"] / 1024.0,
    }


def modeled_ns(workload, lay, captures):
    """The untraced run's time as the layer numbers account for it:
    each layer's re-enacted time, times how often the workload calls
    it."""
    per_entry = lay["store_ms"] * 1e6
    capture = captures / lay["benches"] * (lay["codegen_ns"] + lay["packed_ns"])
    if workload == "bp-sweep":
        return capture + lay["bp_ns"] + BENCHES * per_entry
    if workload == "fetch-sweep":
        return capture + lay["btb_ns"] + lay["icache_ns"] + 2 * BENCHES * per_entry
    return lay["charz_ns"] + lay["cmp_ns"] + 2 * BENCHES * per_entry


def traced(workload, cfg, run_dir, checks, record, seed, seconds):
    m = {}
    if workload in BATCH:
        scale = cfg["batch_scale"][workload]
        figs = BATCH[workload]
        plain = batch_invocation(run_dir, "plain", scale, figs, checks)
        tel = batch_invocation(run_dir, "traced", scale, figs, checks,
                               telemetry=True)
        captures = tel["tel"]["captures"]
        engine = tel["tel"]
        overhead = tel["wall_s"] - plain["wall_s"]
        base_wall = plain["wall_s"]
    else:
        scale = cfg["serve_scale"]
    lines, _, _ = run([PB, "layers", str(scale)], fresh_dir(run_dir, "layers"))
    lay = parse(lines)[0]
    m.update(layer_metrics(lay))
    pr = probe(cfg, run_dir, checks)
    if workload == SERVE:
        # The serve workload again, with the daemon's Telemetry on.
        d = serve_setup(run_dir, "traced", scale, checks, trace=True)
        try:
            serve_load(d, seconds, seed, checks)
            _, _, engine = warm_pass(d, [], checks)
        finally:
            d.stop()
        captures = capture_count(d.stderr)
        overhead = d.setup_s - pr["setup_s"]
        base_wall = pr["setup_s"]
        share = sum(pr["render"][f] for f in MIX) / sum(pr["req"][f] for f in MIX)
    else:
        share = modeled_ns(workload, lay, captures) / 1e9 / base_wall
    m["packed.captures_per_bench"] = captures / BENCHES
    m["engine.tasks_retried"] = engine.get("tasks_retried", 0)
    m["engine.tasks_failed"] = engine.get("tasks_failed", 0)
    m["report.render_ms"] = statistics.median(pr["render"][f] for f in MIX)
    for f in WARM:
        m["report.%s_ms" % f] = pr["render"][f]
    m["server.ping_ms"] = pr["ping_ms"]
    # Per request of the load mix: daemon request time minus the same
    # figure's in-process render time.
    m["server.overhead_ms"] = statistics.mean(
        pr["req"][f] - pr["render"][f] for f in MIX)
    m["trace.overhead_s"] = overhead
    m["trace.layer_share"] = share
    record["untraced_wall_s"] = base_wall
    record["layer_scale"] = scale
    return m


# ---------------------------------------------------------------------

def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def build():
    for need in ("dune-project", os.path.join("bin", "repro_cli.ml"),
                 os.path.join("lib", "core", "report.ml")):
        if not os.path.exists(need):
            raise BenchError("not a frontend-repro checkout: %s missing" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune not found")
    # No shared dune cache: the build reads and writes only the checkout.
    p = subprocess.run(["dune", "build", "--cache=disabled", "--root", ".",
                        os.path.relpath(CLI, "_build/default"),
                        os.path.relpath(PB, "_build/default")],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=880)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout[-2000:])


def print_expected():
    """Digests of what `repro_cli experiment ID --scale S` prints, one
    fresh process and cache each: the contents of expected.json."""
    plan = {str(FULL["serve_scale"]): set(WARM),
            str(SMOKE["serve_scale"]): set(WARM)}
    for cfg in (FULL, SMOKE):
        for w, figs in BATCH.items():
            plan.setdefault(str(cfg["batch_scale"][w]), set()).update(figs)
    run_dir = os.path.join(WORK, "expected-%d" % os.getpid())
    out = {}
    for scale, figs in plan.items():
        out[scale] = {}
        for fig in sorted(figs):
            cache = fresh_dir(run_dir, "cache")
            p = subprocess.run([CLI, "experiment", fig, "--scale", scale,
                                "-j", "1"], env=child_env(cache),
                               stdout=subprocess.PIPE, check=True)
            out[scale][fig] = hashlib.md5(p.stdout).hexdigest()
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out, indent=1, sort_keys=True))


def run_one(workload, seed, seconds, trace, cfg, digests):
    run_dir = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    checks = Checks(digests)
    record = {"workload": workload, "seed": seed,
              "nproc": len(os.sched_getaffinity(0)), "load1_start": loadavg()}
    steal0 = steal_s()
    try:
        if trace:
            metrics = traced(workload, cfg, run_dir, checks, record, seed,
                             seconds)
        elif workload == SERVE:
            metrics = serve_e2e(cfg, run_dir, checks, record, seed, seconds)
        else:
            metrics = batch_e2e(workload, cfg, run_dir, checks, record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["load1_end"] = loadavg()
    record["steal_s"] = round(steal_s() - steal0, 2)
    return metrics, checks, record


def result_line(metrics, checks, units):
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    })


def smoke(digests):
    """Every workload once, untraced and traced, at a tiny scale; every
    metric name and unit must match BENCHMARK.json."""
    bench = spec()
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in bench[key]}
        for w in [x["name"] for x in bench["workloads"]]:
            metrics, checks, _ = run_one(w, 1, 2, trace, SMOKE, digests)
            missing = sorted(set(units) - set(metrics))
            extra = sorted(set(metrics) - set(units))
            bad = [k for k in units if k in metrics
                   and not isinstance(metrics[k], (int, float))]
            good = not (missing or extra or bad) and checks.failed == 0
            ok = ok and good
            print("smoke %-12s trace=%d %s%s%s%s" % (
                w, trace, "ok" if good else "FAIL",
                " missing=%s" % missing if missing else "",
                " extra=%s" % extra if extra else "",
                " failed=%d/%d" % (checks.failed, checks.attempted)
                if checks.failed else ""))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at a tiny scale")
    ap.add_argument("--print-expected", action="store_true",
                    help="print fresh contents for expected.json")
    args = ap.parse_args()
    # A stop signal unwinds through the finally blocks that stop daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        if args.print_expected:
            print_expected()
            return
        digests = expected()
        if args.smoke:
            sys.exit(0 if smoke(digests) else 1)
        bench = spec()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError("--workload must be one of %s" % names)
        metrics, checks, record = run_one(args.workload, args.seed,
                                          args.seconds, args.trace, FULL,
                                          digests)
        key = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in bench[key]}
        print(json.dumps({"record": record}))
        print(result_line(metrics, checks, units))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
