#!/usr/bin/env python3
"""The repo benchmark: two end-to-end workloads on the pinned campaign
sweep, and a per-layer ledger. See README.md in this directory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_quad_online --seed 42 --seconds 40 --trace 0

It builds `offramps-cli` and `offramps-perfbench` (into
$CARGO_TARGET_DIR, default `.bench_build`), measures the workload for
--seconds, checks every op's output, and prints one JSON result as the
last line of stdout: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("sweep_quad_online", "store_grown")
QUAD = "txn,power,acoustic,thermal"
SCENARIOS = 165
# Derived run-seed copies per scenario: 303 x 165 = 49,995 records
# (~110 MB) in the grown store; 120 x 165 = 19,800 in a sweep's store
# probe, which is the same op on a smaller store.
GROWN_COPIES = 303
PROBE_COPIES = 120
# The share of a sweep's window spent on store probes, after all of
# its timed campaigns.
PROBE_SHARE = 0.3
# Appends per store probe: one probe append is a short, I/O-bound
# sample, so a probe takes three.
PROBE_APPENDS = 3
# Warm reruns and analytics calls per op: short ops sample twice.
REPEATS = 2
SETUP_REPS = 3
MIN_OPS = 3
# The calibration's typical time on the reference box at T = 2. Times
# are reported at this host speed; see README.md, "Host speed".
CALIBRATION_REF_S = 0.04
OP_TIMEOUT_S = 150

PINNED_SEED = 42
PINNED_EVENTS = 69_887_995
# Recorded for seed 42; identical at --threads 1 and 2, and between
# cold and warm (cached) campaigns. `analytics` is over the
# GROWN_COPIES-fold store, `probe-analytics` over the PROBE_COPIES-fold.
PINNED = {
    "sweep_txn": "b4bac82e07f2cca646f6ec035ad291b5a61421ac1cb914fddb1da18c298d6dab",
    "sweep_quad_online": "b57e3ffbc104c6a83b71e47b050456bb58b3c0d8607812c0d9ae0605a9e86d84",
    "analytics": "45cb81079755ab77eea1d197d6c410911a93633bc837298ba012151b9f14b703",
    "probe-analytics": "cd9dfe6105c994a13e9f19a97f1461ca0d947a0c22f95c574cd427648eb5b244",
}
PINNED_WINDOWS_JUDGED = 232_380

END_TO_END = {
    "campaign_wall_s": "s",
    "events_per_s": "events/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "store_append_s": "s",
    "analytics_wall_s": "s",
    "setup_s": "s",
}
PER_LAYER_COUNTS = (
    "des.events",
    "des.wake_dedups",
    "des.spill_heap_hits",
    "verdict.windows_judged",
    "store.records",
)

_children = []


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot run or report here."""


# ---------------------------------------------------------------------------
# Environment


def repo_root():
    root = os.getcwd()
    for need in ("Cargo.toml", "src/bin/offramps-cli.rs", "crates/bench/Cargo.toml",
                 "perfbench/layers/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, need)):
            raise Failure(f"{need} not found: run from the root of a source checkout")
    return root


def build(root):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, binary in (("Cargo.toml", "offramps-cli"),
                             ("perfbench/layers/Cargo.toml", "offramps-perfbench")):
        cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path",
               os.path.join(root, manifest), "--bin", binary]
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Failure(f"cargo build of {binary} failed ({done.returncode})")
    cli = os.path.join(target, "release", "offramps-cli")
    tool = os.path.join(target, "release", "offramps-perfbench")
    return cli, tool


def filesystem_of(path):
    """The filesystem type of the mount holding `path` (/proc/mounts)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = re.sub(r"\\([0-7]{3})", lambda m: chr(int(m.group(1), 8)), parts[1])
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def revision(root):
    """The git revision when the checkout is a repository, and always a
    digest of the sources the benchmark builds."""
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    files = []
    for top in ("Cargo.toml", "src", "crates", "tools", "perfbench"):
        base = os.path.join(root, top)
        if os.path.isfile(base):
            files.append(top)
        for dirpath, dirnames, names in os.walk(base):
            dirnames.sort()
            for name in sorted(names):
                if name.endswith((".rs", ".toml", ".py")):
                    files.append(os.path.relpath(os.path.join(dirpath, name), root))
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return {"git": rev, "source_sha256": h.hexdigest()}


# ---------------------------------------------------------------------------
# Ops


class Proc:
    """One finished child process: exit code, host wall time, its CPU
    time and peak RSS (from wait4), and what it printed."""

    def __init__(self, code, wall_s, cpu_s, rss_mb, out, err):
        self.code, self.wall_s, self.cpu_s, self.rss_mb = code, wall_s, cpu_s, rss_mb
        self.out, self.err = out, err


def run_proc(argv, scratch):
    """Runs argv to completion, timing it around the subprocess."""
    out_path = os.path.join(scratch, "stdout.txt")
    err_path = os.path.join(scratch, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=scratch, stdout=out, stderr=err)
        _children.append(proc)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _children.remove(proc)
    with open(out_path, errors="replace") as f:
        text = f.read()
    with open(err_path, errors="replace") as f:
        errs = f.read()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, text, errs)


def counts_line(text):
    m = re.search(r"^runs: (\d+)\s+events: (\d+)", text, re.M)
    return (int(m.group(1)), int(m.group(2))) if m else None


class Bench:
    """One benchmark run: its scratch space, binaries, seed and the
    bookkeeping every op reports into."""

    def __init__(self, cli, tool, seed, scratch):
        self.cli, self.tool, self.seed, self.scratch = cli, tool, seed, scratch
        self.ops = stats.OpLog()
        pinned = seed == PINNED_SEED
        self.digests = stats.DigestBook(PINNED if pinned else None)
        self.expected_events = PINNED_EVENTS if pinned else None
        self.threads = min(len(os.sched_getaffinity(0)), 4)
        self.seq = 0
        # Calibration times, one before every timed op and one after the
        # last; each sample is (value, index of the calibration after it).
        self.cals = []
        self.samples = {name: [] for name in END_TO_END}
        # The campaign master seed: the benchmark seed's corpus-size
        # twin of the pinned corpus (seed 42 picks itself).
        proc = run_proc([tool, "corpus-seed", "--seed", str(seed), "--corpus", "4"], scratch)
        if proc.code != 0:
            raise Failure(f"corpus-seed failed: {proc.err.strip()}")
        picked = json.loads(proc.out)
        self.campaign_seed = picked["campaign_seed"]
        self.seed_candidates = picked["candidates"]

    def path(self, name):
        self.seq += 1
        return os.path.join(self.scratch, f"{self.seq:04d}-{name}")

    def calibrate(self):
        """Times the fixed calibration loop on T threads at once. No
        change to the program can move it, so it gives the host's speed
        around each op."""
        proc = run_proc([self.tool, "calibrate", "--threads", str(self.threads)], self.scratch)
        if proc.code != 0:
            raise Failure(f"calibrate failed: {proc.err.strip()}")
        passes = [float(s) for s in proc.out.split()]
        self.cals.append(sum(passes) / len(passes))

    def sample(self, name, value):
        self.samples[name].append((value, len(self.cals)))

    def campaign_args(self, workload, threads):
        args = [self.cli, "campaign", "--workloads", "mini", "--corpus", "4", "--sweep",
                "--seed", str(self.campaign_seed), "--threads", str(threads)]
        if workload != "sweep_txn":
            args += ["--detectors", QUAD, "--online"]
        return args

    def campaign(self, name, workload, threads, cache=None, warm=False, artifact=None):
        """One CLI campaign call and its checks. `artifact` names the
        digest the --json report must reproduce. Returns the Proc, or
        None when a check failed."""
        args = self.campaign_args(workload, threads)
        if cache:
            args += ["--cache", cache]
        report = self.path("report.json")
        args += ["--json", report]
        proc = run_proc(args, self.scratch)
        reasons = []
        if proc.code != 0:
            reasons.append(f"exit {proc.code}: {proc.err.strip()[-300:]}")
        counts = counts_line(proc.out)
        if counts is None:
            reasons.append("no runs:/events: line")
        elif counts[0] != SCENARIOS:
            reasons.append(f"runs {counts[0]} != {SCENARIOS}")
        else:
            if self.expected_events is None:
                self.expected_events = counts[1]
            if counts[1] != self.expected_events:
                reasons.append(f"events {counts[1]} != {self.expected_events}")
        if cache:
            want = f"hits={SCENARIOS} misses=0" if warm else f"hits=0 misses={SCENARIOS}"
            if want not in proc.out:
                reasons.append(f"cache line lacks {want!r}")
        if artifact and not reasons:
            reason = self.digests.check(artifact, stats.sha256_file(report))
            if reason:
                reasons.append(reason)
        if os.path.exists(report):
            os.remove(report)
        return proc if self.ops.record(name, reasons) else None

    def append(self, name, src, dst, copies):
        """Step (a): grow an empty store from the four-detector records
        in `src`."""
        proc = run_proc([self.tool, "append", "--src", src, "--dst", dst,
                         "--seed", str(self.campaign_seed), "--corpus", "4",
                         "--detectors", QUAD, "--online", "--copies", str(copies)],
                        self.scratch)
        reasons = []
        result = None
        if proc.code != 0:
            reasons.append(f"exit {proc.code}: {proc.err.strip()[-300:]}")
        else:
            try:
                result = json.loads(proc.out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                reasons.append("unparsable append report")
        want = copies * SCENARIOS
        if result is not None and result.get("records") != want:
            reasons.append(f"records {result.get('records')} != {want}")
        return result if self.ops.record(name, reasons) else None

    def analytics(self, name, store, artifact):
        proc = run_proc([self.cli, "analytics", "--cache", store], self.scratch)
        reasons = []
        if proc.code != 0:
            reasons.append(f"exit {proc.code}: {proc.err.strip()[-300:]}")
        else:
            reason = self.digests.check(artifact, stats.sha256_text(proc.out))
            if reason:
                reasons.append(reason)
        return proc if self.ops.record(name, reasons) else None

    def window(self, seconds, op, min_ops=MIN_OPS):
        """Repeats `op` for about `seconds` (at least `min_ops` times),
        starting another only when a typical op still fits. A
        calibration brackets every op."""
        deadline = time.perf_counter() + seconds
        durations = []
        while True:
            t0 = time.perf_counter()
            self.calibrate()
            op()
            durations.append(time.perf_counter() - t0)
            left = deadline - time.perf_counter()
            if len(durations) >= min_ops and left < stats.median(durations):
                self.calibrate()
                return

    def remove(self, path):
        if path and os.path.isdir(path):
            shutil.rmtree(path)


# ---------------------------------------------------------------------------
# Workloads


def add_campaign(bench, proc):
    bench.sample("campaign_wall_s", proc.wall_s)
    bench.sample("cpu_s", proc.cpu_s)
    bench.sample("peak_rss_mb", proc.rss_mb)


def setup(bench):
    """Every workload's set-up: the four-detector sweep at T threads
    into a fresh store, SETUP_REPS times, each timed into setup_s.
    Returns the last store; its 165 real records are what step (a)
    grows stores from."""
    stores = []

    def op():
        bench.remove(stores[-1] if stores else None)
        stores.append(bench.path("setup-store"))
        proc = bench.campaign(f"setup {len(stores)}", "sweep_quad_online", bench.threads,
                              cache=stores[-1], artifact="sweep_quad_online")
        if proc:
            bench.sample("setup_s", proc.wall_s)

    bench.window(0, op, min_ops=SETUP_REPS)
    return stores[-1]


def grow(bench, src, copies):
    """Step (a) into a fresh store. Returns the store, or None when the
    append failed."""
    dst = bench.path(f"store-x{copies}")
    grown = bench.append(f"append x{copies}", src, dst, copies)
    if grown:
        bench.sample("store_append_s", grown["append_s"])
        return dst
    bench.remove(dst)
    return None


def analyse(bench, store, artifact):
    """Step (c), REPEATS times."""
    for _ in range(REPEATS):
        proc = bench.analytics("analytics", store, artifact)
        if proc:
            bench.sample("analytics_wall_s", proc.wall_s)


def sweep(bench, seconds):
    """sweep_quad_online: full CLI campaigns at T threads for the
    window, then store probes (PROBE_APPENDS times step (a), then step
    (c), on a PROBE_COPIES-fold store) for its last PROBE_SHARE, so that
    no probe's writes run just before a timed campaign."""
    workload = "sweep_quad_online"
    src = setup(bench)

    def campaign():
        proc = bench.campaign("campaign", workload, bench.threads, artifact=workload)
        if proc:
            add_campaign(bench, proc)

    def probe():
        dst = None
        for _ in range(PROBE_APPENDS):
            bench.remove(dst)
            dst = grow(bench, src, PROBE_COPIES)
        if dst:
            bench.calibrate()
            analyse(bench, dst, "probe-analytics")
            bench.remove(dst)

    bench.window(seconds * (1 - PROBE_SHARE), campaign)
    if bench.seed != PINNED_SEED:
        # Pinned digests were recorded at both thread counts; a held-out
        # seed checks thread invariance with one op at 1 thread.
        bench.campaign("thread check", workload, 1, artifact=workload)
    bench.window(seconds * PROBE_SHARE, probe)


def store_grown(bench, seconds):
    """Append ~50k real records, rerun the campaign warm, run
    analytics: store, cache and analytics do all the work."""
    src = setup(bench)
    thread_checked = False

    def op():
        nonlocal thread_checked
        dst = grow(bench, src, GROWN_COPIES)
        if not dst:
            return
        bench.calibrate()
        for _ in range(REPEATS):
            proc = bench.campaign("warm rerun", "store_grown", bench.threads, cache=dst,
                                  warm=True, artifact="sweep_quad_online")
            if proc:
                add_campaign(bench, proc)
        bench.calibrate()
        analyse(bench, dst, "analytics")
        if bench.seed != PINNED_SEED and not thread_checked:
            thread_checked = True
            bench.campaign("thread check", "store_grown", 1, cache=dst, warm=True,
                           artifact="sweep_quad_online")
        bench.remove(dst)

    bench.window(seconds, op)


def end_to_end(bench, workload, seconds):
    if workload == "store_grown":
        store_grown(bench, seconds)
    else:
        sweep(bench, seconds)
    missing = [name for name in END_TO_END if name != "events_per_s" and not bench.samples[name]]
    if missing:
        raise Failure(f"no passing op measured {', '.join(missing)}: {bench.ops.failures[:3]}")
    raw = {name: [value for value, _ in bench.samples[name]] for name in END_TO_END}
    scaled = {name: stats.at_reference_speed(bench.samples[name], bench.cals,
                                             CALIBRATION_REF_S)
              for name in END_TO_END}
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    for values in (raw, scaled):
        values["events_per_s"] = [bench.expected_events / v for v in values["campaign_wall_s"]]
    detail = {name: stats.summary(values) for name, values in scaled.items()}
    detail["host_s"] = {name: stats.summary(values) for name, values in raw.items()}
    detail["calibration_s"] = stats.summary(bench.cals)
    detail["host_samples"] = bench.samples
    detail["calibrations"] = bench.cals
    metrics = {name: {"value": statistics.mean(scaled[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, detail


def traced(bench):
    """The per-layer ledger, plus the untraced campaigns its ratios
    divide by: both sweeps at --threads 1 (coverage) and the
    four-detector sweep at T (pool efficiency)."""
    txn1 = bench.campaign("sweep_txn @1", "sweep_txn", 1, artifact="sweep_txn")
    quad1 = bench.campaign("sweep_quad_online @1", "sweep_quad_online", 1,
                           artifact="sweep_quad_online")
    quad_t = bench.campaign(f"sweep_quad_online @{bench.threads}", "sweep_quad_online",
                            bench.threads, artifact="sweep_quad_online")
    out = bench.path("ledger")
    os.makedirs(out)
    proc = run_proc([bench.tool, "ledger", "--seed", str(bench.campaign_seed), "--corpus", "4",
                     "--copies", str(GROWN_COPIES), "--scratch", bench.scratch, "--out", out],
                    bench.scratch)
    reasons = []
    ledger = None
    if proc.code != 0:
        reasons.append(f"exit {proc.code}: {proc.err.strip()[-300:]}")
    else:
        ledger = json.loads(proc.out.strip().splitlines()[-1])
        for kind, name in (("sweep_txn", "txn.json"), ("sweep_quad_online", "quad.json")):
            reason = bench.digests.check(kind, stats.sha256_file(os.path.join(out, name)))
            if reason:
                reasons.append(f"ledger {reason}")
    if not bench.ops.record("ledger", reasons) or not (txn1 and quad1 and quad_t):
        raise Failure(f"traced run failed: {bench.ops.failures}")

    counts = ledger["counts"]
    pinned = {"des.events": bench.expected_events, "store.records": GROWN_COPIES * SCENARIOS}
    if bench.seed == PINNED_SEED:
        pinned["verdict.windows_judged"] = PINNED_WINDOWS_JUDGED
    drift = {k: (counts.get(k), v) for k, v in pinned.items() if counts.get(k) != v}
    if counts.get("campaign.events") != counts.get("des.events"):
        drift["campaign.events"] = (counts.get("campaign.events"), counts.get("des.events"))
    if drift:
        raise Failure(f"pinned work counts drifted (got, want): {drift}")

    layers = dict(ledger["layers"])
    layer_s = {w: layers.pop(f"trace.layers_s.{w}") for w in ("sweep_txn", "sweep_quad_online")}
    values = dict(layers)
    values["bench.pool_efficiency"] = quad_t.cpu_s / (bench.threads * quad_t.wall_s)
    values["trace.coverage.sweep_txn"] = layer_s["sweep_txn"] / txn1.wall_s
    values["trace.coverage.sweep_quad_online"] = layer_s["sweep_quad_online"] / quad1.wall_s
    for name in PER_LAYER_COUNTS:
        values[name] = counts[name]
    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in sorted(values.items())}
    detail = {"walls_s": {"sweep_txn@1": txn1.wall_s, "sweep_quad_online@1": quad1.wall_s,
                          f"sweep_quad_online@{bench.threads}": quad_t.wall_s},
              "layer_s": layer_s, "counts": counts}
    return metrics, detail


def layer_unit(name):
    if name in PER_LAYER_COUNTS:
        return "count"
    if name == "store.open_mb_per_s":
        return "MB/s"
    if name == "store.bytes_per_record":
        return "B"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("ns_per_event", "ns")):
        if suffix in name:
            return unit
    return "ratio"


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")

    root = repo_root()
    cli, tool = build(root)
    work = os.path.join(root, ".perfbench_work")
    made_work = not os.path.isdir(work)
    scratch = os.path.join(work, f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        bench = Bench(cli, tool, args.seed, scratch)
        env = {"nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
               "threads": bench.threads, "revision": revision(root),
               "store_filesystem": filesystem_of(scratch), "seed": args.seed,
               "campaign_seed": bench.campaign_seed,
               "seed_candidates": bench.seed_candidates,
               "workload": args.workload, "trace": args.trace, "seconds": args.seconds}
        log(f"{args.workload} seed={args.seed} campaign seed={bench.campaign_seed} "
            f"trace={args.trace} T={bench.threads}")
        if args.trace:
            metrics, detail = traced(bench)
        else:
            metrics, detail = end_to_end(bench, args.workload, args.seconds)
        env["events"] = bench.expected_events
    finally:
        stop_children()  # before the scratch goes, or they write into it again
        shutil.rmtree(scratch, ignore_errors=True)
        if made_work:
            try:
                os.rmdir(work)
            except OSError:
                pass  # another run's scratch is still in it

    ops = bench.ops
    env.update(attempted=ops.attempted, failed=ops.failed, error_rate=ops.error_rate,
               failures=ops.failures)
    print("perfbench-detail: " + json.dumps({"env": env, "metrics": detail}, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def stop_children():
    """Kills and reaps every child still running."""
    while _children:
        child = _children.pop()
        child.kill()
        child.wait()


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Failure as e:
        log(f"error: {e}")
        sys.exit(2)
    finally:
        stop_children()
