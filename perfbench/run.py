#!/usr/bin/env python3
"""tcgrid benchmark: the `sweep`, `serve` and `fleet` workloads.

    python3 perfbench/run.py --workload sweep|serve|fleet [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke           # self-test at tiny sizes
    python3 perfbench/run.py --record SEED...  # extend perfbench/expected.json

Run from the root of a tcgrid checkout. The first run builds the library,
the tcgrid_serve daemon and perfbench_driver in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.

Workloads (closed loop: one client, one job at a time):
  sweep  in-process api::Session::run, threads=2, reduced m=5 grid,
         2 scenarios/cell x 2 trials (120 units), nine heuristics.
  serve  one stock tcgrid_serve daemon (--threads 2) over a unix socket;
         10 scenarios/cell x 2 trials (600 units), heuristics IP and IE.
  fleet  a coordinator-mode tcgrid_serve leasing the sweep spec to two
         --threads 1 shard daemons, each in its own process.

A run's inputs are six grid seeds derived from --seed (the first
is --seed itself); one job per grid seed makes a cycle, and whole cycles
repeat while --seconds allows. Throughputs are total rows over total time
within a cycle, CPU and RSS are per-job means, and the median over cycles is
reported. Every job's rows are checked against the digest recorded in
expected.json for its grid seed, or against an in-process reference run when
the seed is not recorded. Any mismatch makes `correct` false, counts the
unit as failed and makes the exit status 1.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
layers.json for what each measures and which end-to-end metric it should
move). The last stdout line is the result object; the line before it
records the host.
"""

import argparse
import collections
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
LAYERS = BENCH_DIR / "layers.json"

# A run's inputs are SEEDS_PER_RUN grid seeds, seed + j * SEED_STRIDE: one
# grid seed's work varies by about 12% (scale of the sample of scenarios), so
# a run averages six of them. The stride keeps the runs of nearby --seed
# values from sharing inputs.
SEEDS_PER_RUN = 6
SEED_STRIDE = 100003

WORKLOADS = {
    # spec: which driver spec the jobs run; threads/shards: the serving shape.
    "sweep": {"spec": "sweep", "threads": 2, "shards": 0},
    "serve": {"spec": "serve", "threads": 2, "shards": 0},
    "fleet": {"spec": "sweep", "threads": 1, "shards": 2},
}

REPLAYS = 30
DRIVER_TIMEOUT_S = 150
JOB_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170  # a run after the build must end within 180 s


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program being wrong)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build ----

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally. Returns the binaries."""
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    bins = {"driver": bdir / "perfbench_driver", "daemon": bdir / "tcgrid" / "tcgrid_serve"}
    for path in bins.values():
        if not path.exists():
            raise BenchError(f"missing build output {path}")
    return bins


# ----------------------------------------------------------------- driver ----

def driver(bins, *args):
    """Run perfbench_driver (exit 3: checks failed, reported in its JSON)."""
    cmd = [str(bins["driver"]), *map(str, args)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"driver timed out: {' '.join(cmd[1:])}")
    if proc.returncode not in (0, 3):
        raise BenchError(f"driver failed ({proc.returncode}): {' '.join(cmd[1:])}")
    return json.loads(out.decode().strip().splitlines()[-1])


def wait_measured(proc, timeout):
    """wait4 a child: (exit status, CPU seconds, peak RSS MiB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + 10
        time.sleep(0.002)


def grid_seeds(seed, count):
    return [seed + j * SEED_STRIDE for j in range(count)]


def fnv_digest(lines):
    """perfbench_driver's sorted_digest: FNV-1a over sorted lines + '\\n'."""
    h = 1469598103934665603
    mask = (1 << 64) - 1
    for line in sorted(lines):
        for c in line:
            h = ((h ^ c) * 1099511628211) & mask
        h = ((h ^ 10) * 1099511628211) & mask
    return f"{h:016x}"


class Expectations:
    """Row digests per (spec, grid seed): recorded, else computed in-process."""

    def __init__(self, bins, smoke):
        self.bins = bins
        self.smoke = smoke
        self.recorded = {}
        if EXPECTED.exists() and not smoke:
            self.recorded = json.loads(EXPECTED.read_text())["digests"]
        self.cache = {}

    def get(self, spec, grid_seed):
        key = (spec, grid_seed)
        if key not in self.cache:
            rec = self.recorded.get(spec, {}).get(str(grid_seed))
            if rec is None:
                args = ["reference", "--workload", spec, "--seed", grid_seed]
                rec = driver(self.bins, *args, *(["--smoke"] if self.smoke else []))
                rec["source"] = "in-process reference"
            else:
                rec = dict(rec, source="expected.json")
            self.cache[key] = rec
        return self.cache[key]

    def lines(self, spec, grid_seed, workdir):
        out = workdir / f"reference-{spec}-{grid_seed}.txt"
        driver(self.bins, "reference", "--workload", spec, "--seed", grid_seed,
               "--out", out, *(["--smoke"] if self.smoke else []))
        return out.read_bytes().splitlines()


# ------------------------------------------------------------ serve client ----

ROW_PREFIX = b'{"scenario":'


class Client:
    """NDJSON client over a unix socket. Reads in large chunks, so streaming
    1200 rows costs the client well under a millisecond."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(JOB_TIMEOUT_S)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = bytearray()

    def close(self):
        self.sock.close()

    def send(self, obj):
        self.sock.sendall(json.dumps(obj, separators=(",", ":")).encode() + b"\n")

    def lines(self):
        """Yield (line, arrival time of the chunk that completed it)."""
        while True:
            chunk = self.sock.recv(1 << 20)
            arrived = time.perf_counter()
            if not chunk:
                return
            self.buf += chunk
            *complete, tail = self.buf.split(b"\n")
            self.buf = bytearray(tail)
            for line in complete:
                yield bytes(line), arrived

    def call(self, obj):
        self.send(obj)
        for line, _ in self.lines():
            return json.loads(line)
        raise BenchError(f"daemon closed the connection on {obj.get('op')}")

    def results(self, job, wait):
        """Stream a job's rows: (rows, end record, arrival time of the last row)."""
        self.send({"op": "results", "job": job, "from": 0, "wait": wait})
        rows = []
        last = time.perf_counter()
        for line, arrived in self.lines():
            if not line.startswith(ROW_PREFIX):
                return rows, json.loads(line), last
            rows.append(line)
            last = arrived
        return rows, {"ok": False}, last


def wait_accepting(path, procs, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        try:
            Client(path).close()
            return
        except OSError:
            pass
        for p in procs:
            if p.poll() is not None:
                raise BenchError(f"daemon exited ({p.returncode}) before accepting")
        if time.monotonic() > deadline:
            raise BenchError(f"daemon never accepted on {path}")
        # Yield rather than sleep: a sleep's overshoot would be timed as
        # set-up, and it grows with host load.
        os.sched_yield()


def metric_sum(metrics, name, field="value"):
    return sum(m.get(field, 0) for m in metrics if m["name"] == name)


class Deployment:
    """Fresh daemons for one job: one stock daemon, or coordinator + shards."""

    def __init__(self, bins, workdir, tag, threads, shards):
        self.bins = bins
        self.workdir = workdir
        self.tag = tag
        self.threads = threads
        self.shards = shards
        self.procs = []
        self.shard_socks = []
        self.log = open(workdir / f"{tag}.log", "wb")

    def spawn(self, name, *args):
        cmd = [str(self.bins["daemon"]), "--socket", f"{name}.sock",
               "--root", f"{name}.root", *map(str, args)]
        p = subprocess.Popen(cmd, cwd=self.workdir, stdout=subprocess.DEVNULL, stderr=self.log)
        self.procs.append(p)
        return p

    def start(self):
        """Spawn and wait until ready for work; returns the set-up seconds."""
        t0 = time.perf_counter()
        if self.shards == 0:
            self.front = f"{self.tag}-d"
            self.spawn(self.front, "--threads", self.threads)
            wait_accepting(self.front_sock(), self.procs)
            return time.perf_counter() - t0
        for i in range(self.shards):
            name = f"{self.tag}-s{i}"
            self.spawn(name, "--threads", self.threads)
            self.shard_socks.append(f"{name}.sock")
        for sock in self.shard_socks:
            wait_accepting(sock, self.procs)
        self.front = f"{self.tag}-c"
        shard_args = [a for s in self.shard_socks for a in ("--shard", f"unix:{s}")]
        self.spawn(self.front, "--coordinator", *shard_args)
        wait_accepting(self.front_sock(), self.procs)
        client = Client(self.front_sock())
        try:
            deadline = time.monotonic() + 30
            while True:
                c = client.call({"op": "counters"})
                if c.get("coordinator", {}).get("live_shards") == self.shards:
                    return time.perf_counter() - t0
                if time.monotonic() > deadline:
                    raise BenchError("shards never registered with the coordinator")
                os.sched_yield()
        finally:
            client.close()

    def front_sock(self):
        return f"{self.front}.sock"

    def scrape(self):
        """metrics + counters of every daemon, front (coordinator) first."""
        out = []
        for sock in [self.front_sock()] + self.shard_socks:
            client = Client(sock)
            try:
                metrics = client.call({"op": "metrics", "format": "json"})["metrics"]
                counters = client.call({"op": "counters"})
            finally:
                client.close()
            out.append((metrics, counters))
        return out

    def stop(self):
        """SIGTERM every daemon, reap it: (summed CPU s, summed peak RSS MiB)."""
        cpu = rss = 0.0
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            if p.returncode is None:
                _, c, r = wait_measured(p, 20)
                cpu += c
                rss += r
        self.procs = []
        self.log.close()
        return cpu, rss

    def kill(self):
        for p in self.procs:
            if p.returncode is None:
                p.kill()
                try:
                    os.waitpid(p.pid, 0)
                except ChildProcessError:
                    pass
                p.returncode = -9
        self.procs = []
        if not self.log.closed:
            self.log.close()


# ------------------------------------------------------------------- jobs ----

def unit_of(line):
    head = json.loads(line)
    return head["scenario"], head["trial"]


def differing_units(a, b):
    """(scenario, trial) units whose row multisets differ between a and b."""
    ca, cb = collections.Counter(a), collections.Counter(b)
    return {unit_of(line) for line in (ca - cb) + (cb - ca)}


def daemon_job(bins, workdir, tag, wl, spec_json, expect, reference_lines, scrape=False):
    """One job on fresh daemons: set-up, submit to last row, replay, teardown.

    A unit fails on an error response, or when any of its rows is missing,
    duplicated or byte-different from the expected rows, or when the replay
    differs from what was streamed."""
    dep = Deployment(bins, workdir, tag, wl["threads"], wl["shards"])
    try:
        setup_s = dep.start()
        client = Client(dep.front_sock())
        try:
            t0 = time.perf_counter()
            sub = client.call({"op": "submit", "tenant": "bench", "job": tag, "spec": spec_json})
            if not sub.get("ok"):
                raise BenchError(f"submit refused: {sub}")
            units = sub["units"]
            rows, end, t_last = client.results(tag, wait=True)
            run_s = t_last - t0
            # The replay takes milliseconds: repeat it, keep the median.
            replay_times = []
            replay_ok = True
            for _ in range(REPLAYS):
                t1 = time.perf_counter()
                replay, replay_end, t_replay = client.results(tag, wait=False)
                replay_times.append(t_replay - t1)
                replay_ok = replay_ok and replay == rows and replay_end.get("ok")
            replay_s = statistics.median(replay_times)
        finally:
            client.close()
        scraped = dep.scrape() if scrape else None
        cpu_s, rss_mb = dep.stop()
    finally:
        dep.kill()
    if not (end.get("ok") and end.get("state") == "done"):
        failed = units
    else:
        bad = set()
        if len(rows) != expect["rows"] or fnv_digest(rows) != expect["digest"]:
            bad |= differing_units(rows, reference_lines()) or {"all"}
        if not replay_ok:
            bad |= differing_units(rows, replay) or {"all"}
        failed = units if "all" in bad else len(bad)
    return {
        "setup_s": setup_s, "run_s": run_s, "replay_s": replay_s, "rows": len(rows),
        "units": units, "failed": failed, "cpu_s": cpu_s, "rss_mb": rss_mb,
        "scraped": scraped,
    }


def sweep_job(bins, grid_seed, expect, smoke):
    """One in-process sweep repetition in its own process (CPU/RSS via wait4)."""
    cmd = [str(bins["driver"]), "sweep", "--seed", str(grid_seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    status, cpu_s, rss_mb = wait_measured(proc, DRIVER_TIMEOUT_S)
    if status != 0:
        raise BenchError(f"sweep repetition failed ({status})")
    d = json.loads(out.decode().strip().splitlines()[-1])
    ok = (d["digest"] == expect["digest"] and d["slots"] == expect["slots"]
          and d["rows"] == d["rows_expected"] == expect["rows"] and d["replay_match"])
    return {
        "setup_s": d["setup_s"], "run_s": d["run_s"], "replay_s": d["replay_s"],
        "rows": d["rows"], "units": d["units"], "failed": 0 if ok else d["units"],
        "cpu_s": cpu_s, "rss_mb": rss_mb,
    }


# ---------------------------------------------------------------- metrics ----

def end_to_end(cycles, setups, attempted, failed):
    def per_cycle(fn):
        return statistics.median(fn(c) for c in cycles)

    return {
        "rows_per_s": (per_cycle(lambda c: sum(j["rows"] for j in c) / sum(j["run_s"] for j in c)), "rows/s"),
        "cpu_s": (per_cycle(lambda c: statistics.fmean(j["cpu_s"] for j in c)), "s"),
        "rss_peak_mb": (per_cycle(lambda c: statistics.fmean(j["rss_mb"] for j in c)), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "replay_rows_per_s": (per_cycle(lambda c: sum(j["rows"] for j in c) / sum(j["replay_s"] for j in c)), "rows/s"),
    }


def serve_layer(jobs, wl):
    """serve.* per-layer metrics from the daemons' metrics/counters verbs.

    On `serve` a unit's service time is the daemon's claim-to-durable-commit
    histogram. On `fleet` it is the coordinator's lease-dispatch-to-merge
    histogram, and the work inside it is the shards' Session unit time; the
    difference is the lease overhead."""
    m = {}
    job = jobs[0]
    front = job["scraped"][0][0]
    shards = [x for metrics, _ in job["scraped"][1:] for x in metrics]
    everything = front + shards
    if wl["shards"]:
        svc_count = metric_sum(front, "tcgrid_coord_shard_service_us", "count")
        svc_sum = metric_sum(front, "tcgrid_coord_shard_service_us", "sum")
        work_count = metric_sum(shards, "tcgrid_session_unit_us", "count")
        work_sum = metric_sum(shards, "tcgrid_session_unit_us", "sum")
    else:
        svc_count = work_count = metric_sum(front, "tcgrid_serve_unit_service_us", "count")
        svc_sum = work_sum = metric_sum(front, "tcgrid_serve_unit_service_us", "sum")
    m["serve.unit_service_us_mean"] = svc_sum / svc_count if svc_count else 0.0
    workers = wl["threads"] * max(1, wl["shards"])
    m["serve.worker_idle_share"] = max(0.0, 1.0 - work_sum / 1e6 / (workers * job["run_s"]))
    fsyncs = [metric_sum([x for metrics, _ in j["scraped"] for x in metrics],
                         "tcgrid_serve_checkpoint_fsync_us", "count") for j in jobs]
    m["serve.checkpoint_fsyncs"] = fsyncs[0]
    fsync_sum = metric_sum(everything, "tcgrid_serve_checkpoint_fsync_us", "sum")
    m["serve.checkpoint_fsync_us_mean"] = fsync_sum / fsyncs[0] if fsyncs[0] else 0.0
    m["serve.evictions"] = metric_sum(everything, "tcgrid_serve_evictions_total")
    coord = job["scraped"][0][1].get("coordinator", {})
    for key in ("leased_units", "stolen_units", "duplicate_commits", "redispatched_units"):
        m[f"serve.{key}"] = coord.get(key, 0)
    m["serve.lease_overhead_us"] = (
        m["serve.unit_service_us_mean"] - work_sum / work_count
        if wl["shards"] and work_count else 0.0)
    return m, len(set(fsyncs)) == 1


# ------------------------------------------------------------------- runs ----

def host_record(bins, workload, wl):
    info = driver(bins, "host")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": workload,
        "threads": wl["threads"],
        "shards": wl["shards"],
        "build_type": info["build_type"],
        "compiler": info["compiler"],
    }


def spec_json_for(bins, spec, grid_seed, smoke):
    return driver(bins, "spec", "--workload", spec, "--seed", grid_seed, *(["--smoke"] if smoke else []))


def run_untraced(bins, workdir, workload, seed, seconds, smoke):
    wl = WORKLOADS[workload]
    seeds = grid_seeds(seed, 1 if smoke else SEEDS_PER_RUN)
    exp = Expectations(bins, smoke)
    expects = {g: exp.get(wl["spec"], g) for g in seeds}
    specs = {g: spec_json_for(bins, wl["spec"], g, smoke) for g in seeds} if workload != "sweep" else {}
    cycles, setups = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    n = 0
    while True:
        t_cycle = time.perf_counter()
        cycle = []
        for g in seeds:
            if workload == "sweep":
                job = sweep_job(bins, g, expects[g], smoke)
            else:
                job = daemon_job(bins, workdir, f"j{n}", wl, specs[g], expects[g],
                                 lambda g=g: exp.lines(wl["spec"], g, workdir))
            n += 1
            cycle.append(job)
            setups.append(job["setup_s"])
            attempted += job["units"]
            failed += job["failed"]
        cycles.append(cycle)
        elapsed = time.perf_counter() - t_start
        cycle_s = time.perf_counter() - t_cycle
        if smoke or elapsed + cycle_s > seconds:
            break
    metrics = end_to_end(cycles, setups, attempted, failed)
    extra = {"grid_seeds": seeds, "cycles": len(cycles),
             "jobs": [[round(j["rows"] / j["run_s"], 1), round(j["cpu_s"], 2), round(j["rss_mb"]),
                       round(j["setup_s"] * 1e3, 3), round(j["rows"] / j["replay_s"])]
                      for c in cycles for j in c],
             "expected_from": sorted({e["source"] for e in expects.values()})}
    return metrics, attempted, failed, extra


def run_traced(bins, workdir, workload, seed, smoke):
    wl = WORKLOADS[workload]
    layers = json.loads(LAYERS.read_text())["metrics"]
    exp = Expectations(bins, smoke)
    expect = exp.get(wl["spec"], seed)
    tr = driver(bins, "trace", "--workload", wl["spec"], "--seed", seed, *(["--smoke"] if smoke else []))
    units = tr["units"]
    attempted = units
    failed = 0
    problems = []
    if not (tr["digests_match"] and tr["digest"] == expect["digest"] and
            tr["metrics"]["sim.slots"] == expect["slots"]):
        problems.append("traced rows differ from the expected rows")
        failed = units
    if not tr["exact_repeat"]:
        problems.append(f"exact counts did not repeat: {tr['inexact']}")
    if not tr["consults_match"]:
        problems.append("scheduler wrapper missed engine consults")
    metrics = {name: 0 for name in layers}
    metrics.update(tr["metrics"])
    if workload != "sweep":
        spec_json = spec_json_for(bins, wl["spec"], seed, smoke)
        repeats = 2 if workload == "serve" else 1
        jobs = []
        for i in range(repeats):
            job = daemon_job(bins, workdir, f"t{i}", wl, spec_json, expect,
                             lambda: exp.lines(wl["spec"], seed, workdir), scrape=True)
            attempted += job["units"]
            failed += job["failed"]
            jobs.append(job)
        serve_metrics, fsyncs_exact = serve_layer(jobs, wl)
        if not fsyncs_exact:
            problems.append("serve.checkpoint_fsyncs did not repeat")
        metrics.update(serve_metrics)
        if wl["shards"]:
            shard_chains = sum(
                t["chain_store"]["chains"]
                for _, counters in jobs[0]["scraped"][1:]
                for t in counters["tenants"].values())
            metrics["serve.shard_chain_dup_ratio"] = shard_chains / tr["metrics"]["markov.chains"]
            sweep = sweep_job(bins, seed, expect, smoke)
            attempted += sweep["units"]
            failed += sweep["failed"]
            fleet_rate = jobs[0]["rows"] / jobs[0]["run_s"]
            metrics["serve.shards_vs_threads_ratio"] = fleet_rate / (sweep["rows"] / sweep["run_s"])
    missing = sorted(set(metrics) - set(layers))
    if missing:
        problems.append(f"unlisted per-layer metrics: {missing}")
    out = {name: (metrics[name], layers[name]["unit"]) for name in layers}
    extra = {"problems": problems, "untraced_s": tr["untraced_s"], "traced_s": tr["traced_s"],
             "expected_from": expect["source"]}
    return out, attempted, failed, extra, not problems


def emit(metrics, attempted, failed, correct):
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def one_run(bins, workload, seed, seconds, trace, smoke, workdir):
    """One benchmark run inside `workdir`, where the daemons' sockets live
    (relative socket paths stay clear of the unix-socket path length limit)."""
    wl = WORKLOADS[workload]
    os.chdir(workdir)
    print(json.dumps({"host": host_record(bins, workload, wl), "seed": seed}), flush=True)
    if trace:
        metrics, attempted, failed, extra, clean = run_traced(bins, workdir, workload, seed, smoke)
    else:
        metrics, attempted, failed, extra = run_untraced(bins, workdir, workload, seed, seconds, smoke)
        clean = True
    log(json.dumps(extra))
    correct = clean and failed == 0
    return metrics, attempted, failed, correct


def new_workdir():
    os.chdir(ROOT)
    workdir = build_dir().parent / f"perfbench-run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def smoke(bins):
    """Every workload once at tiny sizes, both modes; every metric present."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads(LAYERS.read_text())["metrics"]
    ok = True
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if set(want[1]) != set(layers):
        log(f"smoke: layers.json and BENCHMARK.json disagree: {sorted(set(want[1]) ^ set(layers))}")
        ok = False
    for name, spec in layers.items():
        if want[1].get(name) != spec["unit"]:
            log(f"smoke: unit of {name} differs between layers.json and BENCHMARK.json")
            ok = False
    for w in bench["workloads"]:
        for trace in (0, 1):
            workdir = new_workdir()
            try:
                metrics, attempted, failed, correct = one_run(bins, w["name"], 42, 1, trace, True, workdir)
            finally:
                os.chdir(ROOT)
                shutil.rmtree(workdir, ignore_errors=True)
            got = {k: u for k, (_, u) in metrics.items()}
            if got != want[trace] or not correct or attempted < 1:
                log(f"smoke: {w['name']} trace={trace} FAILED (correct={correct}, "
                    f"metric diff {sorted(set(got.items()) ^ set(want[trace].items()))})")
                ok = False
            else:
                log(f"smoke: {w['name']} trace={trace} ok ({len(got)} metrics)")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def record(bins, seeds):
    """Add the recorded digests for these --seed values to expected.json."""
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    digests = table.setdefault("digests", {})
    for seed in seeds:
        for spec in ("sweep", "serve"):
            for g in grid_seeds(seed, SEEDS_PER_RUN):
                if str(g) in digests.get(spec, {}):
                    continue
                rec = driver(bins, "reference", "--workload", spec, "--seed", g)
                digests.setdefault(spec, {})[str(g)] = {
                    "rows": rec["rows"], "slots": rec["slots"], "digest": rec["digest"]}
                log(f"recorded {spec} grid seed {g}: {rec['digest']} slots={rec['slots']}")
    for spec in digests:
        digests[spec] = dict(sorted(digests[spec].items(), key=lambda kv: int(kv[0])))
    table["host"] = host_record(bins, "sweep", WORKLOADS["sweep"])
    write_expected(table)
    return 0


def write_expected(table):
    """expected.json with one line per recorded grid seed."""
    out = ['{', f' "host": {json.dumps(table["host"])},', ' "digests": {']
    specs = list(table["digests"].items())
    for i, (spec, entries) in enumerate(specs):
        out.append(f'  "{spec}": {{')
        items = list(entries.items())
        for j, (seed, rec) in enumerate(items):
            out.append(f'   "{seed}": {json.dumps(rec)}' + ("," if j + 1 < len(items) else ""))
        out.append("  }" + ("," if i + 1 < len(specs) else ""))
    out += [" }", "}"]
    EXPECTED.write_text("\n".join(out) + "\n")


def on_timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args()
    if not (args.smoke or args.record or args.workload):
        ap.error("one of --workload, --smoke or --record is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        bins = build()
        if args.smoke:
            return smoke(bins)
        if args.record:
            return record(bins, args.record)
        signal.signal(signal.SIGALRM, on_timeout)
        signal.alarm(RUN_TIMEOUT_S)
        workdir = new_workdir()
        try:
            metrics, attempted, failed, correct = one_run(
                bins, args.workload, args.seed, args.seconds, args.trace, False, workdir)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    emit(metrics, attempted, failed, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
