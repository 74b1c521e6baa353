#!/usr/bin/env python3
"""pipecache benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # every workload once, tiny inputs
    python3 perfbench/run.py --report         # every workload, human table
    python3 perfbench/run.py --pin            # re-pin the output digests

Builds the library, the tools and the benchmark harnesses from the
checkout (Release, into .bench_build/), makes the workload's inputs
from the seed, measures for --seconds, checks every output, and
prints one JSON object as the last line of stdout. With --trace 0 the
metrics are the end-to-end ones (setup_s, run_s, peak_rss_mb, ok_frac);
with --trace 1 a separate traced run reports the per-layer metrics and
writes a Chrome trace into .bench_work/. NOTES.md says why each
workload and metric exists and records how steady they are.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK_ROOT = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("repro", "grid", "stream", "serve")
EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5", "table6",
               "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
               "fig11", "fig12", "fig12dyn", "fig13", "optimizer")
SIZES_KW = (1, 2, 4, 8, 16, 32, 64)

# Input sizes. FULL is what a measured run uses; SMOKE is the
# benchmark's own test. Scale is the suite divisor (bigger = smaller
# suite traces). See NOTES.md for why these sizes.
FULL = {"repro_scale": 8000, "grid_scale": 1000, "stream_records": 4_000_000,
        "serve_scale": 2000, "serve_requests": 120, "serve_grids": 24}
SMOKE = {"repro_scale": 200000, "grid_scale": 100000,
         "stream_records": 40_000, "serve_scale": 100000,
         "serve_requests": 12, "serve_grids": 4}

SETUP_SAMPLES = 5          # set-up launches per run (median reported)
CHILD_TIMEOUT_S = 150      # hard cap on any one child process
DAEMON_THREADS = 2         # serve: 2 daemon workers + 2 connections
CONNECTIONS = 2


class BenchError(Exception):
    """The benchmark cannot produce a result (build, launch, protocol)."""


# ---------------------------------------------------------------- build

E2E_TARGETS = ["pcbench", "pipecache_sweep", "pipecache_sweepd"]
ALL_TARGETS = E2E_TARGETS + ["pcbench_trace"]


def build(targets):
    """Configure once, then bring @p targets up to date (no-op if they
    are). Fails when the checkout has no program sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "CMakeLists.txt").is_file():
        raise BenchError(f"no pipecache sources under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    logf = BUILD / "build.log"
    with open(logf, "ab") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
        res = subprocess.run(["cmake", "--build", str(BUILD), "-j4",
                              "--target", *targets],
                             stdout=out, stderr=subprocess.STDOUT,
                             check=False)
    if res.returncode != 0:
        tail = logf.read_text(errors="replace").splitlines()[-30:]
        raise BenchError("build failed:\n" + "\n".join(tail))
    WORK_ROOT.mkdir(exist_ok=True)


def exe(name):
    for sub in ("", "tools"):
        path = BUILD / sub / name
        if path.is_file():
            return str(path)
    raise BenchError(f"{name} was not built")


# -------------------------------------------------------------- children

class Child:
    """One finished child process: stdout, exit code, rusage and the
    monotonic launch time."""

    def __init__(self, cmd, cwd=None):
        self.cmd = cmd
        errpath = Path(cwd or WORK_ROOT) / "child.stderr"
        with open(errpath, "ab") as err:
            self.launch = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=cwd)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                self.stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, self.rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end = time.monotonic()
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.launch
        self.rss_mb = self.rusage.ru_maxrss / 1024.0

    def stamps(self):
        out = {}
        for line in self.stdout.decode().splitlines():
            parts = line.split()
            if len(parts) == 2:
                try:
                    out[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        return out

    def require_ok(self):
        if self.code != 0:
            raise BenchError(f"{' '.join(self.cmd)} exited {self.code}")
        return self


def median(xs):
    return statistics.median(xs)


def quantile(xs, q):
    """Nearest-rank quantile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.999999) - 1))]


def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# ---------------------------------------------------------- host probe

def host_probe():
    stamps = Child([exe("pcbench"), "probe"]).require_ok().stamps()
    return stamps["cpu_ref_ms"], stamps["mem_ref_ms"]


# ------------------------------------------------------------ workloads

class Result:
    """What one workload run measured."""

    def __init__(self):
        self.setup = []        # seconds
        self.run = []          # seconds
        self.rss = []          # MB
        self.attempted = 0
        self.failed = 0
        self.problems = []     # human-readable check failures
        self.extra = {}        # outputs seen, inputs and diagnostics

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def iterations(seconds):
    """Yield iteration numbers until @p seconds have passed (at least
    one)."""
    deadline = time.monotonic() + seconds
    n = 0
    while n == 0 or time.monotonic() < deadline:
        yield n
        n += 1


def run_stamped(base, out, ops, check, seconds, res):
    """Set-up samples, then iterations of a pcbench command that prints
    `ready` and `done` stamps; @p check validates each output."""
    for _ in range(SETUP_SAMPLES):
        c = Child(base + ["--out", str(out), "--setup-only"]).require_ok()
        res.setup.append(c.stamps()["ready"] - c.launch)
    for _ in iterations(seconds):
        c = Child(base + ["--out", str(out)])
        res.attempted += ops
        if c.code != 0:
            res.fail(ops, f"pcbench {base[1]} exited {c.code}")
            continue
        st = c.stamps()
        res.setup.append(st["ready"] - c.launch)
        res.run.append(st["done"] - st["ready"])
        res.rss.append(c.rss_mb)
        res.extra["outputs"] = check(out, res)


def repro_order(seed):
    order = list(EXPERIMENTS)
    random.Random(seed).shuffle(order)
    return order


def split_tables(text):
    tables, name, buf = {}, None, []
    for line in text.splitlines(keepends=True):
        if line.startswith("== ") and line.rstrip().endswith(" =="):
            if name is not None:
                tables[name] = "".join(buf)
            name, buf = line.strip()[3:-3], []
        else:
            buf.append(line)
    if name is not None:
        tables[name] = "".join(buf)
    return tables


def run_repro(seed, seconds, sizes, work, res):
    """Every paper table and figure from one suite, experiment order
    permuted by the seed. Each rendered table must match its pinned
    digest, whatever the order."""
    scale = sizes["repro_scale"]
    order = repro_order(seed)
    base = [exe("pcbench"), "repro", "--scale", str(scale),
            "--order", ",".join(order)]
    run_stamped(base, work / "tables.txt", len(order),
                lambda out, r: check_tables(out, order, scale, r),
                seconds, res)


def check_tables(path, order, scale, res):
    """Each rendered table against its pinned digest; returns the
    digests seen."""
    pinned = load_digests().get(f"repro@{scale}", {})
    tables = {n: sha(t.encode())
              for n, t in split_tables(path.read_text()).items()}
    for name in order:
        if tables.get(name) != pinned.get(name):
            res.fail(1, f"table {name} digest {tables.get(name)} != pinned "
                        f"{pinned.get(name)}")
    return tables


def grid_axes(seed):
    rng = random.Random(seed)
    axes = {"b": [0, 1, 2, 3], "l": [0, 1, 2, 3],
            "isize": list(SIZES_KW), "dsize": list(SIZES_KW)}
    for values in axes.values():
        rng.shuffle(values)
    return {k: ",".join(map(str, v)) for k, v in axes.items()}


def grid_lines(data):
    """The sweep JSON split into its header and its per-point result
    lines (one JSON object per line, sorted so the digest does not
    depend on the seed's axis order)."""
    header, points = [], []
    for line in data.decode().splitlines():
        if line.startswith('    {"design"'):
            points.append(line.rstrip(","))
        else:
            header.append(line)
    return header, sorted(points)


def run_grid(seed, seconds, sizes, work, res):
    """The canonical 784-point b x l x I x D sweep on one worker, axis
    order permuted by the seed. Every result line must be one of the
    pinned lines."""
    scale = sizes["grid_scale"]
    base = [exe("pcbench"), "grid", "--scale", str(scale)]
    for key, value in grid_axes(seed).items():
        base += ["--" + key, value]
    # One op per design point plus one for the sweep's summary.
    run_stamped(base, work / "grid.json", GRID_POINTS + 1,
                lambda out, r: check_grid(out, scale, r), seconds, res)


GRID_POINTS = 4 * 4 * len(SIZES_KW) ** 2


def check_grid(path, scale, res):
    """Every result line must be one of the pinned lines and the
    summary must match; returns the digests seen."""
    pinned = load_digests().get(f"grid@{scale}", {})
    pinned_points = set(pinned.get("points", []))
    header, points = grid_lines(path.read_bytes())
    bad = sum(1 for p in points if sha(p.encode()) not in pinned_points)
    bad += max(0, GRID_POINTS - len(points))
    if bad:
        res.fail(bad, f"{bad} grid points differ from the pinned ones")
    if sha("\n".join(header).encode()) != pinned.get("header"):
        res.fail(1, "grid summary differs from the pinned one")
    return {"header": sha("\n".join(header).encode()),
            "points": sorted(sha(p.encode()) for p in points)}


POW2_KW = ",".join(map(str, SIZES_KW))
STREAM_LRU = ["--b", "0", "--l", "0", "--isize", POW2_KW, "--dsize", POW2_KW,
              "--block", "2,4,8"]
STREAM_RANDOM = ["--b", "0", "--l", "0", "--isize", "4,16,64",
                 "--dsize", "4,16,64", "--block", "4", "--repl", "random"]


def check_stream(doc, comp, res, label):
    """Checks that hold for any trace: the stream totals match the
    generated composition, every point saw every access, misses never
    exceed accesses, and LRU misses never rise with cache size (the
    inclusion property of set-refined LRU caches)."""
    bad = 0
    st = doc["stream"]
    if [st["records"], st["fetches"], st["reads"], st["writes"]] != \
            [comp["records"], comp["fetches"], comp["reads"], comp["writes"]]:
        res.fail(len(doc["results"]), f"{label}: stream totals differ")
        return
    by_side = {}
    for r in doc["results"]:
        d, m = r["design"], r["metrics"]
        i, dd = m["l1i"], m["l1d"]
        ok = (i["fetches"] == comp["fetches"] and
              dd["reads"] == comp["reads"] and
              dd["writes"] == comp["writes"] and
              0 <= i["misses"] <= i["fetches"] and
              0 <= dd["misses"] <= dd["reads"] + dd["writes"])
        bad += not ok
        if d["repl"] == "lru":
            by_side.setdefault(("i", d["block_words"]), {})[d["l1i_kw"]] = \
                i["misses"]
            by_side.setdefault(("d", d["block_words"]), {})[d["l1d_kw"]] = \
                dd["misses"]
    for curve in by_side.values():
        misses = [curve[k] for k in sorted(curve)]
        if any(b > a for a, b in zip(misses, misses[1:])):
            bad += 1
    if bad:
        res.fail(bad, f"{label}: {bad} points fail the stream checks")


STREAM_POINTS = {"lru": 7 * 7 * 3, "random": 3 * 3}


def check_stream_output(path, label, comp, pinned, res):
    """The generic stream checks plus, on a pinned seed, the digest."""
    data = path.read_bytes()
    check_stream(json.loads(data), comp, res, label)
    if pinned and pinned.get(label) != sha(data):
        res.fail(STREAM_POINTS[label], f"stream {label} digest differs from "
                                       "the pinned output")
    return sha(data)


def run_stream(seed, seconds, sizes, work, res):
    """A seeded din trace through `pipecache_sweep --trace`: an LRU
    I x D x block grid and a 3x3 Random-replacement subgrid."""
    records = sizes["stream_records"]
    din = work / "stream.din"
    gen = Child([exe("pcbench"), "gendin", "--seed", str(seed), "--records",
                 str(records), "--out", str(din)]).require_ok()
    comp = {k: int(v) for k, v in gen.stamps().items()}
    # Set-up: the same invocation on the trace's first 256-record batch.
    head = work / "head.din"
    with open(din, "rb") as src, open(head, "wb") as dst:
        for _ in range(256):
            dst.write(src.readline())
    sweep = exe("pipecache_sweep")
    runs = (("lru", STREAM_LRU), ("random", STREAM_RANDOM))
    # Relative paths from the work directory, so the source name the
    # JSON carries is the same in every checkout.
    for _ in range(2 * SETUP_SAMPLES):
        c = Child([sweep, "--trace", head.name, "--quiet", "--out",
                   "head.json"] + runs[0][1], cwd=work).require_ok()
        res.setup.append(c.wall)
    setup = median(res.setup)
    pinned = load_digests().get(f"stream@{records}", {}).get(str(seed))
    for _ in iterations(seconds):
        wall, rss, digests = 0.0, 0.0, {}
        for label, grid in runs:
            out = work / f"{label}.json"
            c = Child([sweep, "--trace", din.name, "--quiet", "--out",
                       out.name] + grid, cwd=work)
            npoints = STREAM_POINTS[label]
            res.attempted += npoints
            if c.code != 0:
                res.fail(npoints, f"stream {label} exited {c.code}")
                continue
            wall += c.wall - setup
            rss = max(rss, c.rss_mb)
            digests[label] = check_stream_output(out, label, comp, pinned,
                                                 res)
        if len(digests) == len(runs):
            res.run.append(wall)
            res.rss.append(rss)
    res.extra["outputs"] = digests
    res.extra["stream"] = (din, comp, pinned)


# ---------------------------------------------------------------- serve

STREAM_REQUESTS = [{"workload": w, "workload_seed": str(k),
                    "isize": "1,4,16,64", "dsize": "1,4,16,64", "block": "4"}
                   for k, w in enumerate(("zipf-hot", "write-burst",
                                          "fetch-loop", "phase-change"), 1)]


def serve_catalog(sizes):
    """The fixed set of grid slices the serve client draws from: each
    varies b, l, D-size, block and penalty. Fixed, so that every seed
    asks for the same total work."""
    rng = random.Random(0x5e7e)
    grids = []
    for _ in range(sizes["serve_grids"]):
        b = sorted(rng.sample(range(4), rng.randint(1, 3)))
        d = sorted(rng.sample(SIZES_KW, rng.randint(1, 3)))
        grids.append({"b": ",".join(map(str, b)),
                      "l": str(rng.randint(0, 3)),
                      "isize": POW2_KW,
                      "dsize": ",".join(map(str, d)),
                      "block": str(rng.choice((2, 4, 8))),
                      "penalty": str(rng.choice((6, 10, 14))),
                      "scale": str(sizes["serve_scale"])})
    return grids


def serve_requests(seed, sizes):
    """The closed-loop request list: every catalog grid once, in catalog
    order (a new slice each), ~10 % registry-workload stream requests,
    and repeats of earlier grids for the rest. Where each kind of
    request falls is fixed; the seed picks which earlier grid each
    repeat asks for again and orders the stream requests (three per
    workload). So the new work, and the order the daemon's caches fill in,
    is the same for every seed."""
    n = sizes["serve_requests"]
    grids = serve_catalog(sizes)[::-1]
    kinds = (["new"] * len(grids) + ["stream"] * (n // 10) +
             ["repeat"] * (n - len(grids) - n // 10))
    random.Random(0x5e7e).shuffle(kinds)
    kinds.remove("new")
    kinds.insert(0, "new")
    rng = random.Random(seed)
    streams = [STREAM_REQUESTS[i % len(STREAM_REQUESTS)]
               for i in range(n // 10)]
    rng.shuffle(streams)
    sent, reqs = [], []
    for kind in kinds:
        if kind == "new":
            sent.append(grids.pop())
            reqs.append(sent[-1])
        elif kind == "stream":
            reqs.append(streams.pop())
        else:
            reqs.append(rng.choice(sent))
    return reqs


def req_line(req):
    return "SWEEP " + " ".join(f"{k}={v}" for k, v in req.items()) + \
        " threads=1\n"


def req_key(req):
    return json.dumps(req, sort_keys=True)


def cli_reference(req, work):
    """The same grid through a cold `pipecache_sweep` run."""
    args = [exe("pipecache_sweep"), "--threads", "1", "--quiet", "--out", "-"]
    flag = {"workload_seed": "--workload-seed"}
    for k, v in req.items():
        args += [flag.get(k, "--" + k), v]
    c = Child(args, cwd=str(work))
    return c.stdout if c.code == 0 else None


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(CHILD_TIMEOUT_S)
        self.sock.connect(path)
        self.f = self.sock.makefile("rb")

    def call(self, line):
        """Send one request; return (kind, payload, done-fields)."""
        self.sock.sendall(line.encode())
        payload, fields = None, {}
        while True:
            head = self.f.readline().decode()
            if not head:
                raise BenchError("daemon closed the connection")
            if head.startswith("ERR"):
                return "err", head.strip(), fields
            if head.startswith("OK"):
                return "ok", head.strip(), fields
            if head.startswith("RESULT "):
                payload = self.f.read(int(head.split()[1]))
            elif head.startswith("DONE"):
                for tok in head.split()[1:]:
                    k, _, v = tok.partition("=")
                    fields[k] = float(v)
                return "done", payload, fields

    def close(self):
        self.f.close()
        self.sock.close()


class Daemon:
    """pipecache_sweepd on a Unix socket; setup ends when it answers
    PING and one single-point request has built its suite state."""

    def __init__(self, work, scale):
        self.sock_rel = "sweepd.sock"
        self.path = os.path.relpath(work / self.sock_rel)
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.err = open(work / "sweepd.stderr", "ab")
        self.launch = time.monotonic()
        self.proc = subprocess.Popen(
            [exe("pipecache_sweepd"), "--socket", self.sock_rel,
             "--threads", str(DAEMON_THREADS), "--quiet"],
            cwd=str(work), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.err)
        self.rusage = None
        deadline = self.launch + 30
        while True:
            try:
                c = Conn(self.path)
                if c.call("PING\n")[0] == "ok":
                    break
                c.close()
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("sweepd did not come up")
            time.sleep(0.002)
        kind, _, _ = c.call(f"SWEEP b=0 l=0 isize=8 dsize=8 scale={scale}\n")
        c.close()
        if kind != "done":
            self.stop()
            raise BenchError("sweepd set-up request failed")
        self.setup = time.monotonic() - self.launch

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = Conn(self.path)
                c.call("SHUTDOWN\n")
                c.close()
            except (OSError, BenchError):
                self.proc.terminate()
        try:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            pass
        self.err.close()


def closed_loop(daemon, reqs):
    """2 connections, each sending its next request only after the
    previous answer; returns per-request (latency_s, kind, payload,
    fields, start, connection) in request order and the loop's wall
    time."""
    out = [None] * len(reqs)
    lock = threading.Lock()
    nxt = [0]
    errors = []

    def worker(index):
        try:
            conn = Conn(daemon.path)
            while True:
                with lock:
                    i = nxt[0]
                    nxt[0] += 1
                if i >= len(reqs):
                    break
                t0 = time.monotonic()
                kind, payload, fields = conn.call(req_line(reqs[i]))
                out[i] = (time.monotonic() - t0, kind, payload, fields, t0,
                          index)
            conn.close()
        except (OSError, BenchError) as e:
            errors.append(e)

    t0 = time.monotonic()
    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"serve connection failed: {errors[0]}")
    return out, time.monotonic() - t0


def points_of(fields):
    """A DONE line's point count. Its evaluated/memo_hits split is the
    as-if-cold one the RESULT payload carries, so it always sums to the
    points; cross_hits counts the points the daemon's warm memo served."""
    return fields.get("evaluated", 0) + fields.get("memo_hits", 0)


def classify(reqs, results):
    """warm: every point served from the cross-request memo; stream:
    workload=; cold: the rest."""
    classes = []
    for req, (_, kind, _, fields, _, _) in zip(reqs, results):
        if "workload" in req:
            classes.append("stream")
        elif kind == "done" and 0 < points_of(fields) == \
                fields.get("cross_hits", 0):
            classes.append("warm")
        else:
            classes.append("cold")
    return classes


def run_serve(seed, seconds, sizes, work, res):
    """pipecache_sweepd with 2 workers driven closed loop by 2
    connections. Every RESULT must equal a cold CLI run's output."""
    reqs = serve_requests(seed, sizes)
    scale = sizes["serve_scale"]
    for _ in range(SETUP_SAMPLES - 1):
        d = Daemon(work, scale)
        res.setup.append(d.setup)
        d.stop()
    lat, loops = [], []
    for _ in iterations(seconds):
        d = Daemon(work, scale)
        res.setup.append(d.setup)
        try:
            results, wall = closed_loop(d, reqs)
        finally:
            d.stop()
        res.run.append(wall)
        res.rss.append(d.rusage.ru_maxrss / 1024.0 if d.rusage else 0.0)
        loops.append(results)
        lat += [r[0] for r in results]
    # Byte-compare every payload with the cold CLI output of its grid.
    distinct = {req_key(r): r for r in reqs}
    with ThreadPoolExecutor(max_workers=4) as pool:
        refs = dict(zip(distinct, pool.map(
            lambda r: cli_reference(r, work), distinct.values())))
    for results in loops:
        for req, (_, kind, payload, fields, _, _) in zip(reqs, results):
            res.attempted += 1
            ref = refs[req_key(req)]
            if kind != "done":
                res.fail(1, f"request failed: {payload}")
            elif ref is None or payload != ref:
                res.fail(1, f"RESULT differs from the CLI for {req}")
            elif fields.get("failed", 0):
                res.fail(1, f"failed points in {req}")
    res.extra["serve.req_p90_ms"] = quantile(lat, 0.9) * 1e3
    res.extra["serve.requests"] = len(lat)
    res.extra["serve.loops"] = loops
    res.extra["serve.reqs"] = reqs


RUNNERS = {"repro": run_repro, "grid": run_grid, "stream": run_stream,
           "serve": run_serve}


# ----------------------------------------------------------- traced run

LAYERS = ("trace", "sched", "core", "cache", "timing", "sweep", "serve")


def self_times(events):
    """Per-layer self time: each span's duration minus the time its
    children cover (children nest on one thread, so they do not
    overlap). Spans named `run` are the benchmark's own, not a layer's."""
    child = {}
    for e in events:
        p = e["args"]["parent"]
        if p >= 0:
            child[p] = child.get(p, 0.0) + e["dur"]
    out = {layer: 0.0 for layer in LAYERS}
    for e in events:
        layer = e["name"].split(".")[0]
        if layer in out:
            out[layer] += (e["dur"] - child.get(e["args"]["id"], 0.0)) / 1e3
    return out


def traced_harness(workload, seed, sizes, work, res):
    """Run pcbench_trace on the workload's inputs; returns its metrics
    and spans."""
    spans = work / "spans.json"
    cmd = [exe("pcbench_trace"), workload, "--spans", spans.name]
    if workload == "repro":
        out = work / "traced-tables.txt"
        order = repro_order(seed)
        cmd += ["--scale", str(sizes["repro_scale"]), "--order",
                ",".join(order), "--out", out.name]
    elif workload == "grid":
        out = work / "traced-grid.json"
        cmd += ["--scale", str(sizes["grid_scale"]), "--out", out.name]
        for key, value in grid_axes(seed).items():
            cmd += ["--" + key, value]
    else:
        din, comp, pinned = res.extra["stream"]
        cmd += ["--trace", din.name, "--lru-out", "t-lru.json",
                "--random-out", "t-random.json"]
    c = Child(cmd, cwd=work).require_ok()
    if workload == "repro":
        res.attempted += len(order)
        check_tables(out, order, sizes["repro_scale"], res)
    elif workload == "grid":
        res.attempted += GRID_POINTS + 1
        check_grid(out, sizes["grid_scale"], res)
    else:
        for label in ("lru", "random"):
            res.attempted += STREAM_POINTS[label]
            check_stream_output(work / f"t-{label}.json", label, comp, pinned,
                                res)
    return c.stamps(), json.loads(spans.read_text())["traceEvents"]


def traced_serve(seed, sizes, work, res):
    """One more closed loop with a span per request; the per-class
    latency, wait and memo metrics."""
    reqs = res.extra["serve.reqs"]
    d = Daemon(work, sizes["serve_scale"])
    try:
        results, wall = closed_loop(d, reqs)
    finally:
        d.stop()
    refs = {req_key(r): p for r, (_, k, p, _, _, _) in
            zip(reqs, res.extra["serve.loops"][0]) if k == "done"}
    for req, (_, kind, payload, _, _, _) in zip(reqs, results):
        res.attempted += 1
        if kind != "done" or payload != refs.get(req_key(req)):
            res.fail(1, f"traced request differs: {req}")
    classes = classify(reqs, results)
    lat_ms = {c: [r[0] * 1e3 for r, k in zip(results, classes) if k == c]
              for c in ("warm", "cold", "stream")}
    done = [r for r in results if r[1] == "done"]
    hits = sum(r[3].get("cross_hits", 0) for r in done)
    points = sum(points_of(r[3]) for r in done)
    t0 = min(r[4] for r in results)
    events = [{"name": "serve.request", "cat": "serve", "ph": "X",
               "ts": (r[4] - t0) * 1e6, "dur": r[0] * 1e6, "pid": 1,
               "tid": r[5] + 1,
               "args": {"id": i, "parent": -1, "group": i, "class": k}}
              for i, (r, k) in enumerate(zip(results, classes))]
    metrics = {
        "serve.req_p90_ms": quantile([r[0] for r in results], 0.9) * 1e3,
        "serve.warm_p50_ms": median(lat_ms["warm"]) if lat_ms["warm"] else 0,
        "serve.cold_p50_ms": median(lat_ms["cold"]) if lat_ms["cold"] else 0,
        "serve.stream_p50_ms":
            median(lat_ms["stream"]) if lat_ms["stream"] else 0,
        "serve.wait_p50_ms": median(r[0] * 1e3 - r[3].get("wall_ms", 0)
                                    for r in done),
        "serve.memo_hit_ratio": hits / points if points else 0,
        "serve.rejected": sum(1 for r in results if r[1] == "err" and
                              "unavailable" in (r[2] or "")),
        "run_ms": wall * 1e3,
    }
    return metrics, events


def traced_run(workload, seed, sizes):
    """The per-layer run: one untraced iteration for the overhead
    baseline, then the traced one. Writes the Chrome trace to
    .bench_work/traces/. Returns the result object and the names of the
    per-layer metrics this workload measured (the rest report 0)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = workdir(workload + "-traced")
    try:
        before = host_probe()
        res = Result()
        RUNNERS[workload](seed, 0, sizes, work, res)
        if workload == "serve":
            got, events = traced_serve(seed, sizes, work, res)
        else:
            got, events = traced_harness(workload, seed, sizes, work, res)
        after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not res.run:
        raise BenchError("no iteration completed: " + "; ".join(res.problems))
    traces = WORK_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{workload}-seed{seed}.json").write_text(
        json.dumps({"traceEvents": events}) + "\n")
    selfs = self_times(events)
    for layer, ms in selfs.items():
        got[f"self.{layer}_ms"] = ms
    got["host.cpu_ref_ms"] = (before[0] + after[0]) / 2
    got["host.mem_ref_ms"] = (before[1] + after[1]) / 2
    got["obs.trace_overhead_frac"] = \
        got.pop("run_ms") / 1e3 / median(res.run) - 1
    metrics = {m["name"]: metric(float(got.get(m["name"], 0.0)), m["unit"])
               for m in spec["per_layer"]}
    print(f"{workload} seed={seed} traced; self ms: " +
          " ".join(f"{k}={v:.1f}" for k, v in selfs.items()))
    for p in res.problems:
        print("check failed: " + p)
    return ({"correct": res.failed == 0, "attempted": res.attempted,
             "failed": res.failed, "metrics": metrics},
            set(got) & set(metrics))


# --------------------------------------------------------------- output

def metric(value, unit):
    return {"value": value, "unit": unit}


def e2e_metrics(res):
    if not res.run:
        raise BenchError("no iteration completed: " + "; ".join(res.problems))
    return {
        "setup_s": metric(median(res.setup), "s"),
        "run_s": metric(median(res.run), "s"),
        "peak_rss_mb": metric(median(res.rss), "MB"),
        "ok_frac": metric((res.attempted - res.failed) / res.attempted,
                          "ratio"),
    }


def workdir(workload):
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def measure(workload, seed, seconds, sizes):
    """One untraced run with the host probe on either side."""
    work = workdir(workload)
    try:
        before = host_probe()
        res = Result()
        RUNNERS[workload](seed, seconds, sizes, work, res)
        after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res.extra["host"] = {"before": before, "after": after}
    return res


def summary_line(workload, seed, res, metrics):
    parts = [f"{workload} seed={seed}"]
    parts += [f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items()]
    parts.append(f"fail_frac={res.failed / res.attempted:.6g} "
                 f"(ops={res.attempted})")
    if "serve.req_p90_ms" in res.extra:
        parts.append(f"req_p90_ms={res.extra['serve.req_p90_ms']:.6g}ms "
                     f"(n={res.extra['serve.requests']})")
    h = res.extra["host"]
    parts.append("host cpu/mem ref ms before={:.1f}/{:.1f} after={:.1f}/{:.1f}"
                 .format(*h["before"], *h["after"]))
    parts.append("run_samples=" + ",".join(f"{x:.4f}" for x in res.run))
    parts.append("setup_samples=" + ",".join(f"{x:.4f}" for x in res.setup))
    parts.append("rss_samples=" + ",".join(f"{x:.1f}" for x in res.rss))
    return "  ".join(parts)


HELD_OUT_SEED = 90210


def pin():
    """Re-pin every output digest from the default seed, and check that
    a held-out seed reproduces the seed-independent ones."""
    build(E2E_TARGETS)
    digests = {}
    for sizes in (FULL, SMOKE):
        for workload, key in (("repro", f"repro@{sizes['repro_scale']}"),
                              ("grid", f"grid@{sizes['grid_scale']}")):
            outs = [measure(workload, seed, 0, sizes).extra["outputs"]
                    for seed in (1, HELD_OUT_SEED)]
            if outs[0] != outs[1]:
                raise BenchError(f"{workload} output depends on the seed")
            digests[key] = outs[0]
        key = f"stream@{sizes['stream_records']}"
        digests[key] = {str(seed): measure("stream", seed, 0, sizes)
                        .extra["outputs"] for seed in (1, HELD_OUT_SEED)}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} output sets into {DIGESTS}")
    return 0


def smoke():
    """Every workload once on tiny inputs, untraced and traced: every
    named metric must print with its unit, and nothing may fail."""
    build(ALL_TARGETS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad, produced = [], set()
    for workload in WORKLOADS:
        res = measure(workload, 1, 0, SMOKE)
        metrics = e2e_metrics(res)
        print(summary_line(workload, 1, res, metrics))
        bad += [f"{workload}: {p}" for p in res.problems]
        traced, names = traced_run(workload, 1, SMOKE)
        produced |= names
        for kind, got in (("end_to_end", metrics),
                          ("per_layer", traced["metrics"])):
            if [(m, got[m]["unit"]) for m in got] != \
                    [(m["name"], m["unit"]) for m in spec[kind]]:
                bad.append(f"{workload}: {kind} metrics differ from "
                           "BENCHMARK.json")
        if res.failed or traced["failed"]:
            bad.append(f"{workload}: fail_frac is not 0")
    # Every per-layer metric must be measured by at least one workload.
    unmeasured = {m["name"] for m in spec["per_layer"]} - produced
    if unmeasured:
        bad.append(f"per-layer metrics no workload measures: {unmeasured}")
    for b in bad:
        print("smoke: " + b)
    print("smoke: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


def report(seed, seconds):
    """Every workload's end-to-end metrics as one table."""
    build(E2E_TARGETS)
    print(f"{'workload':8} {'setup_s':>9} {'run_s':>9} {'peak_rss_mb':>11} "
          f"{'fail_frac':>9} {'ops':>6} {'req_p90_ms':>10}")
    for workload in WORKLOADS:
        res = measure(workload, seed, seconds, FULL)
        m = e2e_metrics(res)
        p90 = res.extra.get("serve.req_p90_ms")
        print(f"{workload:8} {m['setup_s']['value']:9.4f} "
              f"{m['run_s']['value']:9.4f} {m['peak_rss_mb']['value']:11.1f} "
              f"{res.failed / res.attempted:9.4f} {res.attempted:6d} "
              f"{'' if p90 is None else f'{p90:10.2f}'}")
    print("units: setup_s s, run_s s, peak_rss_mb MB, fail_frac ratio, "
          "req_p90_ms ms (serve only)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    try:
        if args.pin:
            return pin()
        if args.smoke:
            return smoke()
        if args.report:
            return report(args.seed, args.seconds)
        if not args.workload:
            ap.error("--workload is required")
        if args.trace:
            build(ALL_TARGETS)
            out, _ = traced_run(args.workload, args.seed, FULL)
        else:
            build(E2E_TARGETS)
            res = measure(args.workload, args.seed, args.seconds, FULL)
            metrics = e2e_metrics(res)
            print(summary_line(args.workload, args.seed, res, metrics))
            for p in res.problems:
                print("check failed: " + p)
            out = {"correct": res.failed == 0, "attempted": res.attempted,
                   "failed": res.failed, "metrics": metrics}
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
