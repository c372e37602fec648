#!/usr/bin/env python3
"""Client-to-kernel serving benchmark for the xylem daemons.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fresh-steady --seed 1 \
        --seconds 12 --trace 0

One run builds xylem_serve, xylem_frontend and perfbench_tool from the
checkout's sources (into .bench_build/), starts the real daemons, drives
them from this one process with closed-loop connections, checks every
answer, and prints the end-to-end metrics. With --trace 1 it then runs
the traced pass and the kernel probe (perfbench_tool) and prints the
per-layer metrics instead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit status is not 0
when an answer differs from the in-process replay, a request is
unaccounted for, or the build fails.

Workloads are defined in workloads.py; every request is a steady query
against configs/default.cfg.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

BUILD_DIR = ".bench_build/cmake"
WORK_DIR = ".bench_build/perfbench"
BUILD_TYPE = "RelWithDebInfo"
CONFIG = "configs/default.cfg"
SETUPS = 3           # set-ups per run; setup_s is their median
REPLY_TIMEOUT_S = 60
TRACE_OTHER_LIMIT = 0.05
STAGGER_S = 0.01     # start offset between connections (as in the tool)
# Load runs RAMP_S before the measured window of --seconds opens.
# Requests sent during the ramp are checked like the rest but not timed:
# when all connections start at once, the first burst of requests
# contends for the resident system in an order that varies run to run,
# and a few of them waited four times the steady-state latency.
RAMP_S = 2.0

END_TO_END_UNITS = {"setup_s": "s", "throughput_rps": "1/s",
                    "latency_p50_s": "s", "latency_p95_s": "s",
                    "ok_rate": "ratio", "server_rss_mb": "MB"}
# The per-layer metrics of a --trace 1 run. Every workload reports each
# of them, so the set holds only numbers no workload reads as 0 by
# construction. Counts that are 0 on some workload (simcache hit share
# on fresh-steady, dedup share everywhere, systems built in the timed
# phase, traced answers that diverge) are in the "properties:" line and
# the result file instead.
PER_LAYER_UNITS = {
    "service.queue_s": "s", "service.solve_s": "s",
    "service.batch_cols": "count", "service.overhead_s": "s",
    "frontend.hop_s": "s", "frontend.shard_imbalance": "ratio",
    "engine.run_s": "s", "stack.build_s": "s",
    "thermal.model_build_s": "s", "cpu.simulate_s": "s",
    "power.procpower_s": "s", "xylem.paint_s": "s", "thermal.solve_s": "s",
    "thermal.cg_iterations": "count", "thermal.mg_cycles": "count",
    "thermal.apply_s": "s", "thermal.apply_gbps_computed": "GB/s",
    "thermal.line_precond_s": "s",
    "thermal.line_precond_gbps_computed": "GB/s",
    "thermal.vcycle_s": "s", "thermal.vcycle_gbps_computed": "GB/s",
    "trace.request_s": "s", "trace.other_frac": "ratio",
}
# Layers of the traced pass: perfbench_tool trace names its spans
# "<layer>.<call>"; "wait" holds the queue and system-lock waits. Each
# layer's self-time median, p95 and share are printed and written to
# the result file. Only the shares of layers every workload enters are
# metrics: "frontend" is entered on fresh-steady only, and "stack" only
# when the timed phase builds a system.
SHARE_LAYERS = ("wait", "service", "thermal", "cpu", "power", "xylem")
PER_LAYER_UNITS.update({f"{layer}.share": "ratio" for layer in SHARE_LAYERS})


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not os.path.isfile("src/CMakeLists.txt") or not os.path.isfile(CONFIG):
        log("perfbench: run from the root of a xylem checkout")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "xylem_serve", "xylem_frontend", "perfbench_tool"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return {name: os.path.join(BUILD_DIR, path) for name, path in [
        ("serve", "xylem/tools/xylem_serve"),
        ("frontend", "xylem/tools/xylem_frontend"),
        ("tool", "perfbench_tool")]}


# ---------------------------------------------------------------------------
# Talking to the daemons
# ---------------------------------------------------------------------------

def connect(endpoint):
    if endpoint.startswith("unix:"):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(endpoint[len("unix:"):])
    else:
        host, port = endpoint[len("tcp:"):].rsplit(":", 1)
        s = socket.create_connection((host, int(port)))
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    s.settimeout(REPLY_TIMEOUT_S)
    return s


def call(endpoint, request):
    with connect(endpoint) as s:
        s.sendall((json.dumps(request) + "\n").encode())
        line = s.makefile("rb").readline()
    return json.loads(line)


def counters(endpoint):
    return call(endpoint, {"id": 0, "query": "metrics"})["metrics"]["counters"]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Fleet:
    """The daemons of one set-up: one xylem_serve, or a frontend in
    front of shards on loopback TCP."""

    def __init__(self, wl, bins, run_dir):
        self.wl = wl
        self.bins = bins
        self.run_dir = run_dir
        self.procs = []
        self.shard_endpoints = []
        self.endpoint = None
        self.argv = []

    def spawn(self, argv):
        self.argv.append(argv)
        err = open(os.path.join(self.run_dir, "daemons.log"), "ab")
        self.procs.append(subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=err, stderr=err))
        err.close()

    def await_ready(self, endpoint, timeout=30.0):
        stop = time.monotonic() + timeout
        while time.monotonic() < stop:
            if any(p.poll() is not None for p in self.procs):
                raise RuntimeError("a daemon exited during start-up")
            try:
                if call(endpoint, {"id": 0, "query": "health"}).get("ready"):
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        raise RuntimeError(f"{endpoint} never became ready")

    def start(self):
        jobs = str(self.wl.jobs)
        if self.wl.shards == 1:
            path = os.path.join(self.run_dir, "serve.sock")
            if os.path.exists(path):
                os.unlink(path)
            self.endpoint = "unix:" + path
            self.shard_endpoints = [self.endpoint]
            self.spawn([self.bins["serve"], "--endpoint", self.endpoint,
                        "--jobs", jobs, "--quiet"])
            self.await_ready(self.endpoint)
            return
        for _ in range(self.wl.shards):
            ep = f"tcp:127.0.0.1:{free_port()}"
            self.shard_endpoints.append(ep)
            self.spawn([self.bins["serve"], "--endpoint", ep, "--jobs", jobs,
                        "--quiet"])
        for ep in self.shard_endpoints:
            self.await_ready(ep)
        self.endpoint = f"tcp:127.0.0.1:{free_port()}"
        argv = [self.bins["frontend"], "--endpoint", self.endpoint, "--quiet"]
        for ep in self.shard_endpoints:
            argv += ["--shard", ep]
        self.spawn(argv)
        self.await_ready(self.endpoint)

    def shard_counters(self):
        return [counters(ep) for ep in self.shard_endpoints]

    def frontend_counters(self):
        return counters(self.endpoint) if self.wl.shards > 1 else {}

    def answered_since(self, before, fe_before, sent):
        """Requests the daemons answered since the `before` counters
        (None: since they started): each shard's responses, errors and
        sheds, plus the frontend's own "unavailable" answers. Returns
        (answered, shard counters, frontend counters). A worker bumps
        its counter just after writing the answer, so the client can
        hold an answer the counter does not show yet: a count short of
        `sent` is read again for up to five seconds before it stands."""
        if before is None:
            before, fe_before = [{}] * len(self.shard_endpoints), {}
        stop = time.monotonic() + 5.0
        while True:
            after = self.shard_counters()
            fe_after = self.frontend_counters()
            answered = delta(fe_after, fe_before, "frontend.unavailable")
            for a, b in zip(after, before):
                answered += sum(delta(a, b, name) for name in (
                    "service.responses", "service.errors", "service.shed"))
            if answered >= sent or time.monotonic() > stop:
                return answered, after, fe_after
            time.sleep(0.05)

    def peak_rss_mb(self):
        total_kb = 0
        for p in self.procs:
            with open(f"/proc/{p.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self):
        # Frontend first: it holds the client connections.
        for p in reversed(self.procs):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in reversed(self.procs):
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


def set_up(wl, config, bins, run_dir):
    """Start the daemons and prime them; returns the ready fleet."""
    fleet = Fleet(wl, bins, run_dir)
    try:
        fleet.start()
        if wl.prime:
            # The sim cache is keyed by the activity simulation only, so
            # priming each shard through one small helper config per
            # worker (a resident system each) fills it in parallel; a
            # single config would serialise on its system's lock.
            errors = []

            def prime(endpoint, k):
                helper = dict(config, gridNx=16 + k, gridNy=16 + k)
                try:
                    with connect(endpoint) as s:
                        reader = s.makefile("rb")
                        for i, (app, freq) in enumerate(
                                wl.prime[k::wl.jobs]):
                            s.sendall(wl.frame(
                                {"query": "steady", "app": app,
                                 "freqGHz": freq}, i, helper).encode())
                            if not json.loads(reader.readline()).get("ok"):
                                raise RuntimeError("a priming request failed")
                except Exception as e:  # re-raised below, after the join
                    errors.append(e)
            threads = [threading.Thread(target=prime, args=(ep, k))
                       for ep in fleet.shard_endpoints
                       for k in range(wl.jobs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise RuntimeError(f"priming failed: {errors[0]}")
        # Warm-up requests are on distinct configs, sent to every shard
        # directly, so each shard holds the resident system of every
        # config before the timed phase. Sent at once, each builds its
        # system on a worker of its own.
        warmups = [(ep, i, req) for ep in fleet.shard_endpoints
                   for i, req in enumerate(wl.warmup)]
        answers = [None] * len(warmups)

        def warm(k, endpoint, i, req):
            try:
                answers[k] = call(endpoint,
                                  json.loads(wl.frame(req, i, config)))
            except (OSError, ValueError):
                pass
        threads = [threading.Thread(target=warm, args=(k, *w))
                   for k, w in enumerate(warmups)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not all(a and a.get("ok") for a in answers):
            raise RuntimeError("warm-up request failed")
    except BaseException:
        fleet.stop()
        raise
    return fleet


# ---------------------------------------------------------------------------
# The timed phase: closed-loop connections
# ---------------------------------------------------------------------------

OUTCOMES = ("ok", "overloaded", "deadline-exceeded", "error", "transport")


def timed_phase(wl, config, endpoint, seconds):
    """Closed-loop load for RAMP_S + `seconds`; returns every request's
    record, the start time and the send counts."""
    records = []          # (conn, frame, t_send, t_recv, outcome, response)
    lock = threading.Lock()
    inflight = {}         # scenario key -> requests in flight
    # "bad_replies": lines that are not JSON or carry an id this
    # connection has no request outstanding for. Either is a wrong
    # answer from the daemons, not a transport failure.
    counts = {"sent": 0, "inflight_dups": 0, "bad_replies": 0}
    barrier = threading.Barrier(wl.connections + 1)

    def run_connection(c):
        seq = wl.sequences[c]
        mine = []
        outstanding = {}
        nxt = 0
        s = connect(endpoint)
        reader = s.makefile("rb")
        barrier.wait()
        stop = time.perf_counter() + RAMP_S + seconds
        # Connections start STAGGER_S apart. Started together, their
        # first requests would sometimes queue at once and form a batch
        # no later request forms, which makes the batch-buffer memory
        # (server_rss_mb) and the first latencies differ run to run.
        time.sleep(c * STAGGER_S)
        try:
            while True:
                while (len(outstanding) < wl.pipeline and nxt < len(seq)
                       and time.perf_counter() < stop):
                    rid = c * 1000000 + nxt
                    frame = wl.frame(seq[nxt], rid, config)
                    key = workloads.scenario_key(seq[nxt])
                    with lock:
                        counts["sent"] += 1
                        counts["inflight_dups"] += inflight.get(key, 0) > 0
                        inflight[key] = inflight.get(key, 0) + 1
                    outstanding[rid] = (frame, key, time.perf_counter())
                    s.sendall(frame.encode())
                    nxt += 1
                if not outstanding:
                    break
                line = reader.readline()
                now = time.perf_counter()
                if not line:
                    break
                try:
                    resp = json.loads(line)
                    frame, key, sent = outstanding.pop(resp["id"])
                except (ValueError, KeyError, TypeError):
                    with lock:
                        counts["bad_replies"] += 1
                    continue
                with lock:
                    inflight[key] -= 1
                if resp.get("ok"):
                    outcome = "ok"
                else:
                    code = resp.get("error", {}).get("code")
                    outcome = code if code in OUTCOMES else "error"
                mine.append((c, frame, sent, now, outcome, line.decode()))
        except OSError:
            pass
        finally:
            for frame, key, sent in outstanding.values():
                mine.append((c, frame, sent, None, "transport", None))
            s.close()
            with lock:
                records.extend(mine)

    threads = [threading.Thread(target=run_connection, args=(c,))
               for c in range(wl.connections)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    return records, start, counts


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def p95(values):
    """95th percentile, linearly interpolated between the two nearest
    samples: with a few dozen samples a run's p95 then moves smoothly
    instead of jumping to whichever single sample is next in rank."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def delta(after, before, name):
    return after.get(name, 0) - before.get(name, 0)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    files = sorted(glob.glob("src/**/*", recursive=True) +
                   glob.glob("tools/*") + glob.glob("perfbench/*") +
                   ["CMakeLists.txt", CONFIG])
    for path in files:
        if os.path.isfile(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, fleet_argv):
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "build_type": cache.get("CMAKE_BUILD_TYPE", BUILD_TYPE),
            "xylem_native": cache.get("XYLEM_NATIVE", "OFF"),
            "compiler": f"{compiler}: {version}", "git_commit": commit,
            "source_digest": source_digest(),
            "daemon_argv": [[os.path.basename(a[0])] + a[1:]
                            for a in fleet_argv],
            "workload": args.workload, "seed": args.seed,
            "timed_phase_s": args.seconds}


def cache_sizes():
    """Data/unified cache size per level, as sysfs reports it."""
    sizes = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as f:
                level = int(f.read())
            with open(os.path.join(d, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[level] = size
    return sizes


def run_tool(bins, *argv):
    out = subprocess.run([bins["tool"], *argv], capture_output=True,
                         text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"perfbench_tool {argv[0]} failed: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced_pass(wl, config, bins, run_dir, records_path, prime_path, sent,
                seconds):
    """Per-layer numbers from spans recorded around the pipeline's
    public functions (perfbench_tool trace)."""
    spec = {
        "connections": wl.connections, "pipeline": wl.pipeline,
        "shards": wl.shards, "jobs": wl.jobs, "budget_s": seconds / 2.0,
        "prime": prime_path, "records": records_path,
        "warm": [wl.frame(req, i, config) for i, req in enumerate(wl.warmup)],
        # The traced pass sends the same frames, in the same order, as
        # the timed phase did (and a few more if it runs faster).
        "sequences": [[wl.frame(req, c * 1000000 + i, config)
                       for i, req in enumerate(wl.sequences[c][:sent[c] + 64])]
                      for c in range(wl.connections)],
    }
    spec_path = os.path.join(run_dir, "trace-spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    spans_path = os.path.join(run_dir, "spans.jsonl")
    return run_tool(bins, "trace", spec_path, spans_path), spans_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bins = build()
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    os.makedirs(run_dir, exist_ok=True)
    with open(CONFIG) as f:
        config = workloads.parse_cfg(f.read())
    wl = workloads.make(args.workload, args.seed)

    # Set-up, several times: the last fleet serves the timed phase.
    setups = []
    fleet = None
    for i in range(SETUPS):
        t0 = time.perf_counter()
        fleet = set_up(wl, config, bins, run_dir)
        setups.append(time.perf_counter() - t0)
        if i + 1 < SETUPS:
            fleet.stop()
    try:
        # The baseline of the accounting check: the counters once every
        # set-up request (each shard's priming and the warm-ups) shows.
        set_up_requests = wl.shards * (len(wl.prime) + len(wl.warmup))
        answered, before, fe_before = fleet.answered_since(
            None, None, set_up_requests)
        if answered != set_up_requests:
            raise RuntimeError(f"the daemons answered {answered} set-up "
                               f"requests, not {set_up_requests}")
        records, start, counts = timed_phase(wl, config, fleet.endpoint,
                                             args.seconds)
        answered, after, fe_after = fleet.answered_since(
            before, fe_before, counts["sent"])
        rss_mb = fleet.peak_rss_mb()
        fleet_argv = fleet.argv
    finally:
        fleet.stop()

    # Accounting: the client booked every request it sent under one
    # outcome, the daemons' own counters answered each request exactly
    # once, and no reply was garbled or for a request never sent.
    by_outcome = {o: sum(r[4] == o for r in records) for o in OUTCOMES}
    sent = counts["sent"]
    accounted = (sum(by_outcome.values()) == sent == answered and
                 counts["bad_replies"] == 0)
    ok = [r for r in records if r[4] == "ok"]
    window = start + RAMP_S
    # Latency of the requests sent in the window; throughput from the
    # answers received in it, over its fixed length.
    timed = [r for r in ok if r[2] >= window]
    latencies = [r[3] - r[2] for r in timed]
    telemetry = [json.loads(r[5])["telemetry"] for r in timed]
    received = sum(window <= r[3] <= window + args.seconds for r in ok)

    # Output check: every ok answer against an in-process replay.
    records_path = os.path.join(run_dir, "records.jsonl")
    with open(records_path, "w") as f:
        for r in ok:
            f.write(json.dumps({"frame": r[1], "response": r[5]}) + "\n")
    prime_path = os.path.join(run_dir, "prime.jsonl")
    with open(prime_path, "w") as f:
        for app, freq in wl.prime:
            f.write(wl.frame({"query": "steady", "app": app,
                              "freqGHz": freq}, 0, config))
    check = run_tool(bins, "replay", records_path,
                     str(len(os.sched_getaffinity(0))), prime_path)
    correct = accounted and bool(ok) and check["mismatches"] == 0

    end_to_end = {
        "setup_s": statistics.median(setups),
        "throughput_rps": received / args.seconds,
        "latency_p50_s": median(latencies),
        "latency_p95_s": p95(latencies),
        "ok_rate": len(ok) / sent if sent else 0.0,
        "server_rss_mb": rss_mb,
    }

    def shard_sum(name):
        return sum(delta(a, b, name) for a, b in zip(after, before))

    solves = shard_sum("service.solves")
    batched = shard_sum("service.batched_requests")
    block_solves = shard_sum("service.batch_solves")
    hits = shard_sum("simcache.hits")
    misses = shard_sum("simcache.misses")
    per_shard = [delta(a, b, "service.solves") for a, b in zip(after, before)]
    dedup = sum(bool(t.get("dedup")) for t in telemetry)
    # Solo pickups count as one-column solves, so a workload that never
    # batches reads exactly 1.
    pickups = solves - batched + block_solves
    bodies = [json.loads(r[1]) for r in records]
    properties = {
        "simcache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "dedup_share": dedup / len(telemetry) if telemetry else 0.0,
        "mean_batch_cols": solves / pickups if pickups else 0.0,
        "distinct_configs": len({json.dumps(b["config"], sort_keys=True)
                                 for b in bodies}),
        "distinct_request_keys": len({json.dumps(
            {k: v for k, v in b.items() if k != "id"}, sort_keys=True)
            for b in bodies}),
        "distinct_sim_keys": len({workloads.sim_key(b) for b in bodies}),
        "primed_sims_per_shard": len(wl.prime),
        "simulations_run": misses,
        "inflight_duplicate_keys": counts["inflight_dups"],
        "requests_per_shard": per_shard,
        "frontend_rerouted": delta(fe_after, fe_before, "frontend.rerouted"),
        "escalations": shard_sum("service.escalations"),
        "systems_built": shard_sum("service.systems_built"),
        "latency_samples": len(latencies),
        "outcomes": by_outcome,
        "daemon_answered": answered,
        "bad_replies": counts["bad_replies"],
        "replay": check,
    }
    prov = provenance(args, fleet_argv)
    print("provenance:", json.dumps(prov, sort_keys=True))
    print("properties:", json.dumps(properties, sort_keys=True))
    print(f"{args.workload}: {sent} sent, {len(ok)} ok, "
          f"{sent - len(ok)} failed; {check['checked']} answers checked "
          f"against {check['distinct']} in-process replays, "
          f"{check['mismatches']} mismatches")
    if check["mismatches"]:
        print("first mismatch:", check["example"])
    if not accounted:
        print(f"unaccounted requests: {sent} sent, {len(records)} booked "
              f"by the client, {answered} answered by the daemons, "
              f"{counts['bad_replies']} garbled or stray replies")

    if args.trace:
        trace, spans_path = traced_pass(
            wl, config, bins, run_dir, records_path, prime_path,
            [sum(r[0] == c for r in records) for c in range(wl.connections)],
            args.seconds)
        kern = run_tool(bins, "kernels", CONFIG)
        calls = trace["per_call_s"]
        solve_s = [t["solve_s"] for t in telemetry]
        per_layer = {
            "service.queue_s": median(t["queue_s"] for t in telemetry),
            "service.solve_s": median(solve_s),
            "service.batch_cols": properties["mean_batch_cols"],
            "service.overhead_s": median(
                lat - s for lat, s in zip(latencies, solve_s)),
            "frontend.hop_s": median(
                lat - t["service_s"] for lat, t in zip(latencies, telemetry)),
            "frontend.shard_imbalance": (max(per_shard) * len(per_shard) /
                                         sum(per_shard)) if sum(per_shard)
            else 0.0,
            "engine.run_s": check["engine_run_s"],
            "stack.build_s": calls.get("stack.build", 0.0),
            "thermal.model_build_s": calls.get("thermal.model_build", 0.0),
            "cpu.simulate_s": calls.get("cpu.simulate", 0.0),
            "power.procpower_s": calls.get("power.procpower", 0.0),
            "xylem.paint_s": calls.get("xylem.paint", 0.0),
            "thermal.solve_s": calls.get("thermal.solve", 0.0),
            "thermal.cg_iterations": (shard_sum("solver.iterations") /
                                      max(shard_sum("solver.solves"), 1)),
            "thermal.mg_cycles": (shard_sum("solver.mg.cycles") /
                                  max(shard_sum("solver.solves"), 1)),
            "trace.request_s": trace["request_s"],
            "trace.other_frac": trace["other_frac"],
        }
        for kernel, name in (("apply", "apply"),
                             ("line_precond", "line_precond"),
                             ("vcycle", "vcycle")):
            per_layer[f"thermal.{name}_s"] = kern[kernel]["s"]
            per_layer[f"thermal.{name}_gbps_computed"] = \
                kern[kernel]["gbps_computed"]
        for layer in SHARE_LAYERS:
            per_layer[f"{layer}.share"] = trace["layers"][layer]["share"]
        metrics = per_layer
        properties["trace_layers"] = trace["layers"]
        properties["trace_divergent"] = trace["divergent"]

        print(f"traced pass: {trace['requests']} requests, spans in "
              f"{spans_path}")
        print(f"{'layer':<10} {'self p50 s':>12} {'self p95 s':>12} "
              f"{'share':>7}")
        for layer, v in sorted(trace["layers"].items(),
                               key=lambda kv: -kv[1]["share"]):
            print(f"{layer:<10} {v['self_p50_s']:>12.6f} "
                  f"{v['self_p95_s']:>12.6f} {v['share']:>7.1%}")
        print(f"{'other':<10} {'':>12} {'':>12} {trace['other_frac']:>7.1%}")
        print(f"tracing overhead: traced request {trace['request_s']:.4f} s "
              f"(p50, with queueing) | untraced Engine::run "
              f"{check['engine_run_s']:.4f} s | daemon telemetry solve_s "
              f"{median(solve_s):.4f} s")
        if trace["other_frac"] > TRACE_OTHER_LIMIT:
            print(f"WARNING: {args.workload}: trace.other_frac "
                  f"{trace['other_frac']:.1%} exceeds "
                  f"{TRACE_OTHER_LIMIT:.0%}: spans miss part of the request")
        if trace["divergent"]:
            print(f"WARNING: {trace['divergent']} of {trace['compared']} "
                  "traced answers differ from the daemons': the traced "
                  "pipeline no longer mirrors StackSystem")
        caches = cache_sizes()
        for kernel in ("apply", "line_precond", "vcycle"):
            k = kern[kernel]
            print(f"kernel {kernel}: {k['s'] * 1e3:.3f} ms/call, "
                  f"{k['bytes_computed'] / 2**20:.1f} MiB computed from array "
                  f"sizes ({k['gbps_computed']:.2f} GB/s computed; no "
                  f"roofline claimed), working set "
                  f"{k['working_set_bytes'] / 2**20:.1f} MiB vs L2 "
                  f"{caches.get(2, '?')} and shared L3 {caches.get(3, '?')}")
    else:
        metrics = end_to_end

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    assert metrics.keys() == units.keys(), set(metrics) ^ set(units)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    with open(os.path.join(run_dir, f"result-trace{args.trace}.json"),
              "w") as f:
        json.dump({"provenance": prov, "properties": properties,
                   "end_to_end": end_to_end, "metrics": metrics}, f,
                  indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct, "attempted": sent, "failed": sent - len(ok),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
