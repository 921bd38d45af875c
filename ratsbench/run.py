#!/usr/bin/env python3
"""Layered single-threaded benchmark of the rats workspace (see BENCH.md).

Run from the repository root:

    python3 ratsbench/run.py --workload paper-flat --seed 1 --seconds 20 --trace 0

It builds the `campaign` binary and the in-process helper (`ratsbench/`),
runs one workload, checks every output, prints a human-readable report on
stderr and, as the last line on stdout, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.

    --workload all          run the four workloads in turn (report only)
    --scale smoke           tiny inputs through the same code paths
    --write-expected        regenerate expected/<workload>-<scale>.json at
                            the default seed (only after a deliberate
                            change of results)
"""

import argparse
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 20080929
# Relative tolerance of the output check against the committed expected
# values: loose enough for a last-bit change in floating-point summation
# order, far below any change a different schedule or simulation makes.
REL_TOL = 1e-9
WORKLOADS = ["paper-flat", "paper-grelon", "schedule-large", "serve-tuning"]
NAIVE_STRATEGIES = [
    {"kind": "hcpa"},
    {"kind": "delta", "mindelta": 0.5, "maxdelta": 0.5},
    {"kind": "time-cost", "minrho": 0.5, "allow_packing": True},
]
# The fixed job samples of the batch workloads: stride shards of the
# paper grid, one `campaign run` process each. A count prime to 3 keeps
# every policy in every shard; indices far apart keep the shards off each
# other's scenarios (adjacent indices hit one DAG under all three
# policies, which triples the weight of its realization).
#
# Both run the paper's own population (seed 20080929) whatever --seed
# says: their cost is carried by a handful of irregular n=100 DAGs whose
# realizations differ so much that a new population seed moves a run
# more than a regression bound can absorb. The same 528 paper-flat jobs
# simulated in 14.5-17.4 s at population seed 11 and 21.0-21.6 s at
# seed 17; the 157 paper-grelon jobs ran at 7.6 to 9.1 jobs/s over seeds
# 1-5.
PAPER = {
    "paper-flat": {"clusters": ["chti", "grillon"], "count": 19, "shards": [0, 6, 13]},
    "paper-grelon": {"clusters": ["grelon"], "count": 32, "shards": [0, 11, 22]},
}
# At smoke scale the sample is the whole (mini-suite) grid, so merge
# assembles the full report.
SMOKE_SHARDS = {"count": 4, "shards": [0, 1, 2, 3]}
SERVE_POINTS = 64
SETUP_REPS = 15


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Run:
    """One benchmark run: its tools, scratch directory, spans and checks."""

    def __init__(self, args):
        self.args = args
        self.smoke = args.scale == "smoke"
        self.seed = args.seed
        self.traced = args.trace == 1
        self.attempted = 0
        self.bad = set()
        self.problems = []
        self.spans = []
        self.origin = time.perf_counter()
        self.report = []
        self.dir = os.path.abspath(
            os.path.join(".bench_runs", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
        )
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    # --- tools --------------------------------------------------------
    def path(self, name):
        return os.path.join(self.dir, name)

    def span(self, name, job, start, end, parent=None):
        self.spans.append(
            {"name": name, "job": job, "parent": parent,
             "start_us": (start - self.origin) * 1e6, "end_us": (end - self.origin) * 1e6}
        )
        return len(self.spans) - 1

    def fail(self, keys, message):
        """Counts every job in `keys` as failed (each at most once)."""
        keys = list(keys)
        if keys:
            self.bad.update(keys)
            if len(self.problems) < 5:
                self.problems.append(f"{message} ({len(keys)} jobs)")

    def spawn(self, cmd, out_name):
        """Runs `cmd` to completion; returns (wall seconds, peak RSS MiB, exit code)."""
        with open(self.path(out_name + ".out"), "wb") as out, open(self.path(out_name + ".err"), "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def helper(self, *cmd):
        """Runs the in-process helper and returns its JSON line."""
        done = subprocess.run([TOOLS["ratsbench"], *map(str, cmd)], capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"ratsbench {cmd[0]} failed: {done.stderr.strip()}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def expected_path(self):
        # serve-tuning's inputs do not depend on the scale, only its length.
        name = self.args.workload if self.args.workload == "serve-tuning" else f"{self.args.workload}-{self.args.scale}"
        return os.path.join(BENCH, "expected", name + ".json")

    def mismatches(self, values):
        """The keys of `values` ({key: [makespan, work]}) that are missing
        from or differ from the expected set; empty off the default seed."""
        path = self.expected_path()
        if self.seed != DEFAULT_SEED or self.args.write_expected:
            return []
        with open(path) as f:
            expected = json.load(f)
        bad = []
        for key, got in values.items():
            want = expected.get(key)
            if want is None or any(abs(g - w) > REL_TOL * abs(w) for g, w in zip(got, want)):
                bad.append(key)
                if len(self.problems) < 5:
                    self.problems.append(f"{key}: got {got}, expected {want}")
        return bad

    def write_expected(self, values):
        os.makedirs(os.path.join(BENCH, "expected"), exist_ok=True)
        path = self.expected_path()
        with open(path, "w") as f:
            f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(values[k])}" for k in sorted(values)) + "\n}\n")
        log(f"ratsbench: wrote {len(values)} expected values to {path}")

    def finish_trace(self):
        """Writes this script's spans (processes, passes, submissions) to
        .bench_traces/, next to the spans the helper recorded in-process."""
        os.makedirs(".bench_traces", exist_ok=True)
        path = os.path.join(".bench_traces", f"{self.args.workload}-s{self.args.seed}-t{self.args.trace}.jsonl")
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s}) + "\n")
        for name in os.listdir(self.dir):
            if name.endswith(".spans.jsonl"):
                shutil.copy(self.path(name), os.path.join(".bench_traces", f"{self.args.workload}-s{self.args.seed}-{name}"))


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(part, whole):
    return part / whole if whole else 0.0


def records_of(paths):
    """Maps job id -> exact record line over the given shard files."""
    out = {}
    for p in paths:
        with open(p) as f:
            for line in f.read().splitlines()[1:]:
                out[json.loads(line)["job"]] = line
    return out


# --- batch workloads: paper-flat, paper-grelon ------------------------------
def paper(run):
    cfg = PAPER[run.args.workload]
    run.seed = DEFAULT_SEED  # the population's seed, see PAPER
    spec = {
        "name": run.args.workload,
        "seed": run.seed,
        "suite": "mini" if run.smoke else "paper",
        "clusters": cfg["clusters"],
        "strategies": NAIVE_STRATEGIES,
    }
    spec_path = run.path("spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    sample = SMOKE_SHARDS if run.smoke else cfg
    shards = [f"{i}/{sample['count']}" for i in sample["shards"]]

    setup = run.helper("setup", spec_path, SETUP_REPS, ",".join(shards))
    jobs_of = dict(zip(shards, setup["shard_jobs"]))
    # Whole passes over the fixed sample, each into a fresh directory (a
    # reused one would resume, i.e. replay, instead of executing).
    passes, walls, rss, run_walls, merge_walls, merges = [], [], [], [], [], []
    started = time.perf_counter()
    while not passes or (not run.traced and fits_another_pass(started, len(passes), run.args.seconds)):
        out = run.path(f"pass{len(passes)}")
        t0 = time.perf_counter()
        pass_span = run.span("pass", len(passes), t0, t0)
        for shard in shards:
            t = time.perf_counter()
            wall, peak, code = run.spawn(
                [TOOLS["campaign"], "run", spec_path, "--shard", shard, "--threads", "1", "--out", out],
                f"run-{len(passes)}-{shard.replace('/', 'of')}",
            )
            run.span("shard.run", len(passes), t, t + wall, pass_span)
            run_walls.append(wall)
            rss.append(peak)
            if code != 0:
                run.fail([(len(passes), j) for j in jobs_of[shard]], f"campaign run {shard} exited {code}")
        t = time.perf_counter()
        name = f"merge-{len(passes)}"
        wall, _, code = run.spawn([TOOLS["campaign"], "merge", out], name)
        run.span("shard.merge", len(passes), t, t + wall, pass_span)
        merge_walls.append(wall)
        merges.append((code, name))
        walls.append(time.perf_counter() - t0)
        run.spans[pass_span]["end_us"] = (time.perf_counter() - run.origin) * 1e6
        passes.append(out)

    # Output checks, outside the timed window. A failure is keyed by
    # (pass, job), so a job counts once however many checks it fails.
    files = [[os.path.join(p, n) for n in sorted(os.listdir(p)) if n.endswith(".jsonl")] for p in passes]
    sample_jobs = sorted(j for jobs in jobs_of.values() for j in jobs)
    grid_total = setup["grid_jobs"]
    run.attempted = len(sample_jobs) * len(passes)
    everywhere = lambda jobs: [(p, j) for p in range(len(passes)) for j in jobs]
    first = records_of(files[0])
    for p, pf in enumerate(files):
        got = records_of(pf)
        run.fail([(p, j) for j in sample_jobs if j not in got or got[j] != first.get(j)],
                 f"pass {p}: sampled records missing or differing from pass 0")
    # `campaign merge` validates every record (seed, spec hash, grid
    # address, duplicates) and then refuses a grid with holes. On a sample
    # it must fail with exactly the sample's complement missing.
    for p, (code, name) in enumerate(merges):
        with open(run.path(name + ".err")) as f:
            err = f.read()
        if len(sample_jobs) == grid_total:
            ok = code == 0
        else:
            missing = grid_total - len(sample_jobs)
            ok = code == 1 and f"incomplete campaign: {missing} of {grid_total} jobs missing" in err
        if not ok:
            run.fail([(p, j) for j in sample_jobs], f"{name}: exit {code}: {err.strip()[:200]}")
    values = {str(j): [json.loads(l)["makespan"], json.loads(l)["work"]] for j, l in first.items()}
    if run.args.write_expected:
        run.write_expected(values)
    run.fail(everywhere(int(k) for k in run.mismatches(values)), "results differ from the expected values")

    # The replay of the same jobs through the layers' public functions:
    # all of them when traced, otherwise the small-DAG ones (at most 30
    # tasks), so every run checks records bit for bit against direct calls.
    replay_out = run.path("replay.jsonl")
    if run.traced:
        rep = run.helper("replay", spec_path, ",".join(shards), replay_out, 1)
    else:
        rep = run.helper("replay", spec_path, ",".join(shards), replay_out, 0, 30)
    with open(replay_out) as f:
        replayed = {json.loads(l)["job"]: l for l in f.read().splitlines()}
    run.fail(everywhere(j for j, line in replayed.items() if first.get(j) != line),
             "records differ from direct calls")
    run.fail(everywhere(int(j) for j in rep["invalid"]), f"invalid schedule or execution: {rep['first_invalid']}")
    run.report.append(f"checked {len(replayed)} records bit for bit against direct calls")

    total_wall = sum(walls)
    e2e = {
        "jobs_per_s": (run.attempted / total_wall, "1/s", f"{run.attempted} jobs in {total_wall:.3f} s, {len(passes)} pass(es)"),
        "setup_s": (statistics.median(setup["setup_s"]), "s", f"median of {len(setup['setup_s'])}"),
        "peak_rss_mb": (max(rss), "MB", f"max of {len(rss)} campaign run processes"),
    }
    if not run.traced:
        return e2e, {}

    # Layer shares are of the traced replay's wall, measured with the spans.
    # The campaign pass ran at another moment, and a shared machine's speed
    # drifts by up to a fifth between the two: against the pass's wall the
    # simulator's share read 0.90 to 1.09 (2-vCPU VM, BENCH.md). The shard
    # engine's figures, which exist only in the pass, compare the two.
    s = rep["self_s"]
    layers = layer_seconds(s)
    run_s, merge_s, wall = sum(run_walls), sum(merge_walls), walls[0]
    overhead = run_s - layers
    shard_bytes = sum(os.path.getsize(p) for p in files[0])
    layer = sched_and_sim(rep, rep["wall_s"])
    layer.update({
        "daggen.gen_s": (s.get("daggen.scenarios", 0), "s", f"{len(shards)} generations, one per campaign run"),
        "daggen.tasks": (setup["tasks"], "count", f"{setup['scenarios']} scenarios"),
        "daggen.edges": (setup["edges"], "count", ""),
        "daggen.share": (ratio(s.get("daggen.scenarios", 0), rep["wall_s"]), "ratio", f"of {rep['wall_s']:.3f} s replay wall"),
        "shard.overhead_s": (overhead, "s", f"campaign run wall {run_s:.3f} s minus traced layers {layers:.3f} s"),
        "shard.merge_s": (merge_s, "s", "campaign merge wall (validates every record)"),
        "shard.bytes": (shard_bytes, "B", f"{len(files[0])} shard files"),
        "shard.records": (len(first), "count", ""),
        "shard.share": (ratio(overhead + merge_s, wall), "ratio", f"of {wall:.3f} s campaign wall"),
        "trace.coverage_ratio": (ratio(layers, rep["wall_s"]), "ratio", f"{layers:.3f} s of {rep['wall_s']:.3f} s replay wall"),
        "trace.overhead_ratio": overhead_ratio(rep),
    })
    predict(run, "simulate >= 90% of wall", layer["sim.share"][0] >= 0.9)
    return e2e, layer


def fits_another_pass(started, passes, seconds):
    """Whether one more pass, as long as the mean pass so far, still ends
    within `seconds`: runs measure whole passes over their fixed input."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / passes <= seconds


# The spans of the layers' public calls; the rest (job, call) only group them.
LAYER_SPANS = ["daggen.scenarios", "daggen.generate", "platform.build", "sched.allocate", "sched.map", "sim.simulate"]


def layer_seconds(self_s):
    return sum(self_s.get(name, 0.0) for name in LAYER_SPANS)


def overhead_ratio(rep):
    """Tracing overhead from a helper report: every block of the replay
    also ran untraced, the two in alternating order."""
    return (rep["overhead_ratio"], "ratio",
            f"median over {rep['blocks']} blocks run traced and untraced in turn "
            f"(totals {rep['traced_s']:.3f} s vs {rep['plain_s']:.3f} s)")


def sched_and_sim(rep, wall):
    """Per-layer metrics of step one, step two and the simulator from a helper report."""
    s = rep["self_s"]
    est = rep["estimates"] + rep["estimates_pruned"]
    memo = rep["memo_hits"] + rep["memo_misses"]
    redist = rep["redist_hits"] + rep["redist_misses"]
    return {
        "sched.alloc_s": (s.get("sched.allocate", 0.0), "s", ""),
        "sched.alloc_calls": (rep["alloc_calls"], "count", ""),
        "sched.alloc_share": (ratio(s.get("sched.allocate", 0.0), wall), "ratio", f"of {wall:.3f} s wall"),
        "sched.map_s": (s.get("sched.map", 0.0), "s", ""),
        "sched.tasks_mapped": (rep["tasks_mapped"], "count", ""),
        "sched.estimates": (rep["estimates"], "count", ""),
        "sched.estimate_prune_ratio": (ratio(rep["estimates_pruned"], est), "ratio", f"{rep['estimates_pruned']} pruned of {est} candidates"),
        "sched.memo_hit_ratio": (ratio(rep["memo_hits"], memo), "ratio", f"{rep['memo_hits']} of {memo} lookups"),
        "sched.redist_hit_ratio": (ratio(rep["redist_hits"], redist), "ratio", f"{rep['redist_hits']} of {redist} lookups"),
        "sched.map_share": (ratio(s.get("sched.map", 0.0), wall), "ratio", f"of {wall:.3f} s wall"),
        "sim.sim_s": (s.get("sim.simulate", 0.0), "s", ""),
        "sim.runs": (rep["sim_runs"], "count", ""),
        "sim.max_run_s": (rep["sim_max_run_s"], "s", ""),
        "sim.edges": (rep["sim_edges"], "count", ""),
        "sim.network_gb": (rep["sim_network_bytes"] / 1e9, "GB", "bytes the simulated network carried"),
        "sim.free_edge_ratio": (ratio(rep["sim_free_edges"], rep["sim_edges"]), "ratio", f"{rep['sim_free_edges']} of {rep['sim_edges']} edges"),
        "sim.irregular_s": (rep["sim_irregular_s"], "s", "simulation time on irregular DAGs"),
        "sim.share": (ratio(s.get("sim.simulate", 0.0), wall), "ratio", f"of {wall:.3f} s wall"),
    }


def predict(run, claim, holds):
    run.report.append(f"prediction: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")


# --- schedule-large -----------------------------------------------------------
def schedule_large(run):
    out = run.path("schedule.txt")
    rep = run.helper("schedule", run.seed, run.args.seconds, run.args.scale, out, int(run.traced))
    lat = rep["latency_ms"]
    # A failing call is wrong in every pass: key failures by (pass, call).
    run.attempted = rep["calls"]
    every_pass = lambda calls: [(p, int(c)) for p in range(rep["passes"]) for c in calls]
    run.fail(every_pass(rep["invalid"]), f"invalid schedule: {rep['first_invalid']}")
    run.fail(every_pass(rep["nondeterministic"]), "schedules differ between passes")
    with open(out) as f:
        rows = [l.split() for l in f.read().splitlines()]
    values = {" ".join(r[:3]): [float(r[3]), float(r[4])] for r in rows}
    if run.args.write_expected:
        run.write_expected(values)
    index = {key: i for i, key in enumerate(values)}
    run.fail(every_pass(index[k] for k in run.mismatches(values)), "schedules differ from the expected values")
    run.report.append(
        f"schedule_ms.p50 = {percentile(lat, 0.5):.3f} ms, schedule_ms.p90 = {percentile(lat, 0.9):.3f} ms "
        f"(n = {len(lat)} calls over {rep['passes']} pass(es))"
    )
    e2e = {
        "jobs_per_s": (rep["calls"] / rep["pass_wall_s"], "1/s", f"{rep['calls']} schedule calls in {rep['pass_wall_s']:.3f} s"),
        "setup_s": (statistics.median(rep["setup_s"]), "s", f"DAG generation, median of {len(rep['setup_s'])}"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB", "helper process VmHWM"),
    }
    if not run.traced:
        return e2e, {}
    s = rep["self_s"]
    wall = rep["wall_s"] + rep["gen_s"]
    layer = sched_and_sim(rep, wall)
    layers = layer_seconds(s)
    layer.update({
        "daggen.gen_s": (rep["gen_s"], "s", f"{rep['dags']} DAGs"),
        "daggen.tasks": (rep["gen_tasks"], "count", ""),
        "daggen.edges": (rep["gen_edges"], "count", ""),
        "daggen.share": (ratio(rep["gen_s"], wall), "ratio", f"of {wall:.3f} s wall"),
        "trace.coverage_ratio": (ratio(layers, wall), "ratio", f"{layers:.3f} s of {wall:.3f} s"),
        "trace.overhead_ratio": overhead_ratio(rep),
    })
    alloc_map = layer["sched.alloc_share"][0] + layer["sched.map_share"][0]
    predict(run, "simulate absent", rep["sim_runs"] == 0)
    predict(run, f"allocation + mapping the majority of wall ({alloc_map:.3f})", alloc_map > 0.5)
    return e2e, layer


# --- serve-tuning -------------------------------------------------------------
def serve_point(k):
    """Parameter point k of the tuning sweep: delta points on even k,
    time-cost points on odd k; all binary fractions, exact in JSON."""
    i = k // 2
    if k % 2 == 0:
        return {"kind": "delta", "mindelta": (i % 8) / 8, "maxdelta": (i // 8 % 8) / 4}
    return {"kind": "time-cost", "minrho": 1 - (i % 32) / 32, "allow_packing": i // 32 % 2 == 0}


# The tuning population: 24 small DAGs (n = 25) of two fixed shapes,
# always generated from the paper's seed. Like paper-grelon, the cost of a
# submission moves more between population seeds (median latency 47 vs
# 70 ms for seeds 1 and 3) than a regression bound can absorb, so --seed
# only orders the sweep.
SERVE_FAMILIES = [
    {"kind": "layered", "count": 12, "n": 25, "width": 0.5, "density": 0.5, "regularity": 0.5},
    {"kind": "irregular", "count": 12, "n": 25, "width": 0.5, "density": 0.5, "regularity": 0.5, "jump": 2},
]
SERVE_JOBS = sum(f["count"] for f in SERVE_FAMILIES)
# The sweep point of the cold set-up submission (tune-0), the same for
# every seed: its cost would otherwise move set-up time between seeds
# (48 to 80 ms cold).
SETUP_POINT = 0


def serve_spec(point, name):
    return {"name": name, "seed": DEFAULT_SEED, "suite": "custom", "families": SERVE_FAMILIES,
            "clusters": ["grillon"], "strategies": [serve_point(point)]}


def serve_order(seed):
    """The sweep's points in the order this seed submits them. Submission
    n (from 1) uses point order[n % SERVE_POINTS] under the campaign name
    tune-n, so every submission is a new campaign and every pass of
    SERVE_POINTS submissions covers the whole sweep."""
    order = list(range(SERVE_POINTS))
    random.Random(seed).shuffle(order)
    return order


class Server:
    """`campaign serve --fleet 1` on an ephemeral 127.0.0.1 port, confined
    to CPU `cpu`, with one closed-loop client connection speaking the
    line-JSON protocol over a plain persistent socket, as
    `rats_server::client::Client` does.

    The server flushes every response line on its own, and Nagle's
    algorithm holds a small write until the previous one is acknowledged,
    while the client delays its ACKs (the Linux default on an established
    connection). So a submission can stall for up to ~40 ms; the client
    does nothing to avoid that, so the benchmark times what the repo's own
    clients get."""

    def __init__(self, run, out, cpu):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [TOOLS["campaign"], "serve", "--addr", "127.0.0.1:0", "--out", out, "--fleet", "1"],
            stdout=subprocess.PIPE, stderr=open(run.path("serve.err"), "ab"), text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        ready = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - self.started
        if "serving on " not in ready:
            self.stop()
            raise SystemExit(f"campaign serve did not start: {ready!r}")
        host, port = ready.split("serving on ")[1].split()[0].rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)))
        self.buffer = b""

    def request(self, message):
        self.sock.sendall((json.dumps(message) + "\n").encode())

    def reply(self):
        while b"\n" not in self.buffer:
            data = self.sock.recv(1 << 16)
            if not data:
                raise SystemExit("campaign serve closed the connection")
            self.buffer += data
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def submit(self, spec):
        """Returns (latency s, record lines, jobs executed or None on failure)."""
        t = time.perf_counter()
        self.request({"op": "submit", "client": "ratsbench", "format": "json", "spec": json.dumps(spec)})
        records = []
        while True:
            msg = self.reply()
            if msg["type"] == "record":
                records.append(msg["line"])
            elif msg["type"] in ("done", "aborted", "error"):
                return time.perf_counter() - t, records, msg.get("executed") if msg["type"] == "done" else None

    def status(self):
        self.request({"op": "status", "stale_ms": 30000})
        return self.reply()["body"]["warm"]

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            if self.proc.poll() is None and hasattr(self, "sock"):
                self.request({"op": "shutdown"})
                self.reply()
        except (OSError, SystemExit, ValueError):
            pass
        finally:
            if hasattr(self, "sock"):
                self.sock.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def serve_tuning(run):
    order = serve_order(run.seed)
    run.seed = DEFAULT_SEED  # the population's seed, see SERVE_FAMILIES
    submitted = []  # (point, latency, records, executed)
    ready, cold = [], []
    server = None
    # `--fleet 1` is one resident worker, and the connection's own thread
    # joins in on its batch: two compute threads. The server keeps to one
    # CPU, single-threaded like every other workload, and this client to
    # the others, so the two never queue for one CPU. The split is taken
    # once, from the CPUs this process may use at the start.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[-1]
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus[:-1]))
    try:
        # Set-up, several times: server start to its ready line, and the
        # cold first submission that fills the warm state. The last server
        # stays up for the timed window.
        for rep in range(SETUP_REPS):
            if server:
                server.stop()
            server = Server(run, run.path(f"serve{rep}"), server_cpu)
            t0 = time.perf_counter()
            latency, records, executed = server.submit(serve_spec(SETUP_POINT, "tune-0"))
            ready.append(server.ready_s)
            cold.append(latency)
            run.span("serve.setup", rep, server.started, t0 + latency)
        submitted.append((SETUP_POINT, latency, records, executed))
        warm_before = server.status()
        started = time.perf_counter()
        passes = 0
        while not passes or fits_another_pass(started, passes, run.args.seconds):
            for _ in range(SERVE_POINTS):
                n = len(submitted)
                point = order[n % SERVE_POINTS]
                t = time.perf_counter()
                latency, records, executed = server.submit(serve_spec(point, f"tune-{n}"))
                run.span("serve.submit", n, t, t + latency)
                submitted.append((point, latency, records, executed))
            passes += 1
        elapsed = time.perf_counter() - started
        warm_after = server.status()
        peak = server.peak_rss_mb()
    finally:
        if server:
            server.stop()

    # A failure is keyed by (submission, job index), so a job counts once
    # however many checks it fails.
    timed = submitted[1:]
    lat_ms = [s[1] * 1e3 for s in timed]
    jobs = sum(len(s[2]) for s in timed)
    run.attempted = SERVE_JOBS * len(submitted)
    of_point = {}
    for n, (point, _, _, executed) in enumerate(submitted):
        of_point.setdefault(point, []).append(n)
        if executed != SERVE_JOBS:
            run.fail([(n, i) for i in range(SERVE_JOBS)], f"tune-{n}: executed {executed} of {SERVE_JOBS} jobs")

    # Every streamed record against ExperimentSpec::run of the same spec,
    # computed after the timed window. Records do not carry the campaign
    # name, so one in-process run per point covers every submission of it.
    points = list(range(SERVE_POINTS)) if run.args.write_expected else sorted(of_point)
    specs_path = run.path("specs.jsonl")
    with open(specs_path, "w") as f:
        for point in points:
            f.write(json.dumps(serve_spec(point, f"point-{point}")) + "\n")
    ref_out = run.path("reference.jsonl")
    rep = run.helper("reference", specs_path, ref_out, int(run.traced))
    with open(ref_out) as f:
        ref = f.read().splitlines()
    by_point = {p: ref[k * SERVE_JOBS:(k + 1) * SERVE_JOBS] for k, p in enumerate(points)}
    for n, (point, _, records, _) in enumerate(submitted):
        want = by_point[point]
        run.fail([(n, i) for i in range(SERVE_JOBS) if i >= len(records) or records[i] != want[i]],
                 f"tune-{n}: streamed records differ from the in-process run")
    if run.traced:
        run.fail([(n, i) for k in rep["mismatched"] for n in of_point[points[int(k)]] for i in range(SERVE_JOBS)],
                 "warm replay differs from ExperimentSpec::run")
        run.fail([(n, int(key) & 0xFFFFFFFF) for key in rep["invalid"] for n in of_point[points[int(key) >> 32]]],
                 f"invalid schedule or execution: {rep['first_invalid']}")
    values = {f"{p}/{json.loads(l)['job']}": [json.loads(l)["makespan"], json.loads(l)["work"]]
              for p, lines in by_point.items() for l in lines}
    if run.args.write_expected:
        run.write_expected(values)
    run.fail([(n, int(key.split("/")[1])) for key in run.mismatches(values) for n in of_point.get(int(key.split("/")[0]), [])],
             "results differ from the expected values")
    run.report.append(
        f"submit_ms.p50 = {percentile(lat_ms, 0.5):.3f} ms, submit_ms.p90 = {percentile(lat_ms, 0.9):.3f} ms "
        f"(n = {len(lat_ms)} warm submissions); checked {sum(len(s[2]) for s in submitted)} streamed "
        f"records byte for byte against {len(points)} in-process runs"
    )
    e2e = {
        "jobs_per_s": (jobs / elapsed, "1/s", f"{jobs} jobs in {len(timed)} submissions over {elapsed:.3f} s"),
        "setup_s": (statistics.median(ready) + statistics.median(cold), "s",
                    f"median server ready {statistics.median(ready):.4f} s + median cold submission "
                    f"{statistics.median(cold):.4f} s, {len(ready)} servers"),
        "peak_rss_mb": (peak, "MB", "server VmHWM"),
    }
    if not run.traced:
        return e2e, {}

    # The replay runs each sweep point once; its layer times compare with
    # the served time of as many submissions.
    s = rep["self_s"]
    wall = statistics.mean(x[1] for x in submitted) * len(points)
    layer = sched_and_sim(rep, wall)
    layers = layer_seconds(s)
    # The replay's first spec generates and allocates; the rest are warm,
    # like every timed submission.
    warm_spec_ms = statistics.mean(rep["spec_s"][1:] or rep["spec_s"]) * 1e3
    overhead_ms = statistics.mean(lat_ms) - warm_spec_ms
    delta = {k: warm_after[k] - warm_before[k] for k in warm_after}
    pop = delta["population_hits"] + delta["population_misses"]
    alloc = delta["alloc_hits"] + delta["alloc_misses"]
    layer.update({
        "daggen.gen_s": (s.get("daggen.scenarios", 0.0), "s", "one generation in the warm replay"),
        "daggen.tasks": (rep["gen_tasks"], "count", ""),
        "daggen.edges": (rep["gen_edges"], "count", ""),
        "daggen.share": (ratio(s.get("daggen.scenarios", 0.0), wall), "ratio", f"of {wall:.3f} s served for {len(points)} submissions"),
        "shard.records": (jobs, "count", "records streamed in the timed window"),
        "shard.bytes": (sum(len(l) + 1 for x in timed for l in x[2]), "B", "record bytes streamed in the timed window"),
        "serve.overhead_ms": (overhead_ms, "ms", f"mean submit {statistics.mean(lat_ms):.3f} ms minus mean "
                              f"in-process layer time per warm spec {warm_spec_ms:.3f} ms"),
        "serve.warm_pop_hit_ratio": (ratio(delta["population_hits"], pop), "ratio", f"{delta['population_hits']} of {pop} lookups"),
        "serve.warm_alloc_hit_ratio": (ratio(delta["alloc_hits"], alloc), "ratio", f"{delta['alloc_hits']} of {alloc} lookups"),
        "serve.resident_mb": ((warm_after["resident_population_bytes"] + warm_after["resident_alloc_bytes"]) / 2**20,
                              "MB", "warm state resident bytes"),
        "serve.records_streamed": (sum(len(x[2]) for x in submitted), "count", f"over {len(submitted)} submissions"),
        "serve.share": (ratio(overhead_ms, statistics.mean(lat_ms)), "ratio", "of the mean warm submission"),
        "trace.coverage_ratio": (ratio(layers, rep["wall_s"]), "ratio", f"{layers:.3f} s of {rep['wall_s']:.3f} s warm replay"),
        "trace.overhead_ratio": overhead_ratio(rep),
    })
    return e2e, layer


# --- build and report --------------------------------------------------------
TOOLS = {}
RUNNERS = {"paper-flat": paper, "paper-grelon": paper, "schedule-large": schedule_large, "serve-tuning": serve_tuning}


def build():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "server"))):
        log("ratsbench: run from the repository root; Cargo.toml or crates/server is missing here")
        sys.exit(2)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "rats-server", "--bin", "campaign"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log("ratsbench: build failed:", " ".join(cmd))
            sys.exit(1)
    TOOLS["campaign"] = os.path.join(target, "release", "campaign")
    TOOLS["ratsbench"] = os.path.join(target, "release", "ratsbench")


def metric_names(kind):
    with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def run_one(args):
    run = Run(args)
    try:
        e2e, layer = RUNNERS[args.workload](run)
    finally:
        run.finish_trace()
        shutil.rmtree(run.dir, ignore_errors=True)
    layer = {**NOT_EXERCISED, **layer}
    chosen = e2e if not run.traced else layer
    names = metric_names("per_layer" if run.traced else "end_to_end")
    missing = [n for n in names if n not in chosen]
    if missing:
        raise SystemExit(f"ratsbench: {args.workload} does not produce {missing}")
    log(f"== {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
    for name, (value, unit, base) in sorted({**e2e, **(layer if run.traced else {})}.items()):
        log(f"  {name:28} {value:>16.6g} {unit:6} {base}")
    failed = len(run.bad)
    log(f"  fail_ratio {failed} / {run.attempted} = {ratio(failed, run.attempted):.6g}")
    for line in run.report + run.problems:
        log("  " + line)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": chosen[n][0], "unit": chosen[n][1]} for n in names},
    }


# Per-layer metrics a workload does not exercise read 0 (the layer is
# not called, e.g. the simulator on schedule-large, the server on batch runs).
NOT_EXERCISED = {
    name: (0, unit, "layer not exercised by this workload")
    for name, unit in [
        ("shard.overhead_s", "s"), ("shard.merge_s", "s"), ("shard.bytes", "B"), ("shard.records", "count"),
        ("shard.share", "ratio"), ("serve.overhead_ms", "ms"), ("serve.warm_pop_hit_ratio", "ratio"),
        ("serve.warm_alloc_hit_ratio", "ratio"), ("serve.resident_mb", "MB"),
        ("serve.records_streamed", "count"), ("serve.share", "ratio"),
    ]
}


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "smoke"], default="full")
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args()
    if args.write_expected and args.seed != DEFAULT_SEED:
        p.error("--write-expected records the default seed only")
    build()
    if args.workload == "all":
        for w in WORKLOADS:
            run_one(argparse.Namespace(**{**vars(args), "workload": w}))
        return
    print(json.dumps(run_one(args)), flush=True)


if __name__ == "__main__":
    main()
