"""treesubst benchmark: time to a verdict or an artifact, layer by layer.

    python3 perfbench/run.py --workload audit|deep-geometry|artifacts|all
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--quick] [--out FILE]

Run from anywhere; the package is imported from the `src/` directory next
to this one.  Every timed call runs in a fresh worker process (worker.py),
one at a time, so the loop is closed: the next call starts when the last
one has answered.  Each call has a wall-time limit; a call that fails,
hangs, crashes or returns a wrong output counts as a failed operation and
the run goes on.  No call runs past `--seconds` + RUN_MARGIN_S into a run:
a pass cut short by that deadline is dropped from the medians, and the
calls it skipped are not counted as operations.

Machine speed on a shared host drifts by up to 2x within minutes, so each
call is bracketed by two yardstick probes: fresh workers that time a fixed
pure-Python task (worker.yardstick).  Reported times are the measured
seconds scaled to the speed at which the yardstick takes YARDSTICK_REF_S;
the measured seconds are printed beside them (`*_raw_s`).

With `--trace 0` a run repeats the workload while `--seconds` allows
(at least once) and reports medians over the passes.  With `--trace 1` it
makes one untraced pass, then one pass with layer spans (tracer.py), and
reports the per-layer metrics and the tracing overhead.  `--quick` runs
every workload at reduced size, in seconds, for the self-tests.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
come from BENCHMARK.json.  The lines before it give every end-to-end
figure by name and unit, the failures, and the environment.  `--out`
also writes the full record (passes, errors, environment, spans).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("audit", "deep-geometry", "artifacts")
CALL_LIMIT_S = 120.0    # wall-time limit on one worker call
RUN_MARGIN_S = 130.0    # a run's deadline is --seconds plus this: one more call and its probe
READY_LIMIT_S = 60.0    # wall-time limit on a worker's start-up
# yardstick time of the reference machine (2 vCPU at 2.0 GHz) in a quiet spell;
# scaled figures read as seconds on that machine
YARDSTICK_REF_S = 0.4

SIZES = {
    "full": {
        "audit": [{"suite": "all", "d": d} for d in (3, 4, 5)],
        "deep-geometry": {"stage": 24, "scan": 21, "paths": 12, "pairs": 200},
        "artifacts": {"gen_n": 22, "rauzy_depth": 200_000, "zeta_n": 4, "zeta_depth": 100_000},
    },
    "quick": {
        "audit": [{"suite": "core", "d": d, "max_stage": 6} for d in (3, 4, 5)],
        "deep-geometry": {"stage": 12, "scan": 10, "paths": 6, "pairs": 20},
        "artifacts": {"gen_n": 8, "rauzy_depth": 5_000, "zeta_n": 2, "zeta_depth": 3_000},
    },
}

# end-to-end figures printed per workload; BENCHMARK.json gates the shared ones
FIGURE_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "success_ratio": "ratio",
    "fail_ratio": "ratio", "setup_raw_s": "s", "wall_raw_s": "s", "yardstick_s": "s",
    "verify_d3_s": "s", "verify_d4_s": "s", "verify_d5_s": "s",
    "realize_edges_per_s": "edges/s", "path_audit_s": "s",
    "pair_query_p50_ms": "ms", "pair_query_p95_ms": "ms",
    "gen_s": "s", "plot_s": "s",
}


# -- workers ------------------------------------------------------------------


class Run:
    """Bookkeeping of one benchmark run: deadline, operations, probes, figures."""

    def __init__(self, tmp: Path, seconds_left: float):
        self.tmp = tmp
        self.deadline = time.perf_counter() + seconds_left
        self.env = dict(os.environ, TMPDIR=str(tmp), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.setup_raw: list[float] = []      # spawn -> ready of every worker
        self.setup_scaled: list[float] = []   # the same for probes, scaled by their yardstick
        self.yardsticks: list[float] = []     # yardstick seconds, in time order
        self.calls: list[dict] = []           # every call's reply, in time order
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cut = False                      # the deadline stopped a call; the rest is skipped

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def record(self, label: str, reply: dict, want: dict | None = None) -> None:
        """Count one operation; an error reply or an output other than `want` fails it.

        Once the run's deadline has cut a call, that call and every later one
        are skipped rather than counted.
        """
        self.cut = self.cut or reply.get("cut", False)
        if self.cut:
            return
        self.attempted += 1
        error = mismatch(reply["result"], want or {}) if reply["ok"] else reply["error"]
        if error:
            self.failed += 1
            self.errors.append(f"{label}: {error}")

    def probe(self) -> None:
        """One machine-speed sample: a fresh worker that only runs the yardstick."""
        with Worker(self, trace=False) as worker:
            reply = worker.request({"op": "yardstick"}, min(READY_LIMIT_S, self.left()))
        if reply is not None:
            self.yardsticks.append(reply["seconds"])
            self.setup_scaled.append(worker.setup * YARDSTICK_REF_S / reply["seconds"])

    def seconds(self, reply: dict) -> float:
        """A call's seconds at reference speed, from the probes just before and after it."""
        i = reply["yardstick"]
        near = [self.yardsticks[j] for j in (i, i + 1) if 0 <= j < len(self.yardsticks)]
        return reply["seconds"] * (YARDSTICK_REF_S / statistics.fmean(near) if near else 1.0)


class Worker:
    """One worker process, used as a context manager so it always ends."""

    def __init__(self, run: Run, trace: bool):
        self.run = run
        self.buffer = b""
        self.failure = ""
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(SRC), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=run.env, bufsize=0,
        )
        ready = self._read(max(0.0, min(READY_LIMIT_S, run.left())))
        self.alive = bool(ready and ready.get("ready"))
        self.setup = time.perf_counter() - spawned
        if self.alive:
            run.setup_raw.append(self.setup)
        else:
            self._kill()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.alive:
            try:
                self.proc.stdin.write(b'{"op": "quit"}\n')
                self.proc.wait(timeout=10)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        self._kill()

    def _kill(self) -> None:
        self.alive = False
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def _read(self, timeout: float) -> dict | None:
        """Next reply line, or None on timeout or end of output."""
        end = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def request(self, payload: dict, limit: float) -> dict | None:
        """Send one request; its reply, or None with the reason in `failure`."""
        if not self.alive:
            self.failure = "worker not running"
            return None
        if limit <= 0:
            self.failure = "run time limit reached"
            return None
        try:
            self.proc.stdin.write(json.dumps(payload).encode() + b"\n")
            reply = self._read(limit)
        except BrokenPipeError:
            reply = None
        if reply is None:
            exited = self.proc.poll() is not None
            self.failure = "worker exited" if exited else f"no reply within {limit:.0f} s"
            self._kill()
        return reply

    def call(self, op: str, args: dict) -> dict:
        """One timed operation; the reply always carries `ok` and `seconds`."""
        start = time.perf_counter()
        limit = min(CALL_LIMIT_S, self.run.left())
        reply = self.request({"op": op, "args": args}, limit)
        if reply is None:
            reply = {"ok": False, "error": self.failure, "seconds": time.perf_counter() - start,
                     "cut": limit < CALL_LIMIT_S and self.run.left() <= 0}
        self.run.peak_rss_mb = max(self.run.peak_rss_mb, reply.get("rss_mb", 0.0))
        reply["yardstick"] = len(self.run.yardsticks) - 1
        self.run.calls.append(reply)
        return reply


# -- workloads ----------------------------------------------------------------


def mismatch(got: dict, want: dict) -> str | None:
    """The first key whose value differs from the expected one, described."""
    for key, value in want.items():
        if got[key] != value:
            return f"{key} {str(got[key])[:200]}, expected {str(value)[:200]}"
    return None


def audit_pass(run: Run, size: list[dict], expected: dict, trace: bool, seed: int):
    replies, traces = {}, []
    for args in size:
        d = args["d"]
        run.probe()
        with Worker(run, trace) as worker:
            reply = worker.call("audit", args)
        want = None
        if reply["ok"]:
            checks = reply["result"].pop("checks")
            reply["result"].update(
                count=len(checks),
                names=[name for name, _ in checks],
                not_passing=[name for name, status in checks if status != "pass"],
            )
            want = {**expected[str(d)], "not_passing": []}
        run.record(f"audit d={d}", reply, want)
        replies[f"verify_d{d}_s"] = reply
        traces.append(reply.get("trace"))
    run.probe()
    return {key: run.seconds(reply) for key, reply in replies.items()}, traces


def draw_pairs(branch: list[int], seed: int, count: int) -> list[tuple[int, int]]:
    """The seeded sample of distinct branch-point pairs the probe queries."""
    rng = random.Random(seed)
    return [tuple(rng.sample(branch, 2)) for _ in range(count)]


def deep_pass(run: Run, size: dict, expected: dict, trace: bool, seed: int):
    stage = size["stage"]
    replies, traces = {}, []

    def step(worker, op, args, want):
        run.probe()
        reply = worker.call(op, args)
        run.record(op, reply, want)
        replies[op] = reply
        traces.append(reply.get("trace"))
        return reply.get("result") if reply["ok"] else None

    pairs, pair_replies = [], []
    with Worker(run, trace) as worker:
        tree = step(worker, "tree", {"stage": stage},
                    {"edges": expected["edges"], "branch_count": expected["branch_points"]})
        step(worker, "extend", {"stage": stage}, {"vertices": expected["edges"] + 1})
        step(worker, "edge_check", {"stage": stage}, {})
        step(worker, "gap", {"stage": stage}, {"exact": True})
        step(worker, "scan", {"stage": size["scan"]}, {"labels": expected["labels"]})
        step(worker, "path_audit", {"stage": size["paths"]},
             {"failures": [], "branch_points": expected["path_audit_branch_points"]})
        run.probe()
        pairs = draw_pairs(tree["branch_points"], seed, size["pairs"]) if tree else []
        for x, y in pairs:
            reply = worker.call("pair", {"stage": stage, "x": x, "y": y})
            run.record(f"pair ({x},{y})", reply, {"match": True})
            pair_replies.append(reply)
            traces.append(reply.get("trace"))
    run.probe()
    for _ in range(size["pairs"] - len(pairs)):
        run.record("pair", {"ok": False, "error": "no stage tree to draw pairs from"})

    seconds = {op: run.seconds(reply) for op, reply in replies.items()}
    pair_ms = [run.seconds(reply) * 1e3 for reply in pair_replies]
    build = seconds.get("tree", 0) + seconds.get("extend", 0) + seconds.get("edge_check", 0)
    figures = {
        "realize_edges_per_s": expected["edges"] / build if build else 0.0,
        "path_audit_s": seconds.get("path_audit", 0.0),
        "pair_query_p50_ms": percentile(pair_ms, 0.50),
        "pair_query_p95_ms": percentile(pair_ms, 0.95),
    }
    return figures, traces


def artifact_commands(size: dict) -> list[tuple[str, list[str]]]:
    n = str(size["gen_n"])
    return [
        ("gen-json", ["gen", "--d", "3", "--n", n, "--format", "json"]),
        ("gen-dot", ["gen", "--d", "3", "--n", n, "--format", "dot"]),
        ("gen-csv", ["gen", "--d", "3", "--n", n, "--format", "csv"]),
        ("plot-rauzy", ["plot", "--kind", "rauzy", "--depth", str(size["rauzy_depth"]),
                        "--color", "cylinder:7", "--format", "svg"]),
        ("plot-zeta", ["plot", "--kind", "zeta", "--n", str(size["zeta_n"]),
                       "--depth", str(size["zeta_depth"]), "--format", "csv"]),
    ]


def artifacts_pass(run: Run, size: dict, expected: dict, trace: bool, seed: int):
    replies, traces = [], []
    for name, argv in artifact_commands(size):
        out = run.tmp / f"{name}.{argv[-1]}"
        run.probe()
        with Worker(run, trace) as worker:
            reply = worker.call("cli", {"argv": argv + ["--out", str(out)], "out": str(out)})
        run.record(name, reply, {"rc": 0, "sha256": expected[name]})
        out.unlink(missing_ok=True)
        replies.append((f"{argv[0]}_s", reply))
        traces.append(reply.get("trace"))
    run.probe()
    figures = {"gen_s": 0.0, "plot_s": 0.0}
    for key, reply in replies:
        figures[key] += run.seconds(reply)
    return figures, traces


PASSES = {"audit": audit_pass, "deep-geometry": deep_pass, "artifacts": artifacts_pass}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: of 200 values, p95 has 10 above it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- one run ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, expected: dict | None = None) -> dict:
    """One benchmark run of one workload; returns figures, metrics and counts."""
    size_key = "quick" if quick else "full"
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())[size_key][name]
    size = SIZES[size_key][name]
    one_pass = PASSES[name]
    started = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        run = Run(tmp, seconds + RUN_MARGIN_S)
        passes, spans = [], []

        def measure(traced: bool):
            first_call, first_probe = len(run.calls), len(run.yardsticks)
            figures, calls = one_pass(run, size, expected, traced, seed)
            replies = run.calls[first_call:]
            figures["wall_s"] = sum(run.seconds(reply) for reply in replies)
            figures["wall_raw_s"] = sum(reply["seconds"] for reply in replies)
            figures["yardstick_s"] = statistics.median(run.yardsticks[first_probe:] or [0.0])
            return figures, calls

        def no_complete_pass() -> None:
            run.attempted += 1
            run.failed += 1
            run.errors.append(f"no complete pass within {seconds + RUN_MARGIN_S:.0f} s")

        if trace:
            plain, _ = measure(False)
            traced, calls = measure(True)
            passes = [plain, traced]
            if run.cut:
                no_complete_pass()
            spans = [c for c in calls if c is not None]
            figures = layer_metrics(spans)
            figures["trace.overhead_ratio"] = (
                (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"] if plain["wall_s"] else 0.0
            )
        else:
            while True:
                began = time.perf_counter()
                figures = measure(False)[0]
                if run.cut:
                    break
                passes.append(figures)
                now = time.perf_counter()
                if now - started + (now - began) > seconds or run.left() < now - began:
                    break
            if passes:
                figures = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
            else:
                passes = [figures]
                no_complete_pass()
        figures["setup_s"] = statistics.median(run.setup_scaled or [0.0])
        figures["setup_raw_s"] = statistics.median(run.setup_raw or [0.0])
        figures["peak_rss_mb"] = run.peak_rss_mb
        figures["fail_ratio"] = run.failed / run.attempted
        figures["success_ratio"] = 1.0 - figures["fail_ratio"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "trace": trace, "quick": quick,
        "figures": figures, "passes": passes, "attempted": run.attempted,
        "failed": run.failed, "errors": run.errors, "spans": spans,
        "seconds": time.perf_counter() - started,
    }


# -- reporting ----------------------------------------------------------------


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "treesubst").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed, "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(), "loadavg_1m_start": os.getloadavg()[0],
    }


def print_figures(result: dict, units: dict[str, str]) -> None:
    figures = result["figures"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"  passes {len(result['passes'])}  attempted {result['attempted']}"
          f"  failed {result['failed']}  ({result['seconds']:.1f} s)")
    for key, value in figures.items():
        unit = units.get(key) or FIGURE_UNITS.get(key, "")
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {key:28s} {shown} {unit}")
    for error in result["errors"][:10]:
        print(f"  failed: {error}")


def contract_metrics(result: dict, spec: list[dict]) -> dict:
    figures = result["figures"]
    return {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for self-tests")
    parser.add_argument("--out", type=Path, default=None, help="write the full record here")
    args = parser.parse_args(argv)

    if not (SRC / "treesubst" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # byte-compile once, untimed, so every worker start-up imports alike
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_file(str(HERE / "tracer.py"), quiet=1)

    env = environment(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        print_figures(result, units)
        results.append(result)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    print("env " + json.dumps(env))
    if args.out is not None:
        args.out.write_text(json.dumps({"env": env, "results": results}, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = contract_metrics(results[0], metric_spec)
    else:
        metrics = {
            f"{r['workload']}.{k}": v
            for r in results for k, v in contract_metrics(r, metric_spec).items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
