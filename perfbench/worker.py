"""Benchmark worker: one process that imports treesubst and runs timed calls.

Usage (started by run.py, not by hand):

    python worker.py <src-dir> <trace 0|1>

The worker imports the package from <src-dir>, optionally installs the
span tracer, and answers {"ready": true}.  It then reads one JSON request
per line on stdin and writes one JSON reply per line on its original
stdout; anything the program itself prints is sent to /dev/null.  A reply
holds the call's wall time, the process's peak RSS so far, the outputs the
harness checks, and with tracing on the call's span records.  Outputs are
collected after the clock stops and with no span open, so checking them
is neither timed nor traced.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def yardstick(n: int = 100_000) -> float:
    """Seconds of a fixed pure-Python task: small tuples, lists and dicts kept alive.

    It touches nothing of treesubst, so a change to the package cannot move
    it; only the speed of the machine at that moment does.  The live heap
    makes the collector and the memory system work, as the package does.
    """
    start = time.perf_counter()
    heap = []
    for i in range(n):
        word = tuple((i * 7 + j) % 5 - 2 for j in range(10))
        reduced = [x for x in word if x]
        heap.append((word, {k: reduced[k % len(reduced)] for k in range(4)}))
    return time.perf_counter() - start


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Session:
    """State of one worker: the objects a multi-call workload builds on."""

    def __init__(self, tracer):
        from treesubst import algnum, cli, core, freegroup, realization, trees, verify

        self.tracer = tracer
        self.algnum, self.cli, self.core = algnum, cli, core
        self.freegroup, self.realization, self.trees, self.verify = (
            freegroup, realization, trees, verify,
        )
        self.it = self.tree = self.real = self.scan = None

    def run(self, op: str, args: dict) -> dict:
        handler = getattr(self, f"op_{op}")
        if self.tracer is not None:
            self.tracer.begin()
        start = time.perf_counter()
        try:
            report = handler(**args)
        except Exception as exc:  # the call failed; the worker keeps serving
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"[:500]}
            traceback.print_exc(limit=4, file=sys.stderr)
        else:
            reply = {"ok": True}
        reply["seconds"] = time.perf_counter() - start
        if self.tracer is not None:
            reply["trace"] = self.tracer.end()
        if reply["ok"]:
            try:
                reply["result"] = report()
            except Exception as exc:
                reply = {**reply, "ok": False, "error": f"{type(exc).__name__}: {exc}"[:500]}
        reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return reply

    # -- audit ----------------------------------------------------------------

    def op_audit(self, **kwargs):
        results = self.verify.run_suite(**kwargs)
        return lambda: {"checks": [[r.name, r.status] for r in results]}

    # -- deep-geometry: one library session ---------------------------------

    def op_tree(self, stage: int):
        self.it = self.trees.TreeIteration(3)
        self.tree = self.it.tree_at(stage)
        return lambda: {
            "edges": len(self.tree.edges),
            "branch_count": len(self.tree.branch_points()),
            "branch_points": sorted(self.tree.branch_points()),
        }

    def op_extend(self, stage: int):
        self.real = self.realization.Realization(self.it)
        self.real.extend_to(stage)
        return lambda: {"vertices": len(self.real.points)}

    def op_edge_check(self, stage: int):
        self.real.edge_length_check(stage)
        return dict

    def op_gap(self, stage: int):
        gap = self.real.hausdorff_gap(stage)
        return lambda: {"exact": gap == self.algnum.ExactLength.rho_power(3, -(stage + 1))}

    def op_scan(self, stage: int):
        self.scan = self.core.shared_scan(3)
        self.scan.extend_to(stage)
        return lambda: {"labels": len(self.scan.labels)}

    def op_path_audit(self, stage: int):
        failures = self.scan.check_path_distances(stage)
        return lambda: {
            "failures": failures,
            "branch_points": len(self.scan.it.tree_at(stage).branch_points()),
        }

    def op_pair(self, stage: int, x: int, y: int):
        word = self.tree.path_word(x, y)
        want = self.core.legal_path_distance(3, self.freegroup.p_star(3, word)).scaled(-stage)
        got = self.realization.distance(self.real.point(x), self.real.point(y))
        match = got == want
        return lambda: {"match": match}

    # -- artifacts ----------------------------------------------------------

    def op_cli(self, argv: list[str], out: str):
        rc = self.cli.main(argv)
        return lambda: {"rc": rc, "sha256": _sha256(out), "bytes": os.path.getsize(out)}


def main() -> int:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    # replies go to a private copy of stdout; the program's own prints are dropped
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    sys.path.insert(0, src)
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    session = Session(tracer)

    def send(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")

    send({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "quit":
            break
        if request["op"] == "yardstick":
            send({"seconds": yardstick()})
            continue
        send(session.run(request["op"], request.get("args", {})))
    proto.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
