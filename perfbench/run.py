"""End-to-end and per-layer benchmark for ktri.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

One client drives ``ktri.cli.main`` in-process, in a closed loop: each
request is sent when the previous one has returned, with stdin and stdout
swapped for in-memory buffers.  A workload is a list of requests made from
``--seed`` (see ``inputs.py``); a pass sends it once, and the benchmark runs
passes until the next one would end after ``--seconds``, always at least
one.  Every output is checked against answers the benchmark computes
itself; a wrong output, a nonzero exit or an escaped exception is a failed
request.

Workloads: ``enumerate`` lists every level up to a second of brute work with
both methods, ``bijection`` sends ``unmap`` then ``map`` on seeded
non-crossing pairs of semilength 4..14, ``count`` sends ``count --method
det`` on a seeded (n, k) grid, and ``verify`` runs the invariant suite for
k=2 and k=3.  ``render`` is on no user's hot path and is not measured.

Times are nominal seconds (see ``timed``): measured time scaled by the
momentary speed of the core, as a reference loop timed around and during the
measured code sees it, to the loop's speed on an idle core (``REFERENCES``).
On a shared machine whose cores run at half speed for seconds at a time,
they stay steady where measured seconds do not; the medians of measured
seconds are reported too.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the gated end-to-end metrics, which every workload has: ``setup_s`` (median
of several set-ups spread over the run, each an import of ktri plus input
generation and the expected answers), ``wall_s`` (median over passes of the
time a pass spends in ktri) and ``peak_rss_mb``.  The lines before it report
every end-to-end metric of the workload, also ``fail_ratio`` and the
per-request ones only some workloads have.  With ``--trace 1`` the timed
passes are followed by one untraced and one traced pass over the same
inputs (see ``tracing.py``), and the metrics are the per-layer ones.  Each
run writes ``perfbench/results/<workload>-seed<seed>-trace<t>.json`` with
the environment; a traced run also writes its spans to
``perfbench/results/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 11
PROBES_AROUND = 2
PROBE_INTERVAL_S = 0.05
# Each bijection pass takes a fresh pool of two pairs per semilength, so a
# run's median pass averages over many pairs: unmap time varies about 3x
# between pairs of one size.  Runs longer than BIJECTION_POOLS passes cycle.
BIJECTION_POOLS = 40
BIJECTION_PER_SEMILENGTH = 2

GATED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

Metrics = dict[str, tuple[float, str, str]]  # name -> (value, unit, note)


def percentile_name(samples: int) -> int:
    """p90, or the highest multiple of 5 that leaves ten samples above it."""
    for p in range(90, 50, -5):
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


_X, _Y = 3**2000, 7**1900


def objects_loop() -> None:
    """Small-object work: the kind of code the tree and bijection modules run."""
    seen: dict = {}
    items: list[int] = []
    for i in range(750):
        items.append(i * 7919 % 1009)
        if len(items) == 50:
            items.sort()
            seen[len(set(items))] = i
            items.clear()
    for i in range(50):
        cells = sorted(((i * 31 + j * 17) % 97, j) for j in range(8))
        seen[tuple(cells)] = len(frozenset(cells))


def bignums_loop() -> None:
    """Interpreter work and arithmetic on 3,000-digit integers, as in the determinant."""
    items: list[int] = []
    for i in range(750):
        items.append(i * 7919 % 1009)
        if len(items) == 50:
            items.sort()
            items.clear()
    for i in range(3):
        (_X * _Y + i) // (_Y + 1)


# Each reference loop with its time on an idle core of a 2.0 GHz Xeon VM
# under CPython 3.11; nominal seconds are seconds at that speed.
REFERENCES = {"objects": (objects_loop, 210e-6), "bignums": (bignums_loop, 205e-6)}


def timed(fn, reference: str):
    """Call fn(); return (its result, measured seconds, nominal seconds).

    On a shared machine a core can run at half speed for seconds at a time.
    A reference loop doing the same kind of work slows with it, so it is
    timed twice before fn, every PROBE_INTERVAL_S during fn (from a timer
    signal) and twice after.  Measured seconds exclude the loop runs during
    fn; nominal seconds scale them by the loop's idle-core time over its mean
    time here, which keeps them steady while the machine's speed is not.
    """
    work, idle_seconds = REFERENCES[reference]

    def probe_seconds() -> float:
        start = perf_counter()
        work()
        return perf_counter() - start

    loop = [probe_seconds() for _ in range(PROBES_AROUND)]
    saved = signal.signal(signal.SIGALRM, lambda *_: loop.append(probe_seconds()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, saved)
    seconds = elapsed - sum(loop[PROBES_AROUND:])
    loop += [probe_seconds() for _ in range(PROBES_AROUND)]
    return result, seconds, seconds * idle_seconds / statistics.fmean(loop)


class Client:
    """Sends one CLI request at a time to ktri.cli.main and times it."""

    def __init__(self, cli, reference: str, tracer: tracing.Tracer | None = None) -> None:
        self.cli = cli
        self.reference = reference
        self.tracer = tracer
        self.sent = 0
        self.measured = 0.0
        self.nominal = 0.0

    def call(self, argv: list[str], stdin: str = "") -> tuple[int | None, str, float, str]:
        """Return (exit code, stdout, nominal seconds, error); error is "" on success."""
        if self.tracer is not None:
            self.tracer.request = self.sent
        self.sent += 1
        out, err = io.StringIO(), io.StringIO()

        def send() -> tuple[int | None, str]:
            saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    return self.cli.main(argv), ""  # looked up per call, so tracing sees it
            except SystemExit as exc:  # argparse usage errors
                return (exc.code if isinstance(exc.code, int) else 2), ""
            except Exception:  # the request boundary: record the failure, keep running
                return None, traceback.format_exc(limit=3)
            finally:
                sys.stdin = saved_stdin

        (code, error), measured, nominal = timed(send, self.reference)
        self.measured += measured
        self.nominal += nominal
        if not error and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
        return code, out.getvalue(), nominal, error


class Workload:
    """A seeded request list, the checks of its outputs and its own metrics."""

    name = ""
    reference = "objects"  # the key in REFERENCES of the loop that times it

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error = ""
        self.latency: dict[str, list[float]] = {}

    def request(self, client: Client, kind: str, argv: list[str], stdin: str, check) -> str | None:
        """Send one request; return its stdout, or None when it failed."""
        code, out, seconds, error = client.call(argv, stdin)
        self.attempted += 1
        self.latency.setdefault(kind, []).append(seconds)
        if not error:
            error = check(out) or ""
        if error:
            self.fail(f"{' '.join(argv)}: {error}")
            return None
        return out

    def fail(self, message: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = message

    def run_pass(self, client: Client, index: int) -> None:
        raise NotImplementedError

    def metrics(self, walls: list[float]) -> Metrics:
        """The end-to-end metrics only this workload defines."""
        raise NotImplementedError

    def latency_metrics(self, kind: str) -> Metrics:
        values = self.latency.get(kind, [])
        if not values:
            return {}
        p = percentile_name(len(values))
        note = f"{len(values)} requests"
        return {
            f"{kind}_p50_ms": (statistics.median(values) * 1000, "ms", note),
            f"{kind}_p{p}_ms": (percentile(values, p) * 1000, "ms", note),
        }


class Enumerate(Workload):
    name = "enumerate"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.requests = inputs.enumerate_requests(random.Random(seed))
        self.expected = {(k, n): inputs.count_product(n, k) for k, n in inputs.ENUMERATE_LEVELS}
        self.pass_seconds: dict[str, list[float]] = {"brute": [], "tree": []}

    def run_pass(self, client: Client, index: int) -> None:
        listed: dict[tuple[int, int], list[str]] = {}
        seconds = {"brute": 0.0, "tree": 0.0}
        for k, n, method in self.requests:

            def check(out: str, k=k, n=n) -> str | None:
                lines = out.splitlines()
                if not lines or lines[0] != f"k={k} n={n}":
                    return "bad header"
                if len(lines) - 1 != self.expected[(k, n)]:
                    return f"{len(lines) - 1} objects, expected {self.expected[(k, n)]}"
                other = listed.get((k, n))
                if other is not None and other != lines:
                    return "brute and tree listings differ"
                return None

            argv = ["enumerate", "--k", str(k), "--n", str(n), "--method", method]
            out = self.request(client, method, argv, "", check)
            seconds[method] += self.latency[method][-1]
            if out is not None:
                listed[(k, n)] = out.splitlines()
        for method, total in seconds.items():
            self.pass_seconds[method].append(total)

    def metrics(self, walls):
        objects = sum(self.expected.values())
        out = {}
        for method, totals in self.pass_seconds.items():
            out[f"enum_{method}_objs_per_s"] = (
                objects / statistics.median(totals),
                "1/s",
                f"{objects} objects a pass, median of {len(totals)} passes",
            )
        return out


class Bijection(Workload):
    name = "bijection"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.pools = inputs.bijection_pools(
            random.Random(seed), BIJECTION_POOLS, BIJECTION_PER_SEMILENGTH
        )

    def run_pass(self, client: Client, index: int) -> None:
        for p, q in self.pools[index % len(self.pools)]:
            n = len(p) // 2 + 4
            pair = f"{p}\n{q}\n"

            def check_unmap(out: str, n=n) -> str | None:
                lines = out.splitlines()
                if len(lines) != 2 or lines[0] != f"k=2 n={n}":
                    return "bad triangulation header"
                diagonals = [] if lines[1] == "-" else lines[1].split(",")
                if len(diagonals) != 2 * (n - 5):
                    return f"{len(diagonals)} diagonals, expected k(n-2k-1) = {2 * (n - 5)}"
                return None

            def check_map(out: str, pair=pair) -> str | None:
                return None if out == pair else "map(unmap(x)) != x"

            tri = self.request(client, "unmap", ["unmap"], pair, check_unmap)
            if tri is None:
                self.attempted += 1
                self.fail("map not sent: unmap failed")
                continue
            self.request(client, "map", ["map"], tri, check_map)

    def metrics(self, walls):
        return {**self.latency_metrics("map"), **self.latency_metrics("unmap")}


class Count(Workload):
    name = "count"
    reference = "bignums"  # the determinant spends its time on big integers

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.grid = [
            (n, k, str(inputs.count_product(n, k)))
            for n, k in inputs.count_grid(random.Random(seed))
        ]

    def run_pass(self, client: Client, index: int) -> None:
        for n, k, expected in self.grid:

            def check(out: str, expected=expected) -> str | None:
                return None if out.strip() == expected else "differs from the product formula"

            argv = ["count", "--k", str(k), "--n", str(n), "--method", "det"]
            self.request(client, "count", argv, "", check)

    def metrics(self, walls):
        return self.latency_metrics("count")


class Verify(Workload):
    name = "verify"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.runs = inputs.verify_requests(random.Random(seed))

    def run_pass(self, client: Client, index: int) -> None:
        for k, n_max in self.runs:

            def check(out: str) -> str | None:
                lines = out.splitlines()
                bad = [line for line in lines if not line.startswith("PASS ")]
                if not lines or bad:
                    return f"not every check passed: {bad[:1]}"
                return None

            argv = ["verify", "--k", str(k), "--n-max", str(n_max)]
            self.request(client, "verify", argv, "", check)

    def metrics(self, walls):
        return {"verify_s": (statistics.median(walls), "s", f"median of {len(walls)} passes")}


WORKLOADS = {cls.name: cls for cls in (Enumerate, Bijection, Count, Verify)}


def set_up(workload: str, seed: int, keep: bool = True):
    """Import ktri afresh and build the workload's inputs and expected answers.

    Returns (measured seconds, nominal seconds, ktri.cli, workload).  With
    keep=False the ktri modules loaded before the call are put back, so a
    timed repeat leaves the code under measurement in place.
    """
    loaded = {name: sys.modules.pop(name) for name in list(sys.modules) if tracing.is_ktri(name)}
    (cli, built), measured, nominal = timed(
        lambda: (importlib.import_module("ktri.cli"), WORKLOADS[workload](seed)),
        WORKLOADS[workload].reference,
    )
    if not keep:
        for name in [name for name in sys.modules if tracing.is_ktri(name)]:
            del sys.modules[name]
        sys.modules.update(loaded)
    return measured, nominal, cli, built


def run_pass(workload: Workload, client: Client, index: int) -> tuple[float, float]:
    """One pass; the measured and the nominal seconds its requests spent in ktri."""
    measured, nominal = client.measured, client.nominal
    workload.run_pass(client, index)
    return client.measured - measured, client.nominal - nominal


def run_passes(
    workload: Workload, client: Client, seconds: float, between
) -> list[tuple[float, float]]:
    """run_pass until the next would end after `seconds`, calling between() after each."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workload, client, len(passes)))
        between()
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            return passes


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "ktri_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ktri" / "__init__.py").is_file():
        print(f"perfbench: no ktri package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    measured, nominal, cli, workload = set_up(args.workload, args.seed)
    setups = [(measured, nominal)]

    def set_up_again() -> None:
        if len(setups) < SETUP_REPEATS:
            setups.append(set_up(args.workload, args.seed, keep=False)[:2])
            gc.collect()

    gc.collect()
    passes = run_passes(workload, Client(cli, workload.reference), args.seconds, set_up_again)
    while len(setups) < SETUP_REPEATS:
        set_up_again()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if args.trace:
        untraced = run_pass(workload, Client(cli, workload.reference), 0)[1]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_pass(workload, Client(cli, workload.reference, tracer), 0)[1]
        layers = tracer.layer_metrics()
        layers[tracing.OVERHEAD] = traced - untraced
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{args.workload}.csv")

    walls = [nominal for _, nominal in passes]
    report: Metrics = {
        "setup_s": (
            statistics.median(n for _, n in setups), "s", f"median of {len(setups)} set-ups"
        ),
        "wall_s": (statistics.median(walls), "s", f"median of {len(passes)} passes"),
        "fail_ratio": (
            workload.failed / workload.attempted,
            "ratio",
            f"{workload.failed} of {workload.attempted} requests",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", "maximum resident set size"),
        **workload.metrics(walls),
        "setup_measured_s": (statistics.median(m for m, _ in setups), "s", "as measured"),
        "wall_measured_s": (statistics.median(m for m, _ in passes), "s", "as measured"),
    }
    if args.trace:
        units = tracing.layer_metric_units()
        metrics = {n: {"value": layers[n], "unit": u} for n, u in units.items()}
    else:
        metrics = {n: {"value": report[n][0], "unit": u} for n, u in GATED.items()}

    env = environment(args.seed)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(walls)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in report.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")
    if args.trace:
        print(
            f"  trace: pass 0 untraced {untraced:.4g} s, traced {traced:.4g} s, "
            f"{len(tracer.starts)} spans"
        )
    if workload.first_error:
        print(f"first failure: {workload.first_error}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes_s": passes,
        "setups_s": setups,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "first_failure": workload.first_error,
        "end_to_end": {n: {"value": v, "unit": u, "note": t} for n, (v, u, t) in report.items()},
        "per_layer": layers,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
