"""Seeded, self-checking benchmark of ncrewrite.

    python3 bench/run.py --workload confluence --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare BASE NEW

Run it from any directory of a source checkout: it imports ncrewrite from
the checkout's ``src`` and needs its ``presentations``.  One process, no
threads, standard library only.

A run sets the workload up, makes one pass over the workload's operations
that checks every output against the references in ``reference.py``, then
repeats timed passes for ``--seconds``, setting the workload up again
between passes (``setup_s`` is the median of these set-ups).  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates traced and untraced
iterations (each a set-up and a pass) and reports the per-layer metrics.

Times are scaled to a fixed machine speed.  On a shared 2-vCPU cloud host
the speed at which Python runs drifts by up to 2x over tens of seconds,
longer than a run.  So every timed stretch (a
set-up, or a segment of at least ``SEGMENT_NS`` of consecutive operations)
is bracketed by ``reference_work``, a fixed pure-Python computation that
does not use ncrewrite, and each time is divided by the mean of the two
reference times around it and multiplied by ``REFERENCE_S``.  ``setup_s``,
``batch_s`` and the phase timings are these scaled times: seconds on a
machine where ``reference_work`` takes ``REFERENCE_S``.  A change to
ncrewrite moves them as it moves wall time; a slow spell of the host moves
the operations and the reference work together and cancels.  The unscaled
times are printed and recorded beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with quartiles, sample counts and the environment, goes to
``bench/results/``, and traced runs also write their spans there.

``--compare BASE NEW`` takes two results files or directories of them and
prints, per workload and end-to-end metric, the ratio NEW/BASE of the
medians; a metric whose run-to-run spread exceeds its bound is marked
unresolved.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import PHASES, SETUPS  # noqa: E402

BUDGET_ENV_VAR = "NCREWRITE_ORACLE_BUDGET"
HASH_SEED = "0"
SETUPS_PER_PASS = 3
MIN_SETUPS = 21
# reference_work's time at which scaled times equal wall times: about its
# fastest on a 2-vCPU shared cloud host with Python 3.11.7
REFERENCE_S = 0.0005
SEGMENT_NS = 20_000_000  # least operation time between two reference runs
TIME_LIMIT_S = 170  # a run that has not finished by then stops without a result
MODULES = ("coeff", "freealg", "syntax", "order", "rewrite", "ambiguity",
           "quotient", "arw", "cli")
RESULTS = BENCH / "results"


class BenchError(Exception):
    pass


class RunTimeout(BaseException):
    """Raised by the alarm; not an Exception, so no handler in ncrewrite or
    in the pass loop swallows it."""


def _alarm(signum, frame):
    raise RunTimeout(f"run exceeded {TIME_LIMIT_S} s")


_WORDS = [w for n in range(3) for w in itertools.product(range(3), repeat=n)]


def reference_work() -> int:
    """The square of a fixed polynomial in three noncommuting variables with
    Fraction coefficients: dict, tuple and Fraction work like ncrewrite's,
    computed without it."""
    poly = {w: Fraction(len(w) + 1, sum(w) + 2) for w in _WORDS}
    square = {}
    for u, a in poly.items():
        for v, b in poly.items():
            square[u + v] = square.get(u + v, 0) + a * b
    return len(square)


def reference_ns() -> int:
    """Wall time of reference_work, with the collector paused so that it
    does not collect the garbage of the operations around it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        reference_work()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scaled_s(ns: float, reference: float) -> float:
    """A wall time in ns as seconds at the speed where reference_work takes
    REFERENCE_S, given reference_work's time in ns around it."""
    return ns / reference * REFERENCE_S


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def fresh_import() -> SimpleNamespace:
    """Import ncrewrite from the checkout as a fresh interpreter would."""
    for name in [n for n in sys.modules if n == "ncrewrite" or n.startswith("ncrewrite.")]:
        del sys.modules[name]
    package = importlib.import_module("ncrewrite")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "ncrewrite":
        raise BenchError(f"imported ncrewrite from {package.__file__}, not the checkout")
    return SimpleNamespace(**{m: importlib.import_module(f"ncrewrite.{m}") for m in MODULES})


def git_revision() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "git": git_revision(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "nproc": len(os.sched_getaffinity(0)),
            BUDGET_ENV_VAR: os.environ.get(BUDGET_ENV_VAR)}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stat(values, unit) -> dict:
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs passes over a workload's operations and judges every output."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.memo = {}          # op index -> (output data, reason or None)
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0      # wrong answers and undocumented exceptions
        self.failures = {}      # label -> (kind, reason), first occurrence

    def setup(self):
        nc = fresh_import()
        return SETUPS[self.workload](nc, self.seed, str(self.workdir), str(ROOT))

    def timed_setup(self):
        """The operations, the set-up's wall time in ns and the mean time of
        reference_work just before and just after it."""
        gc.collect()
        before = reference_ns()
        start = time.perf_counter_ns()
        ops = self.setup()
        elapsed = time.perf_counter_ns() - start
        return ops, elapsed, (before + reference_ns()) / 2

    def judge(self, index, op, out, exc):
        self.attempted += 1
        if exc is not None:
            budget = type(exc).__name__ == "BudgetExceededError"
            kind = "budget" if budget else "error"
            reason = (f"oracle budget exceeded ({exc})" if budget
                      else f"raised {type(exc).__name__}: {exc}")
        else:
            try:
                data = op.canon(out)
                seen = self.memo.get(index)
                if seen is not None and seen[0] == data:
                    reason = seen[1]
                else:
                    reason = op.check(data)
                    self.memo[index] = (data, reason)
            except Exception as err:  # unreadable output is a wrong answer
                reason = f"unreadable output: {type(err).__name__}: {err}"
            kind = "wrong" if reason else None
        if kind:
            self.failed += 1
            self.incorrect += kind != "budget"
            self.failures.setdefault(op.label, (kind, reason))

    def run_pass(self, ops, tracer=None, iteration=0, probe=False):
        """Each operation's wall time in ns and, with probe, the mean time
        of reference_work before and after the segment that holds it."""
        gc.collect()
        times, references = [], []
        if probe:
            before, segment = reference_ns(), 0
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.request = f"{iteration}:{index}"
            start = time.perf_counter_ns()
            try:
                out, exc = op.call(), None
            except Exception as err:  # judged below; no operation may stop the run
                out, exc = None, err
            times.append(time.perf_counter_ns() - start)
            if tracer is not None:
                tracer.active = False
            self.judge(index, op, out, exc)
            if tracer is not None:
                tracer.active = True
            if probe:
                segment += times[-1]
                if segment >= SEGMENT_NS or index == len(ops) - 1:
                    after = reference_ns()
                    references += [(before + after) / 2] * (len(times) - len(references))
                    before, segment = after, 0
        return times, references


def measure(runner: Runner, seconds: int, units: dict) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off, and the phase timings."""
    ops, ns, reference = runner.timed_setup()
    setups = [(ns, reference)]
    runner.run_pass(ops)  # checks every output in full; not timed
    passes = []
    while not passes or sum(sum(p[0]) for p in passes) < seconds * 1e9:
        passes.append(runner.run_pass(ops, probe=True))
        # set-ups between passes, so that their median samples the whole run
        for _ in range(SETUPS_PER_PASS):
            ops, ns, reference = runner.timed_setup()
            setups.append((ns, reference))
    while len(setups) < MIN_SETUPS:
        setups.append(runner.timed_setup()[1:])
    # Each operation's median scaled time over the passes, summed per phase;
    # the quartiles are those of whole passes.  The unscaled figure beside
    # it is the sum of each operation's fastest pass.
    scaled = [[scaled_s(t, r) for t, r in zip(*p)] for p in passes]
    typical = [statistics.median(s[i] for s in scaled) for i in range(len(ops))]
    fastest = [min(p[0][i] for p in passes) / 1e9 for i in range(len(ops))]

    def batch(idx, unit):
        per_pass = [sum(s[i] for i in idx) for s in scaled]
        return {**stat(per_pass, unit), "value": sum(typical[i] for i in idx),
                "unscaled_fastest": sum(fastest[i] for i in idx)}

    phases = {phase: batch([i for i, op in enumerate(ops) if op.phase == phase], "s")
              for phase in PHASES[runner.workload]}
    metrics = {
        "setup_s": {**stat([scaled_s(*s) for s in setups], units["setup_s"]),
                    "unscaled_median": statistics.median(s[0] for s in setups) / 1e9},
        "batch_s": batch(range(len(ops)), units["batch_s"]),
        "peak_rss_mb": stat([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
                            units["peak_rss_mb"]),
        "reference_work_s": stat([s[1] / 1e9 for s in setups], "s"),
    }
    return metrics, phases


def measure_traced(runner: Runner, seconds: int, units: dict):
    """Per-layer metrics from traced iterations, alternated with untraced
    ones; an iteration is a fresh import, a set-up and a pass."""
    ops = runner.setup()
    runner.run_pass(ops)  # checks every output in full; not timed
    walls = {False: [], True: []}
    per_layer, spans = [], []
    iteration = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not walls[True] or not walls[False]:
        traced = iteration % 2 == 1
        gc.collect()
        t0 = time.perf_counter_ns()
        nc = fresh_import()
        import_ns = time.perf_counter_ns() - t0
        tracer = tracing.Tracer().install() if traced else None
        try:
            if tracer is not None:
                tracer.request = f"{iteration}:setup"
            t1 = time.perf_counter_ns()
            ops = SETUPS[runner.workload](nc, runner.seed, str(runner.workdir), str(ROOT))
            setup_ns = import_ns + time.perf_counter_ns() - t1
            times, _ = runner.run_pass(ops, tracer, iteration)
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls[traced].append((setup_ns + sum(times)) / 1e9)
        if tracer is not None:
            per_layer.append(tracing.layer_metrics(tracer.spans, tracer.candidates))
            spans.append({"iteration": iteration, "spans": tracer.spans})
        iteration += 1
    metrics = {name: stat([m[name] for m in per_layer], units[name])
               for name in per_layer[0]}
    metrics["trace.overhead_ratio"] = {
        "value": min(walls[True]) / min(walls[False]),
        "unit": units["trace.overhead_ratio"], "n": len(walls[True])}
    return metrics, spans


def report_lines(runner, metrics, phases, env) -> list[str]:
    lines = [" ".join(f"{k}={v}" for k, v in env.items())]
    for name, m in {**metrics, **phases}.items():
        extra = ""
        if "unscaled_fastest" in m:
            extra = (f" (sum of each operation's median of {m['n']} passes, scaled; "
                     f"passes: q1 {m['q1']:.6g}, q3 {m['q3']:.6g}; unscaled, sum of "
                     f"each operation's fastest pass: {m['unscaled_fastest']:.6g} s)")
        elif "unscaled_median" in m:
            extra = (f" (median of {m['n']}, scaled, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}; "
                     f"unscaled median {m['unscaled_median']:.6g} s)")
        elif m.get("n", 1) > 1 and "q1" in m:
            extra = f" (median of {m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    lines.append(f"failed_ratio = {runner.failed / runner.attempted:.6g} ratio "
                 f"({runner.failed} of {runner.attempted} operations)")
    for label, (kind, reason) in runner.failures.items():
        lines.append(f"failed [{kind}] {label}: {reason}")
    return lines


def layer_shares(metrics) -> str:
    """Each layer's share of the self time recorded in ncrewrite."""
    selfs = {k[:-len(".self_s")]: m["value"] for k, m in metrics.items()
             if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:6]
    return "self-time shares: " + ", ".join(f"{k} {v / total:.3f}" for k, v in top)


def run(args) -> int:
    if not (ROOT / "src" / "ncrewrite" / "__init__.py").is_file() \
            or not (ROOT / "presentations").is_dir():
        print(f"error: {ROOT} is not an ncrewrite checkout (no src/ncrewrite "
              "or presentations)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench_spec = spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench_spec[kind]}
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, spans = measure_traced(runner, args.seconds, units)
            phases = {}
        else:
            metrics, phases = measure(runner, args.seconds, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    env = environment()
    for line in report_lines(runner, metrics, phases, env):
        print(line)
    if args.trace:
        print(layer_shares(metrics))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "phases": phases, "attempted": runner.attempted, "failed": runner.failed,
              "correct": runner.incorrect == 0,
              "failures": {k: list(v) for k, v in runner.failures.items()}}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["id", "parent", "layer", "start_ns", "end_ns",
                                  "request", "tag"], "iterations": spans}, fh)
    print(json.dumps({
        "correct": runner.incorrect == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in units}}))
    return 0


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(base_path: Path, new_path: Path) -> int:
    """One row per workload and end-to-end metric: NEW/BASE of the medians."""
    bench_spec = spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench_spec["end_to_end"]}
    base, new = load_results(base_path), load_results(new_path)
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        sides = [[r for r in rs if r["workload"] == workload] for rs in (base, new)]
        names = list(bounds) + list(PHASES[workload])
        for name in names:
            bound, better = bounds.get(name, bounds["batch_s"])
            vals, spreads = [], []
            for records in sides:
                values = [(r["metrics"] | r["phases"])[name]["value"] for r in records]
                q1, med, q3 = quartiles(values)
                if len(values) == 1:  # one run: the spread between its passes
                    m = (records[0]["metrics"] | records[0]["phases"])[name]
                    q1, q3 = m.get("q1", med), m.get("q3", med)
                vals.append(values)
                spreads.append((q3 - q1) / med if med else 0.0)
            b, n = statistics.median(vals[0]), statistics.median(vals[1])
            ratio = n / b if b else float("inf")
            worse = ratio - 1 if better == "lower" else 1 - ratio
            if better == "lower":
                every_run_better = max(vals[1]) < min(vals[0])
            else:
                every_run_better = min(vals[1]) > max(vals[0])
            if max(spreads) > bound:
                several = len(vals[0]) > 1 and len(vals[1]) > 1
                verdict = "better in every run" if several and every_run_better \
                    else "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<11} {name:<13} base {b:<11.6g} new {n:<11.6g} "
                  f"ratio {ratio:.4f} (bound {bound}, spread {max(spreads):.3f}) {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return run(args)
    except (BenchError, RunTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or BUDGET_ENV_VAR in os.environ:
        # pin string hashing (set iteration order) and the oracle budget for
        # the whole run by restarting this same process with them fixed
        env = {k: v for k, v in os.environ.items() if k != BUDGET_ENV_VAR}
        env["PYTHONHASHSEED"] = HASH_SEED
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)
    sys.exit(main())
