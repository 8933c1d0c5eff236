"""jetlag benchmark: `check`, `curve` and `chart` workloads.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Run from the root of a jetlag checkout; the package is imported from its
``src/``.  One process, one thread (BLAS is pinned to one thread before
numpy loads).  The run repeats rounds, each one cold invocation per builtin
(see workloads.py), for about ``--seconds``, and times each round as a
whole.  The last stdout line is one JSON object: with ``--trace 0`` the
end-to-end metrics, timed with no tracer installed and the work paced
against a reference computation (see pace.py); with ``--trace 1`` the
per-layer metrics of traced rounds (see spans.py), alternated with as many
untraced rounds, which give the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# every workload runs at the default derivative-order cap
os.environ.pop("JETLAG_MAX_DERIV_ORDER", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import pace  # noqa: E402  (loads numpy, after the pins above)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# untraced rounds at least, so the median is not a single sample
MIN_ROUNDS = 3
# traced rounds at least, so the repeat check on the counts can fail
MIN_TRACED = 2
# round totals a tail needs: ten beyond it and the tail itself
TAIL_SAMPLES = 11

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"))


def _import_package():
    """Import jetlag from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "jetlag" / "__init__.py").is_file():
        sys.exit(f"benchmark: no jetlag package under {src}")
    sys.path.insert(0, str(src))
    import jetlag
    if Path(jetlag.__file__).resolve().parent != (src / "jetlag").resolve():
        sys.exit(f"benchmark: imported jetlag from {jetlag.__file__}, "
                 f"not from {src}")


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def tail(values):
    """(value, percentile): the highest percentile of the samples with at
    least ten samples above it, or None when there are too few."""
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        return None
    return xs[k - 1], 100.0 * k / len(xs)


def repeat(seconds: float, minimum: int, step) -> int:
    """Call ``step`` at least ``minimum`` times, then until one more call
    would, at the mean pace so far, end past ``seconds``."""
    start = perf_counter()
    done = 0
    while True:
        step()
        done += 1
        spent = perf_counter() - start
        if done >= minimum and spent * (done + 1) / done > seconds:
            return done


class Run:
    """Rounds, samples and failures of one benchmark process."""

    def __init__(self, workload: str, seed: int, paced: bool = False):
        import workloads    # imports jetlag, so only once src/ is on the path
        self.w = workloads
        self.workload = workload
        self.paced = paced
        self.inputs = workloads.make_inputs(workload, seed)
        self.first: dict = {}
        self.samples: list = []     # (builtin, setup_s, wall_s, wall_ref)
        self.totals: list = []      # the same, summed, per complete round
        self.attempted = 0
        self.failed = 0

    def invoke(self, name: str, tracer=None):
        """One cold invocation on one builtin, then its output check.
        Returns (setup_s, wall_s, wall_ref), or None if the invocation
        raised; wall_ref is NaN unless the run is paced."""
        self.attempted += 1
        inputs = self.inputs[name]
        gc.collect()
        if tracer is not None:
            tracer.on = True
        try:
            t0 = perf_counter()
            state = self.w.setup(self.workload, name, inputs)
            t1 = perf_counter()
            if self.paced:
                with pace.Pacer() as pacer:
                    output = self.w.WORK[self.workload](state, inputs)
                wall, ref = pacer.work_s, pacer.ratio
            else:
                output = self.w.WORK[self.workload](state, inputs)
                wall, ref = perf_counter() - t1, math.nan
        except Exception:
            self.failed += 1
            print(f"{name}: invocation raised", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            if tracer is not None:
                tracer.on = False
        times = (t1 - t0, wall, ref)
        self.samples.append((name, *times))
        problems = self.w.check_output(self.workload, name, state, output,
                                       self.first)
        if problems:
            self.failed += 1
            print(f"{name}: wrong output: {'; '.join(problems)}",
                  file=sys.stderr)
        return times

    def round(self, tracer=None):
        """One invocation per builtin.  Returns the round's (setup_s,
        wall_s, wall_ref) totals, or None if an invocation raised."""
        times = [self.invoke(name, tracer) for name in self.w.BUILTINS]
        if None in times:
            return None
        total = tuple(sum(column) for column in zip(*times))
        self.totals.append(total)
        return total


def summary(run: Run) -> None:
    """Ungated numbers, each with its unit, on lines before the result."""
    walls = [w for _, w, _ in run.totals]
    got = tail(walls)
    where = (f"{got[0]:.6f} s (p{got[1]:.1f} of {len(walls)} rounds)"
             if got else f"not taken ({len(walls)} rounds, "
             f"needs {TAIL_SAMPLES})")
    print(f"{run.workload}: wall_s_tail {where}; fail_share "
          f"{run.failed / run.attempted:.4f} share "
          f"({run.failed}/{run.attempted})")
    if walls:
        print(f"  wall_s {median(walls):.6f} s, the median round work time "
              f"in seconds")
    print(f"  rounds: setup_s {[round(s, 4) for s, _, _ in run.totals]} s, "
          f"wall_s {[round(w, 4) for w in walls]} s, "
          f"wall_ref {[round(r, 1) for _, _, r in run.totals]} ref")
    for name in run.w.BUILTINS:
        mine = [(s, w, r) for b, s, w, r in run.samples if b == name]
        if mine:
            print(f"  {name}: median setup_s "
                  f"{median(s for s, _, _ in mine):.6f} s, median wall_s "
                  f"{median(w for _, w, _ in mine):.6f} s, median wall_ref "
                  f"{median(r for _, _, r in mine):.1f} ref "
                  f"over {len(mine)}")


def end_to_end(run: Run) -> dict:
    """Medians of the round totals (set-up in seconds, work in reference
    bursts), and the peak RSS; empty if no round completed."""
    summary(run)
    if not run.totals:
        return {}
    values = {"setup_s": median(s for s, _, _ in run.totals),
              "wall_ref": median(r for _, _, r in run.totals),
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}


def per_layer(run: Run, seconds: float, env: dict) -> tuple:
    """Pairs of an untraced and a traced round, alternated so that a busy
    spell on the machine hits both sides of the tracing overhead.  Counts
    come from the first traced round and must repeat in the later ones;
    times are medians over traced rounds.  Returns (metrics, consistent);
    the metrics are empty if no traced round completed."""
    import spans

    tracer = spans.Tracer()
    reports, untraced, traced = [], [], []

    def pair():
        total = run.round()
        if total is not None:
            untraced.append(total)
        tracer.reset()
        tracer.install()
        try:
            total = run.round(tracer)
        finally:
            tracer.uninstall()
        if total is None:
            return
        traced.append(total)
        reports.append(tracer.analyse())
        if len(reports) == 1:
            tracer.write(OUT_DIR, f"trace-{run.workload}",
                         {"workload": run.workload, "env": env,
                          "per_layer": reports[0]})

    repeat(seconds, MIN_TRACED, pair)
    if not (reports and untraced):
        return {}, False
    consistent = all(r[m] == reports[0][m] for r in reports
                     for m in spans.COUNT_METRICS)
    if not consistent:
        print("work counts differ between traced rounds", file=sys.stderr)
    values = {m: (reports[0][m] if m in spans.COUNT_METRICS
                  else median(r[m] for r in reports))
              for m in reports[0]}
    values["trace.round_s"] = median(s + w for s, w, _ in traced)
    values["trace.wall_s"] = median(w for _, w, _ in traced)
    values["trace.untraced_wall_s"] = median(w for _, w, _ in untraced)
    values["trace.overhead_s"] = \
        values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return ({m: {"value": values[m], "unit": u} for m, u in spans.PER_LAYER},
            consistent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("check", "curve", "chart"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _import_package()
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    run = Run(args.workload, args.seed, paced=not args.trace)
    if args.trace:
        metrics, consistent = per_layer(run, args.seconds, env)
    else:
        repeat(args.seconds, MIN_ROUNDS, run.round)
        metrics = end_to_end(run)
        consistent = bool(metrics)
    print(json.dumps({"correct": run.failed == 0 and consistent,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
