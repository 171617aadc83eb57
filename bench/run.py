"""Benchmark for bridgelen: seeded corpora in, checked bridge lengths out.

Usage, from the root of a checkout::

    python3 bench/run.py --workload dense-motif --seed 1 --seconds 30 --trace 0

One operation is "coordinates or file in, beta out", timed from outside the
program.  The run computes whole rounds of its corpus (every structure once
per round) until ``--seconds`` have passed, then checks every beta against
the independent computation in ``check.py``.  Times are reported at the
reference host speed of ``speed.py``, sampled between the operations.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Progress goes
to standard error.

The program is imported from ``src/`` beside this directory; without it the
run stops with a non-zero exit code and prints no result.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Set-up time starts here.  Importing the standard library and NumPy comes
# before it: no change to the program can move that cost, and it is disk-
# and loader-bound, so it varied 0.08-0.25 s from one process to the next.
_START = time.perf_counter()

import corpus  # noqa: E402
import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / "_work"

#: Set-ups per run; ``setup_s`` is their median.  The run's own set-up is
#: one, the others are made in child processes.
SETUP_REPEATS = 5

#: Files in the directory that the traced run hands to ``batch``.
CLI_FILES = 8


def log(*parts) -> None:
    print("bench:", *parts, file=sys.stderr, flush=True)


def load_program():
    """Import bridgelen from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "bridgelen"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import bridgelen

    if Path(bridgelen.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported bridgelen from {bridgelen.__file__}")
    return bridgelen


class Workload:
    """A corpus and the operation the program performs on each member."""

    def __init__(self, bl, name: str, seed: int, work: Path):
        self.bl = bl
        self.name = name
        self.cases = corpus.make(name, seed)
        self.items = self.cases
        if name == "cif-batch":
            self.items = write_cifs(self.cases, work / "corpus")
        self.order = np.random.default_rng([seed, 0]).permutation(len(self.cases))

    def op(self, index: int):
        """One operation; returns (beta, atoms)."""
        bl = self.bl
        item = self.items[index]
        if self.name == "cif-batch":
            pset, _ = bl.read_set_file(item)
        else:
            pset = bl.PeriodicSet(bl.LatticeBasis(item.basis), bl.Motif(item.frac))
        return bl.bridge_length(pset).beta, pset.motif_size

    def warm_up(self, work: Path) -> None:
        """First calls and lazy imports happen here, on two fixed tiny
        inputs, so that set-up time does not depend on the seed."""
        bl = self.bl
        if self.name == "cif-batch":
            for path in write_cifs(corpus.cif_batch(0, count=2), work / "warm-up"):
                bl.bridge_length(bl.read_set_file(path)[0])
        else:
            for basis, motif in corpus.WARM_UP:
                bl.bridge_length(bl.PeriodicSet(bl.LatticeBasis(basis), bl.Motif(motif)))


def write_cifs(cases, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.name}.cif"
        path.write_text(case.text, encoding="utf-8")
        paths.append(path)
    return paths


def timed_rounds(workload: Workload, seconds: float):
    """Whole rounds until about ``seconds`` have passed.

    Returns (per-operation seconds, the case of each, the reference samples
    taken between them, results by case, failures, wall time).
    """
    times, cases, results, failures = [], [], {}, []
    sampler = speed.Sampler()
    clock = time.perf_counter
    start = clock()
    while True:
        round_start = clock()
        for index in workload.order:
            index = int(index)
            sampler.before_op()
            t0 = clock()
            try:
                out = workload.op(index)
            except Exception as exc:  # a failing operation is counted, not fatal
                failures.append(f"{workload.cases[index].name}: {exc!r}")
                continue
            times.append(clock() - t0)
            cases.append(index)
            sampler.after_op(times[-1])
            results.setdefault(index, []).append(out)
        now = clock()
        if now - start + (now - round_start) / 2 >= seconds:
            return times, cases, sampler, results, failures, now - start


def check_results(workload: Workload, results: dict) -> list:
    """Problems found by the independent check; empty when all is right."""
    problems = []
    for index, outs in sorted(results.items()):
        case = workload.cases[index]
        if any(out != outs[0] for out in outs):
            problems.append(f"{case.name}: results differ between runs: {outs}")
            continue
        problem = check_case(case, *outs[0])
        if problem:
            problems.append(f"{case.name}: beta {outs[0][0]!r}: {problem}")
    return problems


def check_case(case, beta: float, atoms: int):
    """What is wrong with one result, or None.  sympy is imported here, so
    that its import time stays out of ``setup_s``."""
    import check

    try:
        if isinstance(case, corpus.CifCase):
            points = check.expand_orbits(case.sites, case.ops)
            if len(points) != atoms:
                raise check.CheckError(f"{atoms} atoms, expected {len(points)}")
            check.check_beta(case.ref_basis, points, beta)
            return None
        if case.analytic is not None and not check.close(beta, case.analytic):
            raise check.CheckError(f"analytic value is {case.analytic!r}")
        if check.box_size(case.ref_basis, case.ref_frac, beta) <= check.MAX_TRANSLATIONS:
            check.check_beta(case.ref_basis, case.ref_frac, beta)
        elif case.analytic is None:
            raise check.CheckError("too large to check and no analytic value")
    except check.CheckError as exc:
        return str(exc)
    return None


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by a Beta density that peaks at rank q.  Where the
    costs of neighbouring structures jump, the plain sample quantile jumps
    with the noise in their order; this one moves smoothly."""
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def per_case_medians(times, cases) -> list:
    """Each structure's median time over the rounds of a run."""
    by_case = {}
    for seconds, index in zip(times, cases):
        by_case.setdefault(index, []).append(seconds)
    return [statistics.median(v) for v in by_case.values()]


def setup_probes(args) -> list:
    """Set-up seconds, at reference speed, of fresh processes doing this
    run's set-up."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-probe",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(workload: Workload, args, setup_s: float) -> dict:
    times, cases, sampler, results, failures, wall = timed_rounds(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = sampler.scaled(times)
    latencies = per_case_medians(scaled, cases)
    log(f"{len(times)} operations in {wall:.2f} s, {len(failures)} failed; "
        f"operation time {sum(times):.2f} s, {sum(scaled):.2f} s at reference speed; "
        f"reference median {statistics.median(sampler.samples) * 1e3:.3f} ms "
        f"over {len(sampler.samples)} samples")
    setups = [setup_s] + setup_probes(args)
    log("set-up seconds at reference speed:", ", ".join(f"{s:.3f}" for s in setups))
    t0 = time.perf_counter()
    problems = check_results(workload, results)
    log(f"checked in {time.perf_counter() - t0:.2f} s")
    metrics = {
        "structures_per_s": (len(scaled) / sum(scaled), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return report(problems, failures, len(times) + len(failures), metrics)


def traced(workload: Workload, args, work: Path) -> dict:
    """One round run twice, interleaved per operation, untraced and traced;
    then ``batch --jobs 1`` and ``--jobs 2`` over a CIF directory, traced."""
    import bridgelen.cli
    import tracing

    tracer = tracing.Tracer()
    clock = time.perf_counter
    plain_s = traced_s = 0.0
    results, failures = {}, []
    for k, index in enumerate(workload.order):
        index = int(index)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                t0 = clock()
                out = workload.op(index)
                dt = clock() - t0
            except Exception as exc:
                failures.append(f"{workload.cases[index].name}: {exc!r}")
                continue
            finally:
                tracer.uninstall()
            tracer.collect()
            if with_trace:
                traced_s += dt
            else:
                plain_s += dt
            results.setdefault(index, []).append(out)
    problems = check_results(workload, results)

    cli_cases = corpus.cif_batch(args.seed, count=CLI_FILES)
    cli_dir = work / "cli"
    write_cifs(cli_cases, cli_dir)
    cli_times = {}
    tracer.install()
    try:
        for jobs in (1, 2):
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                bridgelen.cli.main.main(
                    ["batch", str(cli_dir), "--jobs", str(jobs), "--precision", "15"],
                    standalone_mode=False,
                )
            cli_times[jobs] = clock() - t0
            tracer.collect()
            problems += check_batch_output(cli_cases, out.getvalue(), jobs)
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    metrics["cli.batch_jobs1_s"] = (cli_times[1], "s")
    metrics["cli.batch_jobs2_s"] = (cli_times[2], "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    attempted = 2 * len(workload.order) + 2 * len(cli_cases)
    return report(problems, failures, attempted, metrics)


def check_batch_output(cases, text: str, jobs: int) -> list:
    rows = {row["id"]: row for row in csv.DictReader(io.StringIO(text))}
    problems = []
    for case in cases:
        row = rows.get(case.name)
        if row is None or row["error"]:
            problem = f"no result: {row}"
        else:
            problem = check_case(case, float(row["beta"]), int(row["atoms"]))
        if problem:
            problems.append(f"batch --jobs {jobs}: {case.name}: {problem}")
    return problems


def report(problems, failures, attempted: int, metrics: dict) -> dict:
    """The result line; ``correct`` speaks of the operations that did not fail."""
    for problem in (problems + failures)[:20]:
        log("problem:", problem)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bl = load_program()
    work = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workload = Workload(bl, args.workload, args.seed, work)
        workload.warm_up(work)
        setup_s = time.perf_counter() - _START
        ref_s = speed.speed_now()
        log(f"set-up {setup_s:.3f} s, reference {ref_s * 1e3:.3f} ms")
        setup_s *= speed.REF_S / ref_s
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        log(f"{args.workload} seed {args.seed}: {len(workload.cases)} structures, "
            f"set-up {setup_s:.3f} s at reference speed")
        if args.trace:
            result = traced(workload, args, work)
        else:
            result = end_to_end(workload, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
