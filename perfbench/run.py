"""The symrank benchmark: one workload per process, metrics as JSON.

Run from the repository root::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

Workloads (the reason for each is recorded in BENCHMARK.json):

- ``oracle``: ``ffield.enumerate_rank_counts`` at (n, p) = (2, 97),
  (3, 13) and (4, 5), 15,505,107 matrices in all;
- ``verify-suite``: ``symrank verify --primes 7 11 13 --format json``
  through ``cli.main``;
- ``symbolic``: two ``table`` and four ``class`` invocations at n = 40
  and 60 through ``cli.main``, each iteration from a cold memo.

An iteration runs the workload's calls once; iterations repeat while the
next one fits in ``--seconds`` (there is always at least one), and times
are medians over iterations. Every output is checked outside the timed
region: histograms against ``motivic.point_count``, the verify report
against the checks that passed when the benchmark was defined, and the
CLI outputs against recorded SHA-256 digests (``reference.json``).

``--seed`` shuffles the order of the calls of ``oracle`` and ``symbolic``;
the set of calls is fixed. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs the workload untraced and then traced, reports the
per-layer metrics and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up processes.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
# The verify workload runs at the library's default budget.
os.environ.pop("SYMRANK_BUDGET", None)

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11

from spans import Tracer, matrices, span_metrics  # noqa: E402  (perfbench/ is sys.path[0])


def load_program():
    """Import symrank from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "symrank" / "__init__.py").is_file():
        sys.exit(f"error: no symrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import symrank
    from symrank import cli, ffield, motivic, verify

    if Path(symrank.__file__).resolve().parent != SRC / "symrank":
        sys.exit(f"error: imported symrank from {symrank.__file__}, not {SRC}")
    return numpy, {"cli": cli, "ffield": ffield, "motivic": motivic, "verify": verify}


class Workload:
    """A fixed set of calls, their correctness gate and their set-up."""

    primes: tuple[int, ...] = ()

    def __init__(self, mods: dict, reference: dict):
        self.mods = mods
        self.reference = reference
        self.fields = {p: mods["ffield"].PrimeField(p) for p in self.primes}

    def calls(self, rng: random.Random) -> list[tuple[str, object]]:
        """(name, zero-argument callable) in the order to run them."""
        raise NotImplementedError

    def digest(self, name: str, raw):
        """A compact value standing for the call's output."""
        raise NotImplementedError

    def check(self, name: str, digest) -> bool:
        raise NotImplementedError

    def distinct_matrices(self, digests: dict) -> int:
        return 0

    def exact_counts(self, digests: dict) -> dict:
        return {}

    def cli(self, argv: list[str]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.mods["cli"].main(argv)
        return code, buf.getvalue()


class Oracle(Workload):
    shapes = ((2, 97), (3, 13), (4, 5))
    primes = tuple(p for _, p in shapes)

    def calls(self, rng):
        ffield = self.mods["ffield"]
        out = [
            (f"n{n}_p{p}", lambda n=n, p=p: ffield.enumerate_rank_counts(n, self.fields[p]))
            for n, p in self.shapes
        ]
        rng.shuffle(out)
        return out

    def digest(self, name, raw):
        return (raw.n, raw.p, tuple(raw.counts))

    def check(self, name, digest):
        n, p, counts = digest
        motivic = self.mods["motivic"]
        predicted = tuple(motivic.point_count(motivic.class_exact(n, k), p) for k in range(n + 1))
        return f"n{n}_p{p}" == name and counts == predicted and sum(counts) == matrices(n, p)

    def distinct_matrices(self, digests):
        return sum(matrices(n, p) for n, p, _ in digests.values())


class VerifySuite(Workload):
    argv = ["verify", "--primes", "7", "11", "13", "--format", "json"]
    primes = (7, 11, 13)

    def calls(self, rng):
        # One call: the seed has nothing to reorder.
        return [("verify", lambda: self.cli(self.argv))]

    def digest(self, name, raw):
        code, text = raw
        report = json.loads(text)
        passing = sorted(
            json.dumps([r["check_id"], r["params"]], sort_keys=True)
            for r in report["results"]
            if r["status"] == "pass"
        )
        spaces = sorted({
            (r["params"]["n"], r["params"]["p"])
            for r in report["results"]
            if r["status"] != "skipped" and {"n", "p"} <= r["params"].keys()
        })
        return {
            "exit_code": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "summary": report["summary"],
            "passing": passing,
            "spaces": spaces,
        }

    def check(self, name, digest):
        return (
            digest["exit_code"] == 0
            and digest["summary"]["fail"] == 0
            and set(self.reference["verify-suite"]["passing"]) <= set(digest["passing"])
        )

    def distinct_matrices(self, digests):
        return sum(matrices(n, p) for n, p in digests.get("verify", {}).get("spaces", ()))

    def exact_counts(self, digests):
        if "verify" not in digests:
            return {}
        s = digests["verify"]["summary"]
        return {"verify.checks_pass": s["pass"], "verify.checks_skipped": s["skipped"],
                "verify.checks_fail": s["fail"]}


class Symbolic(Workload):
    invocations = (
        "table --max-n 60 --format json",
        "table --max-n 40 --route closed-form --format json",
        "class --n 60 --at-most 30",
        "class --n 60 --at-most 59",
        "class --n 60 --range 20 40 --route closed-form",
        "class --n 60 --projective-full --format latex",
    )

    def calls(self, rng):
        out = [(line, lambda argv=line.split(): self.cli(argv)) for line in self.invocations]
        rng.shuffle(out)
        return out

    def digest(self, name, raw):
        code, text = raw
        return code, hashlib.sha256(text.encode()).hexdigest()

    def check(self, name, digest):
        return digest == (0, self.reference["symbolic"][name])


WORKLOADS = {"oracle": Oracle, "verify-suite": VerifySuite, "symbolic": Symbolic}


def setup_seconds(workload_cls) -> list[float]:
    """Wall time of fresh processes that import numpy and symrank and
    build the workload's fields, from spawn to exit."""
    code = (
        "import numpy, symrank.cli\n"
        "from symrank import ffield\n"
        f"[ffield.PrimeField(p) for p in {workload_cls.primes!r}]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        samples.append(perf_counter() - start)
    return samples


class Iteration:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.run_s = 0.0
        self.digests: dict = {}
        self.attempted = 0
        self.failed: list[str] = []


def run_iteration(workload: Workload, rng, run_id: int, tracer: Tracer | None) -> Iteration:
    """One pass over the workload's calls from a cold memo; outputs are
    digested and checked after the clock stops and tracing is off."""
    it = Iteration(run_id)
    workload.mods["motivic"].clear_caches()
    raws = {}
    calls = workload.calls(rng)
    it.attempted = len(calls)
    if tracer is not None:
        tracer.run_id = run_id
        tracer.install(workload.mods)
    try:
        for name, call in calls:
            start = perf_counter()
            try:
                raws[name] = call()
            except Exception:
                traceback.print_exc()
                it.failed.append(name)
            it.run_s += perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for name, raw in raws.items():
        try:
            it.digests[name] = workload.digest(name, raw)
            ok = workload.check(name, it.digests[name])
        except (ValueError, KeyError, TypeError):
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"error: wrong output from {name!r}", file=sys.stderr)
            it.failed.append(name)
    return it


def measure(workload, rng, seconds, first_run_id, tracer=None) -> list[Iteration]:
    iterations = []
    start = perf_counter()
    while True:
        iterations.append(run_iteration(workload, rng, first_run_id + len(iterations), tracer))
        elapsed = perf_counter() - start
        if elapsed + statistics.median(i.run_s for i in iterations) > seconds:
            return iterations


def machine_facts(numpy) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    head = read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        head = read(ROOT / ".git" / head[5:])
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": head,
        "src_sha256": src.hexdigest(),
        "thread_env": THREAD_ENV,
    }


def metric_specs(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    numpy, mods = load_program()
    workload_cls = WORKLOADS[args.workload]
    setup = [] if args.trace else setup_seconds(workload_cls)
    reference = json.loads((HERE / "reference.json").read_text())
    workload = workload_cls(mods, reference)
    rng = random.Random(args.seed)

    plain = measure(workload, rng, args.seconds, 0)
    consistent = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    iterations = list(plain)
    run_s = statistics.median(i.run_s for i in plain)
    distinct = workload.distinct_matrices(plain[0].digests)
    values: dict = {
        "setup_s": statistics.median(setup) if setup else None,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "matrices_per_s": distinct / run_s,
    }
    values.update(workload.exact_counts(plain[0].digests))
    if args.trace:
        tracer = Tracer()
        traced = measure(workload, rng, args.seconds, len(plain), tracer)
        iterations += traced
        per_iter = [span_metrics(tracer.spans, t.run_id, tracer.installed, t.run_s) for t in traced]
        for name, first in per_iter[0].items():
            # Counts are exact and checked equal below; times are medians.
            values[name] = first if isinstance(first, int) else statistics.median(
                m[name] for m in per_iter
            )
        values["trace.overhead_s"] = statistics.median(t.run_s for t in traced) - run_s
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_iter]
        if any(c != counts[0] for c in counts):
            print("error: traced iterations disagree on exact counts", file=sys.stderr)
            consistent = False
        OUT.mkdir(exist_ok=True)
        with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz", "wt") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    # Self-test: every iteration, traced or not, gives the same outputs.
    if any(i.digests != iterations[0].digests for i in iterations):
        print("error: iterations disagree on outputs", file=sys.stderr)
        consistent = False
    attempted = sum(i.attempted for i in iterations)
    failed = sum(len(i.failed) for i in iterations)
    values["error_rate"] = failed / attempted

    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    metrics = {}
    for name, unit in specs.items():
        value = values.get(name)
        if value is None and "_rate.n" in name:
            value = 0.0  # this workload enumerates no matrix of that shape
        if value is None and name.startswith("verify.checks_"):
            value = 0  # this workload runs no verify check
        if value is not None:  # otherwise the function is gone from the program
            metrics[name] = {"value": value, "unit": unit}

    facts = machine_facts(numpy)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "iterations": len(iterations), "setup_samples_s": setup,
              "machine": facts, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print("machine: " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
