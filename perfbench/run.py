"""The arcmellin benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Every sample is a fresh child process (``perfbench/child.py`` with
``PYTHONPATH=src``), started by this single parent one after another: a
closed loop with one client and no threads.  A command-line user pays cold
caches on every call, so every sample does too.  The inputs are made from
the seed in this process; the child sees only them.

With ``--trace 0`` a run reports the end-to-end metrics of ``BENCHMARK.json``.
``wall_ref`` and ``cpu_ref`` are the median wall and CPU (user + sys) time
of a sample divided by the median time of ``reference_work``, a fixed piece
of arithmetic outside the package run before each sample.  On a shared machine the speed
a process gets drifts by tens of percent within a minute; the ratio removes
that drift, and the raw medians in seconds are printed beside it.
``peak_rss_mb`` is the median peak RSS of a sample, ``min_agreement_digits``
the lowest agreement in digits between independent routes, and ``setup_s``
the median wall time of a fresh interpreter that only imports ``arcmellin``,
sampled between the workload samples.  With ``--trace 1`` a run alternates
untraced and traced samples and reports the per-layer metrics of the traced
ones (see ``layertrace.py``), the tracing overhead, and checks that each
workload measures the layer it was built for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--all`` runs
every workload both ways, prints each metric with its unit and writes
``.perfbench_out/results.json`` with a machine fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"

# Set-up samples are spread over the run, so that they and the workload
# samples see the same load from the rest of the machine.
SETUP_MIN = 10
MIN_SAMPLES = 3
RUN_DEADLINE_S = 170.0

# Beyond the defaults of verify.DEFAULT_RANGES; euler-bernoulli grows fastest,
# so it stays small enough that no single suite takes most of the time.
IDENTITY_SUITES = (
    ("alt-binom-odd", (1, 40)),
    ("alt-binom-even", (1, 40)),
    ("c-odd-power", (1, 30)),
    ("eulerian-a", (1, 30)),
    ("eulerian-b", (1, 30)),
    ("binom-cosh", (1, 30)),
    ("vanishing", (1, 30)),
    ("eta-coeff", (1, 60)),
    ("zeta2-coeff", (2, 30)),
    ("d-identity", (0, 25)),
    ("euler-bernoulli", (1, 20)),
)


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "verify-all":
        return {"argv": ["verify", "all", "--prec", "30"], "prec": 30, "cross_rep_n_max": 6}
    if workload == "identity-grid":
        # One point per family and band of n, so every seed builds forms of
        # the same sizes; the seed picks n inside the band and q.
        points = []
        for lo in (12, 18, 24):
            n = rng.randint(lo, lo + 2)
            points.append({"family": "log-odd", "q": rng.randrange(n), "n": n})
            points.append({"family": "log-even", "q": rng.randrange(n), "n": n})
            points.append({"family": "sinh-over-z", "q": rng.randint(1, n), "n": 2 * n + 1})
            points.append({"family": "phi-odd", "which": rng.choice((1, 2)), "n": n})
        return {"suites": IDENTITY_SUITES, "points": points}
    if workload == "crosscheck-100":
        # One integral of each family per band of n, so every seed does about
        # the same work; all integrands differ, so the quadrature cache never hits.
        integrals = []
        for lo, hi in ((2, 4), (5, 7), (8, 10), (11, 12)):
            for family in ("log-odd", "log-even"):
                n = rng.randint(lo, hi)
                integrals.append({"family": family, "q": rng.randrange(n), "n": n})
            big = rng.randint(2 * lo, 2 * hi + 1)
            integrals.append({"family": "sinh-over-z", "q": rng.randint(1, (big - 1) // 2), "n": big})
            integrals.append({"family": "phi-odd", "which": rng.choice((1, 2)), "n": rng.randint(lo, hi)})
        return {"prec": 100, "integrals": integrals}
    if workload == "basis-500":
        # n = 12 always, so every seed needs the same basis symbols.
        ns = sorted(rng.sample(range(1, 12), 3)) + [12]
        return {"prec": 500, "values": [{"which": w, "n": n} for n in ns for w in (1, 2)]}
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Byte code is cached as for an installed package, but inside this checkout.
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], stdin: str, deadline: float) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one child to completion; returns its wall and CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    proc = subprocess.run(
        argv, input=stdin, capture_output=True, text=True, cwd=ROOT, env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc


def reference_work() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of arithmetic outside the package.

    Exact rationals (Bernoulli numbers by the Akiyama-Tanigawa recurrence)
    and mpmath elementary functions at 115 digits: the kinds of work the
    package spends its time in.  It uses no code of the repository, so its
    time changes only with the speed the machine gives this process, and
    with the mpmath version and backend, which the fingerprint records.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    a = [Fraction(0)] * 201
    for m in range(201):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    with mp.workdps(115):
        total = mpf(0)
        for k in range(1, 501):
            z = mpf(k) / 37
            total += mp.tanh(z) ** (mpf(k) / 3) * mp.sech(z) * mp.log(z)
    return time.perf_counter() - wall, time.process_time() - cpu


def import_once(deadline: float) -> float:
    """Wall time of a fresh interpreter that only imports arcmellin."""
    wall, _, proc = spawn([sys.executable, "-c", "import arcmellin"], "", deadline)
    if proc.returncode != 0:
        raise SystemExit(f"importing arcmellin failed:\n{proc.stderr}")
    return wall


def sample(workload: str, inputs: dict, trace: bool, spans_path: Path, deadline: float) -> dict:
    request = {"workload": workload, "inputs": inputs, "trace": trace, "spans_path": str(spans_path)}
    try:
        wall, cpu, proc = spawn([sys.executable, str(CHILD)], json.dumps(request), deadline)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "sample timed out"}
    if proc.returncode != 0:
        return {"ok": False, "error": proc.stderr.strip().splitlines()[-1:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(ok=True, wall_s=wall, cpu_s=cpu)
    return result


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def isolation_failures(workload: str, layers: dict) -> list[str]:
    """Checks that the workload still measures the layer it was built for."""
    expect = {
        "identity-grid": [
            ("quadrature.calls", layers["quadrature.calls"] == 0),
            ("lfuncs.self_s", layers["lfuncs.self_s"] == 0),
        ],
        "basis-500": [
            ("quadrature.calls", layers["quadrature.calls"] == 0),
            ("lfuncs.share > 0.9", layers["lfuncs.share"] > 0.9),
        ],
        "crosscheck-100": [("quadrature.share > 0.5", layers["quadrature.share"] > 0.5)],
        "verify-all": [("quadrature.calls", layers["quadrature.calls"] > 0)],
    }[workload]
    return [name for name, ok in expect if not ok]


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = make_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"

    import_once(deadline)  # compiles byte code, so set-up times imports only
    refs, setups, plain, traced, errors = [], [], [], [], []
    started = time.monotonic()
    rounds = 0
    while True:
        if not trace:
            refs.append(reference_work())
        for is_traced in ((False, True) if trace else (False,)):
            result = sample(workload, inputs, is_traced, spans_path, deadline)
            if not result["ok"]:
                errors.append(result["error"])
            else:
                (traced if is_traced else plain).append(result)
        if not trace:
            setups.append(import_once(deadline))
        rounds += 1
        elapsed = time.monotonic() - started
        if errors or ((trace or rounds >= MIN_SAMPLES) and elapsed * (rounds + 1) / rounds > seconds):
            break
    while not trace and len(setups) < SETUP_MIN:
        setups.append(import_once(deadline))

    samples = plain + traced
    attempted = sum(r["attempted"] for r in samples) + len(errors)
    failed = sum(r["failed"] for r in samples) + len(errors)
    for error in errors:
        print(f"sample failed: {error}", file=sys.stderr)

    metrics, raw = {}, {}
    if trace and traced and plain:
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "traced_wall_s": statistics.median(r["wall_s"] for r in traced),
        }
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = raw["traced_wall_s"] - raw["wall_s"]
        for name in isolation_failures(workload, metrics):
            print(f"layer-isolation check failed on {workload}: {name}", file=sys.stderr)
            failed += 1
            attempted += 1
    elif plain:
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "ref_wall_s": statistics.median(w for w, _ in refs),
            "ref_cpu_s": statistics.median(c for _, c in refs),
        }
        metrics = {
            "wall_ref": raw["wall_s"] / raw["ref_wall_s"],
            "cpu_ref": raw["cpu_s"] / raw["ref_cpu_s"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "min_agreement_digits": statistics.median(r["min_agreement_digits"] for r in plain),
            "setup_s": statistics.median(setups),
        }
    declared = spec["per_layer" if trace else "end_to_end"]
    if metrics and set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed,
        "samples": {"untraced": len(plain), "traced": len(traced), "failed": len(errors)},
        "raw": raw,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in metrics},
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def fingerprint(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        ).stdout.strip() or None
    if commit is None:  # a plain checkout: name the sources by their content
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "loadavg": os.getloadavg(),
        "seed": seed,
        "commit": commit,
    }


def print_metrics(workload: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: samples {result['samples']} checks {result['attempted']} failed_ratio {ratio}")
    for name, value in result["raw"].items():
        print(f"  {name} = {value} s (median, not normalized)")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if not (SRC / "arcmellin" / "__init__.py").is_file():
        raise SystemExit(f"no arcmellin sources under {SRC}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print(json.dumps({"fingerprint": fingerprint(args.seed)}))

    if args.all:
        results = {}
        for item in spec["workloads"]:
            for trace in (False, True):
                result = run(item["name"], args.seed, seconds, trace, spec)
                print_metrics(item["name"] + (" (traced)" if trace else ""), result)
                results[f"{item['name']}{'/traced' if trace else ''}"] = result
        OUT.mkdir(exist_ok=True)
        (OUT / "results.json").write_text(
            json.dumps({"fingerprint": fingerprint(args.seed), "results": results}, indent=2)
        )
        correct = all(r["correct"] for r in results.values())
        print(json.dumps({"correct": correct, "results": str(OUT / "results.json")}))
        return 0 if correct else 1

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    result = run(args.workload, args.seed, seconds, bool(args.trace), spec)
    print_metrics(args.workload, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
