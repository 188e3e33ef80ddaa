"""fracp benchmark: acceptance battery, CLI pipeline and solver sweep.

    python3 perfbench/run.py --workload battery|pipeline|solve-sweep|all \
        --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the ``src/fracp`` next to its own directory
and writes only under ``.perfbench_work/`` there.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines before
it give every metric with its sample count and quartiles, the error rate
and the numeric environment.  See perfbench/README.md for the workloads
and what each metric should respond to.
"""

from __future__ import annotations

import os

# pinned before anything below can load numpy, here or in a child process
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "FRACP_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = str(HERE / "child.py")
PY = sys.executable

MIN_UNITS = 3          # a median needs three samples, however long they take
RUN_LIMIT_S = 170.0    # no unit starts that could end after this
STARTUP_PROBES = 7     # set-up samples for battery and pipeline, ~0.8 s each
SWEEP_PROCESSES = 4    # set-up samples for solve-sweep, one per process
SWEEP_KAPPAS = 5

# the README quickstart configuration; the sweep runs it at M = 512
README_CONFIG = """\
params.N = 3
params.s = 0.5
params.p = 2.5
params.gamma = 0.5
params.r_exp = 1.2
kappa = 0.5
grid.nodes = {nodes}
output_dir = out
"""
PIPELINE = ("kernel-table", "capacitary", "solve-singular", "solve-full",
            "plotdata")

ENV = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC))


class Run:
    """Samples and failures of one workload run."""

    def __init__(self, seconds: float):
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall: list[float] = []
        self.setup: list[float] = []
        self.rss: list[float] = []
        self.traces: list[dict] = []     # one trace summary per traced unit
        self.traced_wall: list[float] = []
        self.last_unit = 0.0

    def more(self, units_done: int) -> bool:
        """Whether to start another unit, judged by the last one's length."""
        end = time.monotonic() + self.last_unit
        if end > self.start + RUN_LIMIT_S:
            return False
        return units_done < MIN_UNITS or end <= self.deadline

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def spawn(run: Run, argv, log: Path):
    """Run a child to completion.

    Returns (exit code, seconds from spawn to exit, peak RSS in MB, spawn
    time).  ``os.wait4`` reports the resource use of exactly this child.
    A child still running when the run's time limit is reached is killed.
    """
    t0 = time.monotonic()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, env=ENV, cwd=str(ROOT), stdout=fh,
                                stderr=subprocess.STDOUT)
    limit = max(run.start + RUN_LIMIT_S - t0, 1.0)
    killer = threading.Timer(limit, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, t0


def _read(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _digest_dir(path: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())}


def _kappas(workload: str, seed: int, count: int) -> list[float]:
    """The seeded kappa values in [0, 1) a workload passes to fracp."""
    rng = random.Random(f"{workload}-{seed}")
    return [rng.random() for _ in range(count)]


# -- workloads -----------------------------------------------------------


def _startup_probes(run: Run, tmp: Path) -> bool:
    """Time ``python -c "import fracp.cli"``; the set-up of a CLI process."""
    for k in range(STARTUP_PROBES):
        code, wall, _, _ = spawn(run, [PY, "-c", "import fracp.cli"],
                                 tmp / f"startup{k}.log")
        if code != 0:
            run.attempted += 1
            run.fail("python -c 'import fracp.cli' failed")
            return False
        run.setup.append(wall)
    return True


def run_battery(run: Run, seed: int, trace: bool, tmp: Path) -> dict:
    if not _startup_probes(run, tmp):
        return {"seed": seed}
    reference = None
    i = 0
    while run.more(i):
        traced = trace and i % 2 == 0
        out = tmp / f"battery{i}"
        out.mkdir()
        result = tmp / f"battery{i}.json"
        argv = [PY, CHILD, "battery", "--seed", str(seed), "--out", str(out),
                "--result", str(result)] + (["--trace"] if traced else [])
        code, wall, rss, _ = spawn(run, argv, tmp / f"battery{i}.log")
        run.last_unit = wall
        i += 1
        run.attempted += 1
        res = _read(result)
        if code != 0 or res is None:
            run.fail(f"battery unit {i}: exit code {code}")
            continue
        if res["failed_checks"]:
            run.fail(f"battery unit {i}: checks failed {res['failed_checks']}")
            continue
        reference = reference or res["digest"]
        if res["digest"] != reference:
            run.fail(f"battery unit {i}: report.json differs from unit 1")
            continue
        run.rss.append(rss)
        if traced:
            run.traced_wall.append(res["wall_s"])
            run.traces.append(res["layers"])
        else:
            run.wall.append(res["wall_s"])
    return {"seed": seed}


def run_pipeline(run: Run, seed: int, trace: bool, tmp: Path) -> dict:
    cfg = tmp / "run.cfg"
    cfg.write_text(README_CONFIG.format(nodes=256), encoding="ascii")
    kappa, = _kappas("pipeline", seed, 1)
    args = {"kernel-table": [], "capacitary": ["--R", "1"],
            "solve-singular": [], "solve-full": ["--kappa", repr(kappa)],
            "plotdata": []}
    if not _startup_probes(run, tmp):
        return {"seed": seed, "kappa": kappa}
    reference = None
    i = 0
    while run.more(i):
        traced = trace and i % 2 == 0
        out = tmp / f"pass{i}"
        i += 1
        run.attempted += 1
        walls, rss, summaries, bad = {}, [], [], None
        for name in PIPELINE:
            tail = [name, "--config", str(cfg), "--out", str(out)] + args[name]
            result = tmp / f"pass{i}-{name}.json"
            argv = ([PY, CHILD, "cli", "--result", str(result), "--"] + tail
                    if traced else [PY, "-m", "fracp.cli"] + tail)
            code, wall, peak, _ = spawn(run, argv,
                                        tmp / f"pass{i}-{name}.log")
            walls[name] = wall
            rss.append(peak)
            if code != 0:
                bad = f"pipeline pass {i}: {name} exited with {code}"
                break
            if traced:
                res = _read(result)
                if res is None:
                    bad = f"pipeline pass {i}: {name} wrote no trace"
                    break
                summaries.append(res["layers"])
        run.last_unit = sum(walls.values())
        if bad is None:
            files = _digest_dir(out)
            reference = reference or files
            if files != reference:
                bad = f"pipeline pass {i}: output files differ from pass 1"
        if bad:
            run.fail(bad)
            continue
        run.rss.append(max(rss))
        if traced:
            run.traced_wall.append(run.last_unit)
            run.traces.append(_merge(summaries, walls, run.setup))
        else:
            run.wall.append(run.last_unit)
    return {"seed": seed, "kappa": kappa}


def _merge(summaries: list[dict], walls: dict, startup: list) -> dict:
    """One pass's trace: the subprocesses' metrics summed, error maxed."""
    metrics: dict[str, float] = {}
    table: dict[str, dict] = {}
    for s in summaries:
        for key, value in s["metrics"].items():
            if key == "operator.assembly_error":
                metrics[key] = max(metrics.get(key, 0.0), value)
            else:
                metrics[key] = metrics.get(key, 0) + value
        for name, row in s["spans"].items():
            acc = table.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    for name, wall in walls.items():
        metrics[f"cli.{name}.s"] = wall
    metrics["cli.startup.s"] = statistics.median(startup)
    return {"metrics": metrics, "spans": table}


def run_sweep(run: Run, seed: int, trace: bool, tmp: Path) -> dict:
    cfg = tmp / "run.cfg"
    cfg.write_text(README_CONFIG.format(nodes=512), encoding="ascii")
    reference = None
    kappas = _kappas("solve-sweep", seed, SWEEP_KAPPAS)
    slot = (run.deadline - run.start) / SWEEP_PROCESSES
    for k in range(SWEEP_PROCESSES):
        if not run.more(0):
            break
        result = tmp / f"sweep{k}.json"
        # each process ends its units by the end of its share of the run
        until = run.start + slot * (k + 1)
        argv = [PY, CHILD, "sweep", "--kappas", ",".join(map(repr, kappas)),
                "--config", str(cfg), "--until", repr(until),
                "--result", str(result)] + (["--trace"] if trace else [])
        code, wall, rss, t0 = spawn(run, argv, tmp / f"sweep{k}.log")
        run.last_unit = wall
        res = _read(result)
        if code != 0 or res is None:
            run.attempted += 1
            run.fail(f"sweep process {k}: exit code {code}")
            continue
        run.setup.append(res["t_ready"] - t0)
        run.rss.append(rss)
        for j, unit in enumerate(res["units"]):
            run.attempted += 1
            if unit["problems"]:
                run.fail(f"sweep {k}.{j}: {'; '.join(unit['problems'])}")
                continue
            reference = reference or unit["digest"]
            if unit["digest"] != reference:
                run.fail(f"sweep {k}.{j}: solutions differ from the first")
                continue
            if unit["traced"]:
                run.traced_wall.append(unit["wall_s"])
                run.traces.append(unit["layers"])
            else:
                run.wall.append(unit["wall_s"])
    return {"seed": seed, "kappas": kappas}


WORKLOADS = {"battery": run_battery, "pipeline": run_pipeline,
             "solve-sweep": run_sweep}


# -- reporting -------------------------------------------------------------


def _stats(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def end_to_end(run: Run) -> dict[str, tuple[float, str, list]]:
    walls = run.wall or run.traced_wall
    return {"wall_s": (statistics.median(walls), "s", walls),
            "setup_s": (statistics.median(run.setup), "s", run.setup),
            "peak_rss_mb": (statistics.median(run.rss), "MB", run.rss)}


def per_layer(run: Run) -> dict[str, tuple[float, list]]:
    """Medians over the traced units, plus the tracing overhead."""
    out = {name: statistics.median(
        [t["metrics"].get(name, 0.0) for t in run.traces])
        for name in run.traces[0]["metrics"]}
    cover = [sum(t["metrics"][f"{layer}.self_s"] for layer in spans.LAYERS)
             / w for t, w in zip(run.traces, run.traced_wall)]
    out["trace.wall_s"] = statistics.median(run.traced_wall)
    out["trace.untraced_wall_s"] = statistics.median(run.wall)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.coverage"] = statistics.median(cover)
    return out


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {**PINNED, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", blas.get("name"))}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    """Run one workload; print its lines; return the result object."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    run = Run(seconds)
    try:
        inputs = WORKLOADS[workload](run, seed, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{workload}: inputs {json.dumps(inputs)}")
    for what in run.problems:
        print(f"{workload}: FAILED {what}")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{workload}: error_rate {rate:.6g} ({run.failed} of "
          f"{run.attempted} units failed)")
    if not (run.wall or run.traced_wall) or not run.setup \
            or (trace and not (run.wall and run.traces)):
        print(f"{workload}: no successful unit to measure")
        return {"correct": False, "attempted": max(run.attempted, 1),
                "failed": max(run.failed, 1), "metrics": {}}
    metrics = {}
    for name, (value, unit, samples) in end_to_end(run).items():
        print(f"{workload}: {name} {value:.6g} {unit} ({_stats(samples)})")
        metrics[name] = {"value": value, "unit": unit}
    if trace:
        values = per_layer(run)
        metrics = {}
        for m in spec["per_layer"]:
            value = values.get(m["name"], 0.0)
            print(f"{workload}: trace {m['name']} {value:.6g} {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        trace_file = WORK / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "inputs": inputs,
             "environment": environment(), "units": run.traces},
            indent=1), encoding="utf-8")
        print(f"{workload}: trace -> {trace_file}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "fracp" / "__init__.py").is_file():
        print(f"perfbench: no fracp sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"environment: {json.dumps(environment())}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace), spec)
               for w in names}
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    # a workload without a measurement adds no metrics and fails the run;
    # the others' results and the unit counts are still printed
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
