"""noiselens benchmark.

    python3 perfbench/run.py --workload run-synth|cli-chain|sweep|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a source checkout; it imports noiselens from `src/`
and keeps its scratch files under `.perfbench/`. With `--trace 0` it prints
the end-to-end metrics, with `--trace 1` the per-layer metrics; the names
and units are those of BENCHMARK.json. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is 1 when an output check failed and 2 when the checkout holds no
noiselens source. `--workload all` runs each workload in its own process
and prints their end-to-end metrics as one table.
"""

import os

# BLAS sizes its thread pool when numpy loads, and `--threads` of the CLI
# caps nothing, so the pins go into the environment first; stage
# subprocesses inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

SETUP_REPEATS = 3
# Least iterations per run, whatever --seconds says: untraced, and pairs of
# untraced + traced iterations. A smoke run makes one of either.
MIN_ITERATIONS = 2
MIN_PAIRS = 2
IMPORT_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="noiselens benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (3 x 30, d=4, 2 epochs)")
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter running `import noiselens.cli`."""
    times = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import noiselens.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - started)
    return median(times)


class Run:
    """One measured run of one workload: set-up, iterations, checks."""

    def __init__(self, workload, seconds: float, trace: bool, least: int, work: Path):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.least = least
        self.work = work
        self.walls = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.accuracies = []
        self.reference = None

    def set_up(self) -> float:
        """Median of SETUP_REPEATS set-ups, each into a fresh directory; the
        last one is kept for the iterations."""
        times = []
        for i in range(SETUP_REPEATS):
            directory = self.work / f"setup-{i}"
            directory.mkdir(parents=True)
            started = time.perf_counter()
            self.workload.setup(directory)
            times.append(time.perf_counter() - started)
            if i:
                shutil.rmtree(self.work / f"setup-{i - 1}")
        return median(times)

    def iterate(self, traced: bool, tracer, iteration: int) -> None:
        self.attempted += 1
        self.workload.prepare()
        try:
            if traced:
                tracer.install(iteration)
            try:
                started = time.perf_counter()
                output = self.workload.run(traced)
                wall = time.perf_counter() - started
            finally:
                tracer.uninstall()
            checked = self.workload.check(output)
        except Exception:  # an iteration that raises is a failed iteration
            traceback.print_exc()
            self.failed += 1
            return
        problems = list(checked.problems)
        if not problems:
            if self.reference is None:
                self.reference = checked.signature
            elif checked.signature != self.reference:
                problems.append("outputs differ from the first iteration's")
        if problems:
            for problem in problems:
                print(f"check failed: {self.workload.name}: {problem}", file=sys.stderr)
            self.failed += 1
            return
        self.walls[traced].append(wall)
        self.accuracies.append(checked.test_accuracy)

    def measure(self, tracer) -> None:
        """Untraced: iterate until the next iteration would overrun the
        budget. Traced: alternate untraced and traced iterations likewise."""
        kinds = (False, True) if self.trace else (False,)
        started = time.perf_counter()
        rounds = []
        while True:
            round_started = time.perf_counter()
            for traced in kinds:
                self.iterate(traced, tracer, len(rounds))
            rounds.append(time.perf_counter() - round_started)
            elapsed = time.perf_counter() - started
            if len(rounds) >= self.least and elapsed + median(rounds) > self.seconds:
                return


def end_to_end(run: Run, setup_s: float, import_s: float) -> dict:
    return {
        "setup_s": import_s + setup_s,
        "wall_s": median(run.walls[False]),
        "peak_rss_mb": run.workload.peak_rss_mb(),
        "test_accuracy": median(run.accuracies),
    }


def per_layer(run: Run, tracer, spans, import_s: float) -> dict:
    metrics = spans.layer_metrics(tracer.spans)
    metrics["cli.import_s"] = import_s
    stage_seconds = getattr(run.workload, "stage_seconds", {})
    for stage in spans.STAGES:
        metrics[f"cli.stage.{stage}.s"] = median(stage_seconds.get(stage, [0.0]))
    untraced = median(run.walls[False])
    traced = median(run.walls[True])
    if run.workload.name == "cli-chain":
        # The traced chain runs in process; add back the six imports that
        # the untraced chain pays.
        traced += len(spans.STAGES) * import_s
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return metrics


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_one(args) -> int:
    import noiselens

    if not Path(noiselens.__file__).resolve().is_relative_to(SRC):
        print(f"error: noiselens was imported from {noiselens.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.BY_NAME[args.workload](args.seed, sizes)
    least = 1 if args.smoke else MIN_PAIRS if args.trace else MIN_ITERATIONS
    run = Run(workload, args.seconds, bool(args.trace), least, work)
    tracer = spans.Tracer()
    try:
        import_s = import_seconds()
        setup_s = run.set_up()
        run.measure(tracer)
    finally:
        tracer.uninstall()
    env = environment(args.seed)
    correct = run.failed == 0
    reported = {}
    if correct:
        if args.trace:
            metrics = per_layer(run, tracer, spans, import_s)
            spans.write_spans(work / "spans.tsv", tracer.spans)
        else:
            metrics = end_to_end(run, setup_s, import_s)
        kind = "per_layer" if args.trace else "end_to_end"
        reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": reported}
    (work / "result.json").write_text(
        json.dumps({"workload": args.workload, "environment": env, "walls": run.walls[False], **result}, indent=1),
        encoding="utf-8",
    )
    print(f"noiselens benchmark: workload={args.workload} trace={args.trace} {json.dumps(env)}")
    print(f"  iterations: {len(run.walls[False])} untraced, {len(run.walls[True])} traced;"
          f" set-up repeated {SETUP_REPEATS}x")
    for name, entry in reported.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_frac':<40} {run.failed / run.attempted:>14.6g} fraction ({run.failed} of {run.attempted})")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if done.returncode != 0 or not result["correct"]:
            status = 1
        rows[name] = result
    names = [m["name"] for m in SPEC["end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    print(f"{'metric':<24}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for metric in names:
        cells = [rows[w]["metrics"].get(metric, {}).get("value") for w in WORKLOADS]
        print(f"{metric + ' (' + units[metric] + ')':<24}" + "".join(
            f"{c:>14.6g}" if c is not None else f"{'-':>14}" for c in cells))
    fracs = [rows[w]["failed"] / max(rows[w]["attempted"], 1) for w in WORKLOADS]
    print(f"{'failed_frac (fraction)':<24}" + "".join(f"{f:>14.6g}" for f in fracs))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "noiselens" / "__init__.py").is_file():
        print(f"error: no noiselens source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Stage and import subprocesses inherit this environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
