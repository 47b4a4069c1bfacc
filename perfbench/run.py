"""Benchmark of the traywaiter pipeline, run through the CLI entry point
`traywaiter.cli.main` in this process.

    python3 perfbench/run.py --workload liquid_p2p --seed 1 --seconds 30 --trace 0

It imports the package from the checkout's `src/` and writes its files
under `.perfbench_work/`. The workloads are in workloads.py, and README.md
describes them and every metric. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics. With `--trace 1`,
untraced iterations alternate with iterations traced by tracer.py, and the
JSON object holds the per-layer metrics. The lines before it give details:
percentiles, raw wall-clock times, error rate, output fingerprints and the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints.json")
SETUP_REPEATS = 11          # fresh interpreters timed for setup_s, after one warm-up
MIN_ITERATIONS = 5          # timed iterations of each kind, even past --seconds
# a fresh interpreter times its import of the CLI, then the reference kernel
# (its second pass; the first warms numpy up)
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import traywaiter.cli
t1 = time.perf_counter()
sys.path.insert(0, {here!r})
import reference
reference.seconds()
print(traywaiter.cli.__file__, t1 - t0, reference.seconds())
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="see workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time after the warm-up iteration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Samples:
    """Timings, each with the reference kernel's time just before and after.

    `normalized` scales a timing by reference.NOMINAL_S over the mean of
    those two: the time the work would take on a host that runs the kernel
    in reference.NOMINAL_S (see reference.py for why).
    """

    def __init__(self):
        self.raw: list = []
        self.normalized: list = []

    def add(self, seconds: float, ref_before: float, ref_after: float) -> None:
        self.raw.append(seconds)
        self.normalized.append(
            seconds * reference.NOMINAL_S * 2.0 / (ref_before + ref_after))

    def median(self):
        return statistics.median(self.normalized) if self.normalized else None


def measure_setup() -> Samples:
    """Seconds fresh interpreters take to import traywaiter.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = SETUP_CODE.format(here=os.path.dirname(os.path.abspath(__file__)))
    samples = Samples()
    for i in range(SETUP_REPEATS + 1):   # the first one also compiles bytecode
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        path, seconds, ref = out.stdout.split()
        if not path.startswith(SRC + os.sep):
            raise RuntimeError(f"imported traywaiter from {path}, not {SRC}")
        if i:
            samples.add(float(seconds), float(ref), float(ref))
    return samples


def run_iteration(cli, prepared, tracer=None):
    """Run the workload's CLI calls once; returns (seconds or None, problems)."""
    shutil.rmtree(prepared.outdir, ignore_errors=True)
    gc.collect()
    codes = []
    root_span = tracer.iteration() if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            with root_span:
                for argv in prepared.commands:
                    codes.append(cli.main(argv))
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed iteration, not the end of the run
        traceback.print_exc()
        return None, [f"raised {exc!r}"]
    try:
        return elapsed, prepared.check(codes)
    except (OSError, ValueError) as exc:  # unreadable or malformed output
        return elapsed, [f"output check raised {exc!r}"]


def fingerprint(outdir: str) -> dict:
    """SHA-256 of every file the pipeline left in `outdir`."""
    hashes = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class Run:
    """One checked warm-up iteration, then timed iterations for `seconds`.

    With a tracer, timed iterations alternate between untraced and traced,
    the hooks installed only around traced ones, so both see the same
    machine conditions and their difference is the tracing overhead.
    """

    def __init__(self, cli, prepared, seconds, tracer=None):
        self.untraced = Samples()
        self.traced = Samples()
        self.refs: list = []
        self.attempted = self.failed = 0
        self.problems: list = []
        self._iteration(cli, prepared, None)
        self.fingerprint = fingerprint(prepared.outdir) \
            if os.path.isdir(prepared.outdir) else None
        modes = (None, tracer) if tracer else (None,)
        ref = reference.seconds()
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline or \
                min(len(self._samples(m).raw) for m in modes) < MIN_ITERATIONS:
            mode = modes[k % len(modes)]
            k += 1
            if mode:
                mode.install()
            try:
                elapsed, problems = self._iteration(cli, prepared, mode)
            finally:
                if mode:
                    mode.uninstall()
            ref_after = reference.seconds()
            self.refs.append(ref_after)
            if elapsed is not None:
                self._samples(mode).add(elapsed, ref, ref_after)
            ref = ref_after
            if self.failed > 3 * MIN_ITERATIONS and time.perf_counter() >= deadline:
                break   # iterations keep failing; report rather than spin

    def _samples(self, mode) -> Samples:
        return self.traced if mode else self.untraced

    def _iteration(self, cli, prepared, tracer):
        elapsed, problems = run_iteration(cli, prepared, tracer)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed, problems


def percentile_detail(times) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(times)
    if n < 11:
        return f"no percentile has 10 samples beyond it ({n} samples)"
    rank = n - 10                   # 1-based: ten samples lie above this one
    return f"p{100 * rank // n} {sorted(times)[rank - 1]!r} s ({n} samples)"


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"python": platform.python_version(), "numpy": reference.numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count()}


def recorded_fingerprint(workload: str, seed: int):
    with contextlib.suppress(OSError):
        with open(FINGERPRINTS) as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    return None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "traywaiter", "cli.py")):
        print(f"error: no traywaiter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import traywaiter.cli as cli
    if not cli.__file__.startswith(SRC + os.sep):
        print(f"error: imported traywaiter from {cli.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        prepared = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    except OSError as exc:
        print(f"error: cannot prepare {args.workload}: {exc}", file=sys.stderr)
        return 2

    setup = None if args.trace else measure_setup()
    tracer = tracing.Tracer() if args.trace else None
    run = Run(cli, prepared, args.seconds, tracer)
    if not run.untraced.raw:
        print(f"error: every iteration crashed: {run.problems[0]}", file=sys.stderr)
        return 1
    if tracer:
        tracer.write(os.path.join(work, "spans.json"))
        scale = reference.NOMINAL_S / statistics.median(run.refs)
        metrics = tracing.per_layer_metrics(tracer, scale)
        overhead = run.traced.median() - run.untraced.median() if run.traced.raw else None
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"pipeline_s": (run.untraced.median(), "s"),
                   "setup_s": (setup.median(), "s"),
                   "peak_rss_mb": (peak_rss, "MB")}

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"reference kernel: median {statistics.median(run.refs)!r} s over "
          f"{len(run.refs)} passes, nominal {reference.NOMINAL_S!r} s")
    timings = {"untraced pipeline_s": run.untraced, "traced pipeline_s": run.traced,
               "setup_s": setup}
    for label, samples in timings.items():
        if samples and samples.raw:
            print(f"{label}: normalized median {samples.median()!r} s, "
                  f"{percentile_detail(samples.normalized)}; "
                  f"wall-clock median {statistics.median(samples.raw)!r} s, "
                  f"{percentile_detail(samples.raw)}")
    print(f"error_rate {run.failed / run.attempted!r} "
          f"({run.failed} of {run.attempted} iterations failed)")
    for problem in sorted(set(run.problems)):
        print(f"  check failed: {problem}")
    if tracer:
        missing = sorted(tracer.missing)
        print("unmeasured hook points: " + (", ".join(missing) if missing else "none"))
    recorded = recorded_fingerprint(args.workload, args.seed)
    for name, digest in (run.fingerprint or {}).items():
        status = "unrecorded in" if recorded is None else \
            ("matches" if recorded.get(name) == digest else "differs from")
        print(f"fingerprint {name} sha256 {digest} ({status} fingerprints.json)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(dict(result, environment=env, fingerprint=run.fingerprint,
                       reference_s=run.refs,
                       **{label: vars(samples) for label, samples in timings.items()
                          if samples}),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
