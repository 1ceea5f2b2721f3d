"""One repetition of one benchmark workload, in a fresh process.

    python worker.py --workload NAME --seed N [--check] [--trace] [--tiny] [--setup-only]

Set-up time counts from the first statement below, so interpreter start-up
is left out.  Set-up ends when the first op is ready: polycauchy is
imported and the workload's inputs are built.  The ops then run one after
another; peak RSS is read before any check runs.  With --check the outputs
are compared with independent oracles; without it only their digests are
reported, for comparison with a checked repetition of the same seed.

Every CALIBRATE_EVERY_S, also in the middle of an op, an untraced
repetition times a fixed calibration kernel that does not use polycauchy.
Op times leave the kernel's time out.  run.py uses the samples to scale op
times to the machine's reference speed.

Prints one JSON object on its last line of output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.2
SETUP_CALIBRATIONS = 5


def calibration_kernel() -> Fraction:
    """About 2 ms of small-rational arithmetic, the package's hot path, without the package."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return total


class Calibrator:
    """Times calibration_kernel every CALIBRATE_EVERY_S of wall time, inside long ops too.

    A SIGALRM handler runs the kernel between two bytecodes of whatever is
    running, and records (start, seconds) on the clock.  A sample that starts
    inside an interval also ends inside it, so `paused` is exact.
    """

    def __init__(self, clock):
        self.clock = clock
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 1e-6, CALIBRATE_EVERY_S)

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # the kernel makes no cycles; keep the program's collections out of it
        t = self.clock()
        calibration_kernel()
        self.samples.append((t, self.clock() - t))
        if collecting:
            gc.enable()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paused(self, begin: float, end: float) -> float:
        """Seconds spent in the kernel between two readings of the clock."""
        return sum(seconds for t, seconds in self.samples if begin <= t < end)


def run(args, workdir: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    import polycauchy

    if not Path(polycauchy.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"polycauchy was imported from {polycauchy.__file__}, not from src/")
    setup_s = time.perf_counter() - T0
    setup_calibration_ms = []  # the machine's speed right after set-up
    for _ in range(SETUP_CALIBRATIONS):
        t = time.perf_counter()
        calibration_kernel()
        setup_calibration_ms.append((time.perf_counter() - t) * 1000)
    if args.setup_only:
        return {"setup_s": setup_s, "setup_calibration_ms": setup_calibration_ms}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    outputs, errors, spans = {}, {}, []
    calibrator = None if tracer is not None else Calibrator(clock)
    start = clock()
    for name, op in workload.ops:
        t = clock()
        try:
            outputs[name] = op()
        except Exception as exc:  # a raising op counts as failed; the run goes on
            errors[name] = f"{type(exc).__name__}: {exc}"
        spans.append((t, clock()))
    end = clock()
    if calibrator is not None:
        calibrator.stop()
    paused = calibrator.paused if calibrator is not None else (lambda begin, end: 0.0)

    def op_clock(t):  # seconds since the loop started, without calibration
        return t - start - paused(start, t)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "setup_calibration_ms": setup_calibration_ms,
        "wall_s": op_clock(end),
        "peak_rss_mb": peak_rss_mb,
        "ops": [name for name, _ in workload.ops],
        "op_start_s": [op_clock(t) for t, _ in spans],
        "latencies_ms": [(e - t - paused(t, e)) * 1000 for t, e in spans],
        # (start on the op clock in s, kernel time in ms)
        "calibrations": [(op_clock(t), seconds * 1000)
                         for t, seconds in (calibrator.samples if calibrator else [])],
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(workload.bytes_written(outputs))
        result["spans"] = tracer.spans()
    result["digests"] = {name: workload.digest(name, out) for name, out in outputs.items()}
    if args.check:
        ok, problems = workload.check(outputs)
        result["check"] = {"ok": ok, "problems": problems}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", action="store_true", help="compare outputs with the oracles")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for self-tests")
    parser.add_argument("--setup-only", action="store_true", help="stop when the first op is ready")
    args = parser.parse_args(argv)

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
