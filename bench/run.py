"""polycauchy benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload verify_default --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 1

Run it from the repository root.  Every repetition is a fresh
single-threaded process (bench/worker.py), launched one at a time.  With
--trace 0 the run makes a fixed number of repetitions, worked out from
--seconds and each workload's repetition time at commit def615d, and prints
the end-to-end metrics as medians over them.  With --trace 1 it makes one
untraced and one traced repetition and prints the per-layer metrics of the
traced one, plus trace.overhead_s, the difference of their wall times.

On a shared machine the speed of every process can drift by a third for
minutes at a time (measured on a 2-core VM with Python 3.11; see
bench/README.md).  Op times are therefore scaled to a
reference speed: each op's time is multiplied by CALIBRATION_REF_MS over
the median time of a fixed calibration kernel, timed in the same process
at the CALIBRATION_NEIGHBOURS moments nearest to the op.  The kernel does
not use polycauchy, so a change to the package cannot move it.  Set-up
times are scaled by kernel samples taken right after set-up.  Raw times
are printed next to the metrics and kept with the raw data.

The first repetition checks every output against independent oracles; the
others must reproduce its output digests.  The last line of output is one
JSON object with the keys correct, attempted, failed and metrics.  Raw
per-repetition data and the trace totals go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Seconds one repetition takes at commit def615d on a 2-core machine.  They fix
# the number of repetitions per run, which must not depend on the code under
# test, so that both sides of a comparison take the same number of samples.
REPETITION_S = {"verify_default": 6.5, "construct_highdeg": 12.0, "cli_session": 4.5}
MIN_REPETITIONS = 4
SETUP_SAMPLES = 15  # set-ups per run, counting the repetitions; the rest set up and exit
CALIBRATION_REF_MS = 2.0  # the calibration kernel's time at the reference speed
CALIBRATION_NEIGHBOURS = 5
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it
DEADLINE_S = 165.0  # a run must end within 180 s


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("POLYCAUCHY_CACHE_DIR", None)  # a caller's triangle cache must not change results
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Set-up loads compiled modules whatever the caller's setting, and every
    # .pyc is read from and written to the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]


def provenance(env: dict) -> dict:
    starts = []
    for _ in range(5):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - t)
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_rev": git_rev(),
        "loadavg_at_start": os.getloadavg(),
        "python_c_pass_s": statistics.median(starts),
    }


def warm_up(env: dict):
    """Compile every module the workers import, so no repetition pays for it."""
    subprocess.run([sys.executable, "-c", "import polycauchy.cli, tracer, workloads, worker"],
                   cwd=BENCH, env=env, check=True, timeout=60)


def repetition(workload: str, seed: int, flags: list, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: repetition did not end before the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"{workload}: worker exited with {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_ops(rep: dict, reference: dict) -> int:
    """Ops that raised, failed the reference's check, or differ from the reference's output."""
    ok = reference["check"]["ok"]
    return sum(
        1 for name in rep["ops"]
        if name in rep["errors"] or not ok.get(name)
        or rep["digests"].get(name) != reference["digests"].get(name)
    )


def scaled_latencies(rep: dict) -> list:
    """Op latencies in ms at the reference speed."""
    calibrations = rep["calibrations"]
    out = []
    for start, ms in zip(rep["op_start_s"], rep["latencies_ms"]):
        middle = start + ms / 2000
        nearest = sorted(calibrations, key=lambda c: abs(c[0] - middle))[:CALIBRATION_NEIGHBOURS]
        out.append(ms * CALIBRATION_REF_MS / statistics.median(k for _, k in nearest))
    return out


def scaled_setup(process: dict) -> float:
    """Set-up time at the reference speed, by the calibration samples taken right after it."""
    return (process["setup_s"] * CALIBRATION_REF_MS
            / statistics.median(process["setup_calibration_ms"]))


def op_medians(reps: list, latencies: list) -> list:
    """Each op's median latency over the repetitions, one sample per op."""
    per_op = {}
    for rep, rep_latencies in zip(reps, latencies):
        for name, ms in zip(rep["ops"], rep_latencies):
            per_op.setdefault(name, []).append(ms)
    return [statistics.median(v) for v in per_op.values()]


def tail(latencies: list) -> tuple[float, float, int]:
    """(latency, percentile, samples) at the highest percentile with TAIL_BEYOND samples beyond."""
    xs = sorted(latencies)
    i = max(len(xs) - 1 - TAIL_BEYOND, 0)
    return xs[i], 100 * (i + 1) / len(xs), len(xs)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, tiny: bool,
                 env: dict, deadline: float) -> dict:
    size = ["--tiny"] if tiny else []
    if trace:
        plan = [["--check", *size], ["--trace", *size]]
    else:
        count = max(MIN_REPETITIONS, round(seconds / REPETITION_S[workload]))
        plan = [["--check", *size]] + [size] * (count - 1)
    reps = []
    for flags in plan:
        if not trace and reps and time.monotonic() + reps[-1]["wall_s"] + 2 > deadline:
            break  # another repetition would overrun the run's time limit
        reps.append(repetition(workload, seed, flags, env, deadline))
    setups = list(reps)
    if not trace:
        for _ in range(SETUP_SAMPLES - len(reps)):
            setups.append(repetition(workload, seed, ["--setup-only", *size], env, deadline))

    reference = reps[0]
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(failed_ops(r, reference) for r in reps)
    problems = reference["check"]["problems"]
    out = {"workload": workload, "seed": seed, "repetitions": len(reps), "attempted": attempted,
           "failed": failed, "correct": failed == 0 and not problems, "problems": problems}
    if trace:
        layers = dict(reps[1]["layers"])
        layers["trace.overhead_s"] = reps[1]["wall_s"] - reps[0]["wall_s"]
        out["metrics"] = layers
        out["spans"] = reps[1]["spans"]
    else:
        scaled = [scaled_latencies(r) for r in reps]
        latencies = op_medians(reps, scaled)
        tail_ms, tail_pct, samples = tail(latencies)
        out["metrics"] = {
            "setup_s": statistics.median(scaled_setup(r) for r in setups),
            "wall_s": statistics.median(sum(rep_latencies) / 1000 for rep_latencies in scaled),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        raw_latencies = op_medians(reps, [r["latencies_ms"] for r in reps])
        out["raw"] = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "op_p50_ms": statistics.median(raw_latencies),
            "op_tail_ms": tail(raw_latencies)[0],
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "calibration_ms": statistics.median(k for r in reps for _, k in r["calibrations"]),
        }
        out["op_tail"] = {"percentile": tail_pct, "samples": samples}
        out["error_rate"] = failed / attempted
    out["reps"] = reps
    out["setups"] = setups[len(reps):]
    return out


def units(benchmark: dict) -> dict:
    return {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def report(result: dict, unit_of: dict):
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['repetitions']} repetitions")
    for name, value in result["metrics"].items():
        line = f"{name:36s} {value:<22} {unit_of[name]}"
        if name == "op_tail_ms":
            tail_info = result["op_tail"]
            line += f"  (p{tail_info['percentile']:.2f} of {tail_info['samples']} samples)"
        if name in result.get("raw", {}):
            line += f"  raw {result['raw'][name]:.6g}"
        print(line)
    if "raw" in result:
        print(f"{'calibration_ms':36s} {result['raw']['calibration_ms']:<22} ms  "
              f"(reference {CALIBRATION_REF_MS})")
    if "error_rate" in result:
        print(f"{'error_rate':36s} {result['error_rate']:<22} "
              f"({result['failed']} failed of {result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for self-tests")
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "polycauchy" / "__init__.py").is_file():
        print(f"error: no polycauchy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    try:
        facts = provenance(env)
        warm_up(env)
        workloads = names if args.workload == "all" else [args.workload]
        results = []
        for i, workload in enumerate(workloads):
            # with --workload all each workload gets an equal share of the time limit
            deadline = start + DEADLINE_S * (i + 1) / len(workloads)
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                        args.tiny, env, deadline))
    except (RunError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    unit_of = units(benchmark)
    for result in results:
        result["provenance"] = facts
        path = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        report(result, unit_of)
    print("provenance " + json.dumps(facts))

    def metric(result, name):
        return {"value": result["metrics"][name], "unit": unit_of[name]}

    if len(results) == 1:
        metrics = {name: metric(results[0], name) for name in results[0]["metrics"]}
    else:
        metrics = {f"{r['workload']}.{name}": metric(r, name)
                   for r in results for name in r["metrics"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
