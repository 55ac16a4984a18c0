"""Benchmark of the idlaws CLI: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload atomic-scale --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout, on that checkout's own src/ (no installed
package). A closed loop: one fresh `python -m idlaws.cli` process at a time.

--trace 0 prints the end-to-end metrics. It times set-up (fresh `import
idlaws.cli`, median of several), runs the workload's calls once in order and
checks every artifact against its closed form. Until --seconds have gone
since that pass began, it then re-runs calls of the verb with the fewest
samples so far; each call's time is the median of its samples, and every
repeat must write the bytes of the first.

--trace 1 prints the per-layer metrics. It splits import time with
`-X importtime`, runs one fresh-process pass for reference artifacts, then
the same calls in this process through idlaws.cli.main, untraced and traced.
All three passes must write byte-identical artifacts.

Both modes keep a ledger under .bench_out/ledger, keyed by the source tree,
workload and seed, so a later run of the same code also checks that
artifacts and counts repeat exactly. The last stdout line is
{"correct", "attempted", "failed", "metrics"}. Exit 2 means the checkout
could not be measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
VERBS = ("eval", "convert", "invert", "verify-id", "approx-cp", "simulate")
# traced functions whose call count is a per-layer metric (every one reports self time)
CALL_COUNTS = {"canonical.log_cf_lk", "measure.integrate", "simulate.sample_path", "simulate.stream_for"}


class Refused(Exception):
    """The checkout cannot be measured."""


# -- the checkout under test ------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_package(path: str) -> str:
    """Refuse a resolved idlaws/__init__.py outside this checkout's src/."""
    resolved = Path(path).resolve()
    if not resolved.is_relative_to(ROOT / "src"):
        raise Refused(f"idlaws resolves to {resolved}, outside {ROOT / 'src'}")
    return str(resolved.relative_to(ROOT))


def resolve_package(env: dict) -> str:
    if not (ROOT / "src" / "idlaws" / "__init__.py").is_file():
        raise Refused(f"no idlaws package under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", "import idlaws; print(idlaws.__file__)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise Refused(f"import idlaws failed: {proc.stderr.strip()[-500:]}")
    return check_package(proc.stdout.strip())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def machine_note() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = re.findall(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
            cpu = names[0] if names else cpu
    blas = {k: os.environ.get(k, "unset") for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **{name: _version(name) for name in ("numpy", "scipy")},
        "blas_threads": blas,
    }


# -- passes over a workload --------------------------------------------------------


def fresh_call(call, index: int, out_dir: Path, seed: int, env: dict) -> tuple:
    """One call as its own `python -m idlaws.cli` process: (seconds, exit code, error text, artifact paths)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    argv, paths = call.argv(str(out_dir), index, seed)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "idlaws.cli", *argv], env=env, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    error = proc.stderr.strip()[-500:] + proc.stdout.strip()[-500:] if proc.returncode else ""
    return elapsed, proc.returncode, error, paths


def fresh_pass(calls, out_dir: Path, seed: int, env: dict) -> dict:
    """Each call as a fresh process, one after another."""
    start = time.perf_counter()
    results = [fresh_call(call, k, out_dir, seed, env) for k, call in enumerate(calls)]
    times, codes, errors, artifacts = (list(x) for x in zip(*results))
    return {"wall": time.perf_counter() - start, "times": times, "codes": codes, "errors": errors, "artifacts": artifacts}


def inprocess_pass(cli, calls, out_dir: Path, seed: int) -> dict:
    """The same calls through idlaws.cli.main in this process."""
    out_dir.mkdir(parents=True)
    times, codes, errors, artifacts = [], [], [], []
    start = time.perf_counter()
    for k, call in enumerate(calls):
        argv, paths = call.argv(str(out_dir), k, seed)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as captured:
                code = cli.main(argv)
            err = "" if code == 0 else captured.getvalue()[-500:]
        except SystemExit as exc:  # argparse rejects the argv
            code, err = exc.code if isinstance(exc.code, int) else 2, "argument error"
        except Exception:  # the call crashed; record it and keep measuring
            code, err = 1, traceback.format_exc()[-1000:]
        times.append(time.perf_counter() - t0)
        codes.append(code)
        errors.append(err)
        artifacts.append(paths)
    return {"wall": time.perf_counter() - start, "times": times, "codes": codes, "errors": errors, "artifacts": artifacts}


def digest(paths: list) -> list:
    """sha256 of each artifact of one call (None if it was not written)."""
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest() if Path(p).is_file() else None for p in paths]


def digests(run: dict) -> list:
    return [digest(paths) for paths in run["artifacts"]]


def check_pass(calls, run: dict, label: str, failures: list) -> tuple:
    """Check each call's exit code and artifacts; returns (failed flags, err_ratio)."""
    failed, ratio = [], 0.0
    for k, call in enumerate(calls):
        problems = []
        if run["codes"][k] != 0:
            problems = [f"exit {run['codes'][k]}: {run['errors'][k]}"]
        else:
            report = checks.Report()
            try:
                call.check(run["artifacts"][k], call.opts, report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                report.problems.append(f"unreadable artifact: {exc!r}")
            problems = report.failures()
            ratio = max(ratio, report.ratio)
        for p in problems:
            failures.append(f"{label} call {k} ({call.args}): {p}")
        failed.append(bool(problems))
    return failed, ratio


def compare(calls, ref: list, other: list, label: str, failed: list, failures: list) -> None:
    """Flag each call whose artifacts differ from the reference bytes."""
    for k, call in enumerate(calls):
        if other[k] != ref[k]:
            failed[k] = True
            failures.append(f"{label} call {k} ({call.args}): artifact bytes differ")


class Ledger:
    """Artifact digests and counts of earlier runs of the same code and seed."""

    def __init__(self, workload: str, seed: int, calls):
        key = hashlib.sha256(
            "\0".join([source_digest(), workload, str(seed)] + [c.args for c in calls]).encode()
        ).hexdigest()[:24]
        self.path = OUT / "ledger" / f"{key}.json"
        self.data = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def recall(self, name: str, value):
        """The value an earlier run recorded under name; records this one if none."""
        if name not in self.data:
            self.data[name] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.data, sort_keys=True))
        return self.data[name]


# -- the two modes ------------------------------------------------------------------


def time_imports(env: dict, repeats: int, flags=()) -> list:
    cmd = [sys.executable, *flags, "-c", "import idlaws.cli"]
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=120)
        out.append((time.perf_counter() - t0, proc.stderr))
    return out


def end_to_end(name: str, calls, seed: int, seconds: float, env: dict, ledger: Ledger, failures: list) -> dict:
    """Set-up time, one checked pass, then more samples while the --seconds
    budget lasts, each going to the verb with the fewest samples so far. Each
    call's time is the median of its samples."""
    setup = [t for t, _ in time_imports(env, SETUP_REPEATS)]
    start = time.perf_counter()
    first = fresh_pass(calls, OUT / name / "pass", seed, env)
    failed, err_ratio = check_pass(calls, first, "pass", failures)
    ref = digests(first)
    compare(calls, ledger.recall("artifacts", ref), ref, "pass vs an earlier run", failed, failures)
    samples = [[t] for t in first["times"]]
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [j for j in range(len(calls)) if samples[j][0] <= left]
        if not fits:
            break
        verb_samples = Counter()
        for call, s in zip(calls, samples):
            verb_samples[call.verb] += len(s)
        # the verb metric with the fewest samples first, then the longest call
        # that fits, so short calls take up what is left at the end
        k = min(fits, key=lambda j: (verb_samples[calls[j].verb], len(samples[j]), -samples[j][0]))
        elapsed, code, error, paths = fresh_call(calls[k], k, OUT / name / f"repeat-{len(samples[k])}", seed, env)
        samples[k].append(elapsed)
        bad = code != 0 or digest(paths) != ref[k]
        if bad:
            failures.append(f"repeat of call {k} ({calls[k].args}): " + (f"exit {code}: {error}" if code else "artifact bytes differ"))
        failed.append(bad)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    per_call = [statistics.median(s) for s in samples]
    metrics = {"setup_s": (statistics.median(setup), "s"), "wall_s": (sum(per_call), "s")}
    for verb in VERBS:
        metrics[f"{verb.replace('-', '_')}_s"] = (sum(t for t, c in zip(per_call, calls) if c.verb == verb), "s")
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    metrics["err_ratio"] = (err_ratio, "1")
    detail = "samples per call " + ",".join(str(len(s)) for s in samples)
    return {"attempted": len(failed), "failed": sum(failed), "metrics": metrics, "detail": detail}


def import_split(stderr: str) -> dict:
    """numpy, scipy and the rest of `import idlaws.cli` from -X importtime.

    numpy_s and scipy_s sum the cumulative time of the outermost numpy* and
    scipy* imports under idlaws.cli; idlaws_self_s is what remains of
    idlaws.cli's cumulative time (its own modules and their stdlib imports).
    """
    rows = re.findall(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$", stderr, re.M)
    total = {"numpy": 0, "scipy": 0}
    root_us, stack = None, []
    for _, cum_us, indent, name in reversed(rows):  # parents before children
        level = len(indent) // 2
        del stack[level:]
        if level == 0:
            if name == "idlaws.cli":
                root_us = int(cum_us)
        elif stack and stack[0] == "idlaws.cli":
            top = name.split(".")[0]
            if top in total and not any(s.split(".")[0] in total for s in stack):
                total[top] += int(cum_us)
        stack.append(name)
    if root_us is None:
        raise ValueError("no idlaws.cli entry in -X importtime output")
    return {
        "import.numpy_s": total["numpy"] / 1e6,
        "import.scipy_s": total["scipy"] / 1e6,
        "import.idlaws_self_s": (root_us - total["numpy"] - total["scipy"]) / 1e6,
    }


def per_layer(name: str, calls, seed: int, env: dict, ledger: Ledger, failures: list) -> dict:
    splits = [import_split(err) for _, err in time_imports(env, IMPORTTIME_REPEATS, ("-X", "importtime"))]
    metrics = {k: (statistics.median(s[k] for s in splits), "s") for k in splits[0]}

    fresh = fresh_pass(calls, OUT / name / "fresh", seed, env)
    sys.path.insert(0, str(ROOT / "src"))
    import idlaws.cli as cli

    check_package(cli.__file__)
    untraced = inprocess_pass(cli, calls, OUT / name / "inprocess", seed)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = inprocess_pass(cli, calls, OUT / name / "traced", seed)
    tracer.write(OUT / name / "spans.csv")

    failed = []
    ref = digests(fresh)
    for label, run in (("fresh", fresh), ("untraced", untraced), ("traced", traced)):
        flags, _ = check_pass(calls, run, label, failures)
        compare(calls, ref, digests(run), f"{label} vs fresh", flags, failures)
        failed += flags
    compare(calls, ledger.recall("artifacts", ref), ref, "fresh vs an earlier run", failed, failures)

    counts = {}
    for module, func, size_name, _ in spans.TARGETS:
        span = f"{module}.{func}"
        if span in CALL_COUNTS:
            counts[f"{span}.calls"] = tracer.calls[span]
        if size_name:
            counts[f"{span}.{size_name}"] = tracer.sizes[span]
        metrics[f"{span}.self_s"] = (tracer.self_s[span], "s")
    counts["cli.artifact_bytes"] = sum(Path(p).stat().st_size for paths in traced["artifacts"] for p in paths if Path(p).is_file())
    if ledger.recall("counts", counts) != counts:
        failures.append("counts differ from an earlier traced run of the same code and seed")
    for k, v in counts.items():
        metrics[k] = (v, "B" if k == "cli.artifact_bytes" else "count")
    metrics["trace.overhead_frac"] = (traced["wall"] / untraced["wall"] - 1.0, "1")
    return {"attempted": len(failed), "failed": sum(failed), "metrics": metrics, "detail": "fresh, untraced and traced passes"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    env = child_env()
    try:
        package = resolve_package(env)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    calls = workloads.workloads()[args.workload]
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / args.workload).mkdir(parents=True)
    note = {**machine_note(), "package": package}
    (OUT / args.workload / "machine.json").write_text(json.dumps(note, indent=2) + "\n")
    print("machine:", json.dumps(note))

    ledger = Ledger(args.workload, args.seed, calls)
    failures = []
    try:
        if args.trace:
            result = per_layer(args.workload, calls, args.seed, env, ledger, failures)
        else:
            result = end_to_end(args.workload, calls, args.seed, args.seconds, env, ledger, failures)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result['detail']}, "
          f"fail_frac={result['failed'] / result['attempted']:.3f}")
    for k, (v, unit) in result["metrics"].items():
        print(f"  {k:48s} {v:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
