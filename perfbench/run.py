"""hgsc benchmark: run one workload (or all) and print every metric.

    python3 perfbench/run.py --workload planted-fit --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 16 --trace 1 --out r.json

Each workload runs in a fresh Python process with inherited BLAS/OpenMP
thread variables removed, so the library default thread count applies.
The program is imported from ``src/`` of the checkout this file sits in.
Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced pass. ``--out`` appends the full record (machine, BLAS threads,
commit, every metric) to a results file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
NAMES = ("planted-fit", "scale-epochs", "reuse-8k", "eval-cli")
WORKER_TIMEOUT_S = 170.0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: small inputs for the benchmark's own tests")
    p.add_argument("--out", help="append the full result record to this JSON file")
    p.add_argument("--worker-result", help=argparse.SUPPRESS)
    return p


def _import_program():
    """Import hgsc from this checkout's src/ only; fail when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "hgsc", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/hgsc")
    sys.path.insert(0, SRC)
    import hgsc

    if os.path.dirname(os.path.dirname(os.path.abspath(hgsc.__file__))) != SRC:
        raise SystemExit(f"error: hgsc imported from {hgsc.__file__}, not {SRC}")


def _worker(args) -> int:
    _import_program()
    import machine
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        record = workloads.measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine.record(ROOT)
    with open(args.worker_result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def _spawn(args, name: str) -> dict:
    """Run one workload in a fresh process and return its record."""
    import machine

    os.makedirs(WORKDIR, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=WORKDIR)
    os.close(fd)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--worker-result", path]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=machine.clean_env(os.environ),
                                stdout=sys.stderr)
        try:
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: workload {name} exceeded {WORKER_TIMEOUT_S:.0f}s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0:
            raise SystemExit(f"error: workload {name} exited {rc}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(path)


def _print_record(rec: dict) -> None:
    m = rec["machine"]
    threads = ", ".join(f"{b['library']}={b.get('threads', '?')}" for b in m["blas_runtime"])
    print(f"# {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} "
          f"trace={rec['trace']} size={rec['size']}")
    print(f"#   cores={m['cores']} blas threads: {threads}; numpy {m['numpy']} "
          f"({m['numpy_blas']}), scipy {m['scipy']}, python {m['python']}, "
          f"commit {m['commit'][:12]}")
    print(f"#   attempted={rec['attempted']} failed={rec['failed']}")
    for reason in rec["failures"]:
        print(f"#   FAILED: {reason}")
    for title, group in (("named", rec["named"]), ("metrics", rec["metrics"])):
        for key, v in group.items():
            print(f"  {title:7s} {key:34s} {v['value']:.6g} {v['unit']}")


def _summary_line(rec: dict) -> dict:
    return {"correct": rec["failed"] == 0 and rec["attempted"] > 0,
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": rec["metrics"]}


def _append(path: str, records: list[dict]) -> None:
    doc = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["runs"].extend(records)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _terminate(signum, frame):
    raise SystemExit(f"error: stopped by signal {signum}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.worker_result:
        return _worker(args)
    # on SIGTERM, unwind so a running worker is killed and waited for
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "hgsc", "__init__.py")):
        print(f"error: no program source at {SRC}/hgsc", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    try:
        records = [_spawn(args, name) for name in names]
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    for rec in records:
        _print_record(rec)
    if args.out:
        _append(args.out, records)
    if len(records) == 1:
        print(json.dumps(_summary_line(records[0])))
    else:
        print(json.dumps({rec["workload"]: _summary_line(rec) for rec in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
