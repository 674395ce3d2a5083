"""Benchmark runner for the ``voachar`` CLI.

    python3 perfbench/run.py --workload lie-highrank --seed 1 --seconds 30 --trace 0

Load model: one client in a closed loop.  Each op is one ``voachar`` CLI
invocation run in a fresh interpreter (``child.py``), one at a time, so the
library's module-level caches start cold for every op, as they do for a
user.  The child times only ``cli.main(argv)``; run.py checks every
output with a reference that does not share the op's code path.

``--seconds`` sets the amount of work: the run executes
``round(seconds / ROUND_S[workload])`` seeded rounds (at least one), where
``ROUND_S`` is a round's wall time on the reference machine, so a parent
commit and a change always run identical ops.

With ``--trace 0`` the last line reports the end-to-end metrics that
BENCHMARK.json lists.  With ``--trace 1`` the run makes an untraced pass and
a traced pass over the same (half as many) rounds and reports its per-layer
metrics, including the tracing overhead.  Everything else goes to stdout above the last line
and, in full, to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op, check_pairs
from tracer import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, round_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Wall seconds of one round (ops plus interpreter launches) on the
# reference machine: 2-core AMD EPYC, Python 3.11.
ROUND_S = {"lie-highrank": 9.3, "char-flavors": 2.5, "fock-vertex": 3.7}
OP_TIMEOUT_S = 60
# No new round starts after this many seconds, so a run that has become
# very slow still exits well inside 180 s.
RUN_DEADLINE_S = 140

TRACE_METRICS = (
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.ops_per_s_untraced", "1/s"),
)


def run_op(op, op_id: int, trace: bool, env: dict) -> dict:
    """Run one op in a fresh interpreter; returns the child's report plus
    ``setup_s`` (launch until ``voachar.cli`` is imported and its parser
    built)."""
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", str(op_id), *op.argv]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=OP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    report["setup_s"] = report["ready"] - launched
    return report


def run_pass(rounds, trace: bool, started: float):
    """Run whole rounds until done or past the deadline.  Returns the ops
    run, their reports and verdicts, and the number of rounds completed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    ops, results, verdicts, done = [], [], [], 0
    for rnd in rounds:
        if time.monotonic() - started > RUN_DEADLINE_S:
            break
        for op in rnd:
            report = run_op(op, len(ops), trace, env)
            ops.append(op)
            results.append(report)
            verdicts.append(check_op(op, report))
        done += 1
    check_pairs(ops, results, verdicts)
    return ops, results, verdicts, done


def tail_percentile(times):
    """The highest percentile with at least ten samples beyond it, and the
    percentile used; with ten samples or fewer, the maximum (p100)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def e2e_metrics(results, verdicts) -> dict | None:
    """End-to-end metrics of a pass, or None when no op completed."""
    times = [r["op_s"] for r in results if "op_s" in r]
    if not times:
        return None
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    tail, pct = tail_percentile(times)
    return {
        "ops_per_s": sum(v == "ok" for v in verdicts) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "tail_percentile": pct,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(r["rss_kib"] for r in results if "rss_kib" in r) / 1024,
        "samples": len(times),
        "error_rate": sum(v != "ok" for v in verdicts) / len(verdicts),
    }


def digest(results, round_sizes):
    """sha256 over each round's stdout bytes, in op order."""
    out, i = [], 0
    for size in round_sizes:
        h = hashlib.sha256()
        for r in results[i : i + size]:
            data = r.get("stdout", "").encode()
            h.update(len(data).to_bytes(8, "big") + data)
        out.append(h.hexdigest())
        i += size
    return out


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def op_rows(ops, results, verdicts, rounds_of):
    rows = []
    for i, (op, r, v) in enumerate(zip(ops, results, verdicts)):
        row = {
            "op": i,
            "round": rounds_of[i],
            "kind": op.kind,
            "argv": list(op.argv),
            "op_s": r.get("op_s"),
            "op_cpu_s": r.get("op_cpu_s"),
            "setup_s": r.get("setup_s"),
            "rss_mib": r["rss_kib"] / 1024 if "rss_kib" in r else None,
            "status": r.get("status"),
            "verdict": v,
            "stdout_bytes": len(r.get("stdout", "").encode()),
        }
        if "trace" in r:
            row["trace"] = r["trace"]
        rows.append(row)
    return rows


def kind_shares(ops, results) -> dict[str, float]:
    total: dict[str, float] = {}
    for op, r in zip(ops, results):
        total[op.kind] = total.get(op.kind, 0.0) + r.get("op_s", 0.0)
    whole = sum(total.values()) or 1.0
    return {k: v / whole for k, v in sorted(total.items(), key=lambda kv: -kv[1])}


def module_shares(totals_list) -> dict[str, float]:
    """Share of summed self time per module, over the given per-op totals."""
    by_mod: dict[str, int] = {}
    for totals in totals_list:
        for key, value in totals.items():
            if key.endswith(".self_ns"):
                mod = key.split(".", 1)[0]
                by_mod[mod] = by_mod.get(mod, 0) + value
    whole = sum(by_mod.values()) or 1
    return {m: v / whole for m, v in sorted(by_mod.items(), key=lambda kv: -kv[1])}


def fmt_shares(shares) -> str:
    return "  ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())


def trace_pass(rounds, started, e2e, rounds_of) -> dict:
    """Traced pass over the same rounds; returns the per-layer part of the
    record (metrics, absent layers, attribution, traced op rows, spans)."""
    ops, results, verdicts, _ = run_pass(rounds, True, started)
    traced = e2e_metrics(results, verdicts)
    totals: dict[str, int] = {"cli.stdout_bytes": 0}
    absent: set[str] = set()
    by_kind: dict[str, list] = {}
    for op, r in zip(ops, results):
        for key, value in r.get("trace", {}).items():
            totals[key] = totals.get(key, 0) + value
        totals["cli.stdout_bytes"] += len(r.get("stdout", "").encode())
        absent.update(r.get("absent", ()))
        by_kind.setdefault(op.kind, []).append(r.get("trace", {}))
    layers = layer_metrics(totals, absent)
    traced_rate = traced["ops_per_s"] if traced else None
    layers["trace.overhead_ratio"] = (
        traced_rate / e2e["ops_per_s"] if traced_rate and e2e["ops_per_s"] else None
    )
    layers["trace.ops_per_s_traced"] = traced_rate
    layers["trace.ops_per_s_untraced"] = e2e["ops_per_s"]
    return {
        "per_layer": layers,
        "absent_layers": sorted(absent),
        "self_time_share_by_module": module_shares(r.get("trace", {}) for r in results),
        "self_time_share_by_module_and_kind": {
            k: module_shares(v) for k, v in sorted(by_kind.items())
        },
        "traced_ops": op_rows(ops, results, verdicts, rounds_of),
        "failed": sum(v != "ok" for v in verdicts),
        "spans": [r["spans"] for r in results if "spans" in r],
    }


def print_report(record: dict) -> None:
    e2e, prov = record["end_to_end"], record["provenance"]
    n, procs = e2e["samples"], len(record["ops"])
    print(f"workload {prov['workload']}  seed {prov['seed']}  rounds {record['rounds']}  "
          f"ops {n}  trace {prov['trace']}  commit {prov['commit'][:12]}  "
          f"wall {record['wall_s']:.1f} s")
    print(f"  ops_per_s     {e2e['ops_per_s']:.4f} 1/s   n={n}")
    print(f"  op_p50_s      {e2e['op_p50_s']:.4f} s     n={n}")
    print(f"  op_tail_s     {e2e['op_tail_s']:.4f} s     p{e2e['tail_percentile']:.1f}  n={n}")
    print(f"  setup_s       {e2e['setup_s']:.4f} s     median of {procs} processes")
    print(f"  peak_rss_mib  {e2e['peak_rss_mib']:.2f} MiB  max of {procs} processes")
    failed = sum(row["verdict"] != "ok" for row in record["ops"])
    print(f"  error_rate    {e2e['error_rate']:.4f}       {failed} of {procs} ops failed")
    print(f"  op time share {fmt_shares(record['op_time_share_by_kind'])}")
    print(f"  stdout sha256 {record['stdout_sha256']}")
    for row in record["ops"] + record.get("traced_ops", []):
        if row["verdict"] != "ok":
            print(f"  FAILED {row['kind']}: {' '.join(row['argv'])[:120]}: {row['verdict']}")
    if "per_layer" not in record:
        return
    units = dict(LAYER_METRICS) | dict(TRACE_METRICS)
    print(f"per-layer metrics, traced pass of {len(record['traced_ops'])} ops:")
    for name, value in record["per_layer"].items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown} {units[name]}")
    print(f"  self time by module: {fmt_shares(record['self_time_share_by_module'])}")
    for kind, shares in record["self_time_share_by_module_and_kind"].items():
        print(f"    {kind:16s} {fmt_shares(dict(list(shares.items())[:4]))}")


def bench(workload: str, seed: int, seconds: float, trace: int, tracked) -> dict | None:
    """Run one workload, print its report and write its results file.
    Returns the last-line object, with the ``tracked`` metrics (entries of
    BENCHMARK.json), or None when no op completed."""
    started = time.monotonic()
    n_rounds = max(1, round(seconds / ROUND_S[workload]))
    if trace:
        n_rounds = max(1, round(n_rounds / 2))
    rounds = [round_ops(workload, seed, r) for r in range(n_rounds)]

    ops, results, verdicts, done = run_pass(rounds, False, started)
    e2e = e2e_metrics(results, verdicts)
    if e2e is None:
        first = results[0].get("error") if results else "no op ran"
        print(f"error: no op completed: {first}", file=sys.stderr)
        return None
    sizes = [len(r) for r in rounds[:done]]
    rounds_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    digests = digest(results, sizes)
    record = {
        "provenance": provenance(workload, seed, seconds, trace),
        "rounds": done,
        "rounds_planned": n_rounds,
        "end_to_end": e2e,
        "op_time_share_by_kind": kind_shares(ops, results),
        "stdout_sha256_by_round": digests,
        "stdout_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "ops": op_rows(ops, results, verdicts, rounds_of),
    }
    attempted, failed = len(verdicts), sum(v != "ok" for v in verdicts)
    stem = f"{workload}-seed{seed}-trace{trace}"
    OUT.mkdir(exist_ok=True)
    if trace:
        record.update(trace_pass(rounds[:done], started, e2e, rounds_of))
        attempted += len(record["traced_ops"])
        failed += record.pop("failed")
        spans_path = OUT / f"{stem}.spans.jsonl.gz"
        with open(spans_path, "wb") as f:
            for spans in record.pop("spans"):
                f.write(gzip.compress((json.dumps(spans) + "\n").encode()))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["wall_s"] = time.monotonic() - started
    out_path = OUT / f"{stem}.json"
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
    print_report(record)
    print(f"  results       {out_path.relative_to(ROOT)}")

    values = record["per_layer"] if trace else e2e
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in tracked
        if values[m["name"]] is not None
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voachar" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'voachar'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracked = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = bench(name, args.seed, args.seconds, args.trace, tracked)
        if results[name] is None:
            return 3
    if len(names) == 1:
        last = results[names[0]]
    else:
        last = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
