"""The repository benchmark: four single-population workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload errfree-hits --seed 1 \
        --seconds 15 --trace 0

Each workload runs in child processes of its own (``child.py``), on the
default execution tier, through the program's public entry points.
``--trace 0`` prints the end-to-end metrics (``setup_s``, ``wall_s``,
``op_ms_p50``, ``peak_rss_mb``); ``--trace 1`` prints the per-layer
split from a separate traced run and writes a Chrome trace to
``.perfbench/trace-<workload>.json``.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
a human-readable summary goes to standard error.

Two more modes::

    python3 perfbench/run.py --spread 5 [--workload W]   # steadiness
    python3 perfbench/run.py --record-reference          # seed-0 outputs

``--spread N`` runs each workload N times (seeds 1..N) and prints each
end-to-end metric's median and quartile spread beside its bound in
BENCHMARK.json.  ``--record-reference`` rewrites ``reference.json``,
the per-op output fingerprints that seed 0 must reproduce.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
import ops as opgen  # noqa: E402

#: Set-ups per run: the measuring child's own plus set-up-only children.
SETUP_SAMPLES = 3

#: Wall-clock budget of one run, children included (the contract
#: allows 180 s; the margin covers interpreter start and clean-up).
RUN_BUDGET_S = 170.0

DEFAULT_SECONDS = 20

#: Wrapped layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
TIMED_LAYERS = (
    "machine.build", "machine.run", "machine.restore",
    "coherence.read", "coherence.write", "coherence.writeback",
    "core.store_intent", "core.memory_write", "core.parity_update",
    "core.checkpoint", "core.recover", "core.log_decode",
    "core.parity_rebuild", "network.send", "sim.acquire", "memory.dram",
    "harness.store_get", "harness.store_put", "harness.image_unpickle",
    "serve.submit")


class ChildFailed(RuntimeError):
    """A child process crashed or ran out of time."""


def program_present() -> bool:
    """True when this checkout holds the program's sources."""
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def _kill_tree(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass
    proc.wait()


def run_child(workload: str, seed: int, seconds: float, mode: str,
              work: str, deadline: float,
              extra: Optional[List[str]] = None) -> Dict:
    """Run one child to completion and return its JSON report."""
    out = os.path.join(work, f"{mode}-{time.monotonic_ns()}.json")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--mode", mode,
           "--work", work, "--out", out]
    cmd += extra or []
    env = dict(os.environ, TMPDIR=tmp)
    # Its own session, so a timeout can stop the whole tree (the serve
    # workload's server and its worker included).
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_tree(proc)
        raise ChildFailed(f"{workload} {mode}: out of time") from None
    except BaseException:
        _kill_tree(proc)
        raise
    if code != 0 or not os.path.exists(out):
        raise ChildFailed(f"{workload} {mode}: child exited with {code}")
    with open(out) as handle:
        return json.load(handle)


def tail(samples: List[float]) -> Dict:
    """The highest percentile with at least ten samples beyond it.

    Falls back to the maximum (percentile 100) when fewer than twenty
    samples leave no standard percentile with ten beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1 - pct / 100) >= 10:
            index = min(n - 1, int(pct / 100 * n))
            return {"pct": pct, "value": ordered[index], "count": n}
    return {"pct": 100.0, "value": ordered[-1], "count": n}


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def scaled_ops(workload: str, durations: List[Optional[float]],
               cals: List[float]) -> List[float]:
    """Times of the ops that passed their checks, speed-scaled where
    the workload is (``ops.SPEED_SCALED``)."""
    if not opgen.SPEED_SCALED[workload]:
        return [d for d in durations if d is not None]
    return [hostspeed.scaled(d, c) for d, c in zip(durations, cals)
            if d is not None]


def end_to_end(workload: str, setups: List[float], measure: Dict) -> Dict:
    """End-to-end metrics of one untraced run."""
    ok = scaled_ops(workload, measure["durations"], measure["cals"])
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(ok), "s"),
        "op_ms_p50": metric(statistics.median(ok) * 1e3 if ok else 0.0,
                            "ms"),
        "peak_rss_mb": metric(measure["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(workload: str, report: Dict) -> Dict:
    """Per-layer metrics of one traced run (see README.md's table)."""
    layers = report["layers"]
    sim = report["simulated"]
    refs = report["refs"]

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, Dict] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = metric(calls(layer), "count")
        out[f"{layer}.self_s"] = metric(self_s(layer), "s")
    run_total = layers.get("machine.run", {}).get("total_s", 0.0)
    coherence_calls = sum(calls(f"coherence.{k}")
                          for k in ("read", "write", "writeback"))
    timing = report["serve_timing"]
    done = report["serve_done"]

    def p50(key: str) -> float:
        return (statistics.median(t[key] for t in timing) if timing
                else 0.0)

    plain = scaled_ops(workload, report["plain_durations"],
                       report["plain_cals"])
    op_tail = tail(plain) if plain else {"pct": 0.0, "value": 0.0,
                                         "count": 0}
    out.update({
        "machine.refs": metric(refs, "count"),
        "machine.refs_per_s": metric(ratio(refs, run_total), "1/s"),
        "machine.firsttouch_s": metric(
            report["run_split"]["firsttouch_s"], "s"),
        "machine.steady_s": metric(report["run_split"]["steady_s"], "s"),
        "machine.image_bytes": metric(sim["image_bytes"], "bytes"),
        "cache.l2_miss_rate": metric(
            ratio(sim["l2_misses"], sim["l2_hits"] + sim["l2_misses"]),
            "ratio"),
        "coherence.calls_per_ref": metric(ratio(coherence_calls, refs),
                                          "ratio"),
        "core.checkpoints": metric(sim["checkpoints"], "count"),
        "core.log_bytes": metric(sim["log_bytes"], "bytes"),
        "core.entries_undone": metric(sim["entries_undone"], "count"),
        "network.bytes": metric(sim["network_bytes"], "bytes"),
        "sim.acquire_per_ref": metric(ratio(calls("sim.acquire"), refs),
                                      "ratio"),
        "harness.store_hit_ratio": metric(
            ratio(report["store"]["hits"], report["store"]["gets"]),
            "ratio"),
        "serve.lookup_ms_p50": metric(p50("cache_lookup_ms"), "ms"),
        "serve.queue_ms_p50": metric(p50("queue_wait_ms"), "ms"),
        "serve.execute_ms_p50": metric(p50("execute_ms"), "ms"),
        "serve.hit_ratio": metric(
            ratio(sum(d["cached"] for d in done),
                  sum(d["jobs"] for d in done)), "ratio"),
        "trace.overhead": metric(report["overhead"], "ratio"),
        "trace.coverage": metric(report["coverage"], "ratio"),
        "host.cal_ms": metric(statistics.median(report["cals"]) * 1e3,
                              "ms"),
        "op.tail_ms": metric(op_tail["value"] * 1e3, "ms"),
        "op.tail_pct": metric(op_tail["pct"], "%"),
        "op.count": metric(op_tail["count"], "count"),
    })
    return out


def scaled_setup(workload: str, report: Dict) -> float:
    """A child's set-up time, speed-scaled where the workload is."""
    if not opgen.SPEED_SCALED[workload]:
        return report["setup_s"]
    return hostspeed.scaled(report["setup_s"], report["setup_cal_s"])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict:
    """One benchmark run: the result object the last line prints."""
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    try:
        if trace:
            trace_file = os.path.join(OUT_DIR, f"trace-{workload}.json")
            report = run_child(workload, seed, seconds, "trace", work,
                               deadline, ["--trace-file", trace_file])
            metrics = per_layer(workload, report)
            setup_errors = report["setup_errors"]
        else:
            setups, setup_errors = [], []
            for _ in range(SETUP_SAMPLES - 1):
                sample = run_child(workload, seed, seconds, "setup",
                                   os.path.join(work, "setup"), deadline)
                shutil.rmtree(os.path.join(work, "setup"),
                              ignore_errors=True)
                setups.append(scaled_setup(workload, sample))
                setup_errors += sample["setup_errors"]
            report = run_child(workload, seed, seconds, "measure",
                               os.path.join(work, "measure"), deadline)
            setups.append(scaled_setup(workload, report))
            setup_errors += report["setup_errors"]
            metrics = end_to_end(workload, setups, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    durations = report["durations"]
    failed = sum(1 for d in durations if d is None)
    errors = setup_errors + report["errors"]
    for line in errors[:5]:
        print(f"check failed: {line.strip()}", file=sys.stderr)
    ok = scaled_ops(workload, durations, report["cals"])
    summary = [f"{workload} seed={seed} ops={len(durations)} "
               f"failed={failed}"]
    for name, row in metrics.items():
        summary.append(f"  {name:28s} {row['value']:.6g} {row['unit']}")
    if not trace and ok:
        t = tail(ok)
        raw = [d for d in durations if d is not None]
        summary.append(
            f"  op_ms_p50 over n={len(ok)} ops; p{t['pct']:g} = "
            f"{t['value'] * 1e3:.6g} ms; unscaled p50 "
            f"{statistics.median(raw) * 1e3:.6g} ms at calibration "
            f"{statistics.median(report['cals']) * 1e3:.4g} ms "
            f"(reference {hostspeed.CAL_REF_S * 1e3:g} ms)")
    print("\n".join(summary), file=sys.stderr)
    return {"correct": failed == 0 and not errors,
            "attempted": len(durations), "failed": failed,
            "metrics": metrics}


def bench_config() -> Dict:
    if not os.path.exists(BENCHMARK):
        return {}
    with open(BENCHMARK) as handle:
        return json.load(handle)


def spread_report(workloads: List[str], repeats: int,
                  seconds: float) -> int:
    """Repeat each workload; print every end-to-end metric's spread."""
    bounds = {m["name"]: m["bound"]
              for m in bench_config().get("end_to_end", [])}
    rows = {}
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        for seed in range(1, repeats + 1):
            result = run_workload(workload, seed, seconds, trace=False)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect outputs",
                      file=sys.stderr)
                return 1
            for name, row in result["metrics"].items():
                values.setdefault(name, []).append(row["value"])
        rows[workload] = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            rows[workload][name] = {"median": q2, "q1": q1, "q3": q3,
                                    "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = ("" if bound is None else
                    "  ok" if spread < bound / 3 else
                    "  within bound" if spread <= bound else
                    "  OVER BOUND")
            print(f"{workload:18s} {name:12s} median {q2:10.5g} "
                  f"IQR/median {spread:6.3f} bound {bound}{flag}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "spread.json"), "w") as handle:
        json.dump(rows, handle, indent=1)
    return 0


def record_reference(seconds: float) -> int:
    """Rewrite reference.json from seed-0 runs of every workload."""
    reference = {"seed": 0, "seconds": seconds, "inputs": {},
                 "workloads": {}}
    for workload in opgen.WORKLOADS:
        n_ops = opgen.op_count(workload, seconds)
        reference["inputs"][workload] = opgen.inputs_digest(
            opgen.generate(workload, 0, n_ops))
        work = os.path.join(OUT_DIR, f"record-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        # Recording must not be checked against the file it replaces.
        try:
            report = run_child(workload, 0, seconds, "measure", work,
                               time.monotonic() + RUN_BUDGET_S,
                               ["--no-reference"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if report["errors"] or report["setup_errors"]:
            print(f"{workload}: checks failed, reference not written: "
                  f"{(report['setup_errors'] + report['errors'])[:3]}",
                  file=sys.stderr)
            return 1
        reference["workloads"][workload] = {
            "fingerprints": report["fingerprints"]}
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=opgen.WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="repeat each workload N times and print "
                             "the quartile spread of every metric")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not program_present():
        print("perfbench: no program sources (src/repro) in this "
              "checkout", file=sys.stderr)
        return 2
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        print(f"perfbench: warning: {', '.join(knobs)} set; the "
              f"benchmark measures the default tier with no knobs",
              file=sys.stderr)
    seconds = args.seconds
    if seconds is None:
        seconds = bench_config().get("run_seconds", DEFAULT_SECONDS)
    try:
        if args.record_reference:
            return record_reference(seconds)
        workloads = (list(opgen.WORKLOADS)
                     if args.workload in (None, "all") else [args.workload])
        if args.spread:
            return spread_report(workloads, args.spread, seconds)
        if args.workload is None:
            parser.error("--workload is required")
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace))
                   for w in workloads}
        result = (results if args.workload == "all"
                  else results[args.workload])
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
