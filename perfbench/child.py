"""One benchmark workload, run in its own process by ``run.py``.

Usage (``run.py`` builds this command line; it is not meant for
people)::

    python3 perfbench/child.py --workload W --seed N --seconds S \
        --mode {setup,measure,trace} --work DIR --out FILE

``setup`` imports the program, generates the inputs, fills the store
or warm image, runs one untimed warm-up op, and reports how long that
took.  ``measure`` then runs the fixed timed op list with tracing off.
``trace`` runs a prefix of the list twice -- untraced, then with the
layer wrappers of ``layers.py`` -- and reports per-layer totals.

Every op's outputs are checked after its timed interval; a failed check
makes the op a failed op, and its time is not reported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
import ops as opgen  # noqa: E402  (the benchmark's own generator)
from layers import SPAN_CAP, LayerTracer  # noqa: E402


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if not origin.startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {origin}, not {SRC}")


def fingerprint(record: Dict) -> str:
    """sha256 of an op's checked outputs (canonical JSON)."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pids(pid: int) -> List[int]:
    """``pid`` and all its live descendants (Linux /proc)."""
    found = [pid]
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children = [int(c) for c in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.extend(tree_pids(child))
    return found


# ---------------------------------------------------------------------------
# Workloads: set-up, one op, and the op's output check
# ---------------------------------------------------------------------------

class Ops:
    """A workload kind: set-up, one op, the op's check, clean-up.

    ``close`` returns the peak resident KiB of any helper processes.
    """

    #: Whether checks fingerprint the final machine state with
    #: ``digest_components`` -- needed only when fingerprints are
    #: compared (the reference seed, traced against untraced outputs).
    digests = True

    def setup(self, inputs: Dict) -> None:
        pass

    def close(self) -> List[int]:
        return []


class MachineOps(Ops):
    """``build_machine`` / ``attach_workload`` / ``run`` /
    ``collect_result`` on one generated spec per op."""

    def __init__(self, work: str) -> None:
        from repro.harness import runner
        from repro.machine.digest import digest_components
        from repro.workloads.synthetic import (
            SyntheticSpec,
            SyntheticWorkload,
        )

        self.runner = runner
        self.digest_components = digest_components
        self.spec_cls = SyntheticSpec
        self.workload_cls = SyntheticWorkload

    def run(self, program: Dict):
        spec = self.spec_cls(**program["spec"])
        machine = self.runner.build_machine(
            program["variant"], interval_ns=program["interval_ns"],
            **program["revive"])
        machine.attach_workload(self.workload_cls(spec))
        machine.run()
        return machine, self.runner.collect_result(
            machine, spec.name, program["variant"])

    def steady_refs(self, program: Dict) -> int:
        """References the streams generate after the warm-up marker."""
        workload = self.workload_cls(self.spec_cls(**program["spec"]))
        total = 0
        for proc in range(workload.n_procs):
            steady = False
            for chunk in workload.stream_for(proc):
                if chunk[0] == "warmup_done":
                    steady = True
                elif chunk[0] == "ops" and steady:
                    total += len(chunk[2])
        return total

    def check(self, program: Dict, out) -> Tuple[List[str], Dict]:
        machine, result = out
        errors = []
        expected = self.steady_refs(program)
        if result.total_refs != expected:
            errors.append(f"simulated {result.total_refs} steady refs, "
                          f"streams generated {expected}")
        if not machine.all_finished:
            errors.append("run ended before every processor finished")
        errors.extend(machine.check_invariants()[:3])
        record = {
            "execution_time_ns": result.execution_time_ns,
            "total_refs": result.total_refs,
            "l2_miss_rate": result.l2_miss_rate,
            "network_traffic": result.network_traffic,
            "memory_traffic": result.memory_traffic,
            "checkpoints": result.checkpoints,
            "max_log_bytes": result.max_log_bytes,
            "counters": result.counters,
        }
        if self.digests:
            record["digest"] = self.digest_components(machine)
        return errors, record


class CampaignOps(Ops):
    """``run_campaign`` over one node-loss scenario per op, forked from
    the warm image that set-up stores."""

    def __init__(self, work: str) -> None:
        from repro.core.recovery import RecoveryManager
        from repro.harness.campaign import run_campaign
        from repro.machine.digest import digest_components

        self.run_campaign = run_campaign
        self.digest_components = digest_components
        self.store = os.path.join(work, "store")
        self.recovered: List[Tuple[object, object]] = []
        # The campaign builds its scenario machine internally; this
        # observer keeps a reference to it so the recovered memory can
        # be checked after the op.  One extra call per op.
        recover = RecoveryManager.__dict__["recover"]
        recovered = self.recovered

        def observed_recover(manager, *args, **kwargs):
            result = recover(manager, *args, **kwargs)
            recovered.append((manager.machine, result))
            return result
        RecoveryManager.recover = observed_recover

    def setup(self, inputs: Dict) -> None:
        # Store miss: warms the machine and stores the image.
        self.run(inputs["ops"][0]["program"])
        self.recovered.clear()

    def run(self, program: Dict):
        config = dict(program["campaign"])
        scenario = program["scenario"]
        campaign = self.run_campaign(
            config.pop("app"), config.pop("variant"),
            warm_checkpoints=config.pop("warm_checkpoints"),
            lost_nodes=[scenario["lost_node"]],
            detect_fractions=[scenario["detect_fraction"]],
            scale=config.pop("scale"),
            interval_ns=config.pop("interval_ns"),
            cache_dir=self.store, serial=True, debug_snapshots=True,
            **config)
        recovered = self.recovered.pop() if self.recovered else None
        self.recovered.clear()
        return campaign, recovered

    def check(self, program: Dict, out) -> Tuple[List[str], Dict]:
        campaign, recovered = out
        errors = []
        if not all(image["cached"] for image in campaign.images):
            errors.append("warm image was not served from the store")
        if len(campaign.outcomes) != 1 or recovered is None:
            return errors + ["expected exactly one recovered scenario"], {}
        machine, result = recovered
        mismatched = machine.verify_against_snapshot(result.target_epoch)
        if mismatched:
            errors.append(f"{len(mismatched)} lines differ from the "
                          f"golden image of epoch {result.target_epoch}")
        broken = machine.revive.parity.check_all_parity()
        if broken:
            errors.append(f"{len(broken)} parity stripes inconsistent")
        record = {"outcome": campaign.outcomes[0],
                  "image_bytes": campaign.image_bytes}
        if self.digests:
            record["digest"] = self.digest_components(machine)
        return errors, record


class ServeOps(Ops):
    """Closed-loop ``repro serve`` client: one request at a time, every
    request a store hit."""

    def __init__(self, work: str) -> None:
        from repro.serve import client

        self.client = client
        self.work = work
        self.store = os.path.join(work, "serve-store")
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.first: Dict[str, Dict] = {}

    def start_server(self, trace_out: Optional[str] = None) -> None:
        banner = os.path.join(self.work, "serve-banner.txt")
        if os.path.exists(banner):
            os.remove(banner)
        cmd = [sys.executable, os.path.join(HERE, "server.py"),
               trace_out or "-", "serve", "--host", "127.0.0.1",
               "--port", "0", "--workers", "1", "--cache-dir", self.store]
        with open(banner, "w") as out:
            self.server = subprocess.Popen(cmd, stdout=out,
                                           stderr=sys.stderr)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(banner) as handle:
                text = handle.read()
            if "serving on" in text:
                address = text.split("serving on", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        self.stop_server()
        raise RuntimeError("repro serve did not start")

    def stop_server(self) -> int:
        """SIGINT the server, wait for it; returns its tree's peak KiB."""
        server, self.server = self.server, None
        if server is None:
            return 0
        pids = tree_pids(server.pid)
        kb = sum(peak_rss_kb(pid) for pid in pids)
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=30)
        for pid in pids[1:]:  # a pool worker the server left behind
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"multiprocessing" in handle.read():
                        os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return kb

    @staticmethod
    def key(request: Dict) -> str:
        return json.dumps(request, sort_keys=True)

    def setup(self, inputs: Dict) -> None:
        self.start_server()
        for request in inputs["fill"]:
            events = list(self.client.submit(request, port=self.port))
            result = [e for e in events if e.get("name") == "svc.result"]
            if not result or events[-1].get("name") != "svc.done":
                raise RuntimeError(f"fill request failed: {events[-1]}")
            self.first[self.key(request)] = result[0]["result"]

    def run(self, program: Dict):
        return list(self.client.submit(program["request"], port=self.port))

    def check(self, program: Dict, out) -> Tuple[List[str], Dict]:
        errors = []
        done = [e for e in out if e.get("name") == "svc.done"]
        results = [e for e in out if e.get("name") == "svc.result"]
        if not done or len(results) != 1:
            return [f"request did not complete: {out[-1:]}"], {}
        if not results[0]["cached"]:
            errors.append("request missed the result store")
        payload = results[0]["result"]
        if payload != self.first.get(self.key(program["request"])):
            errors.append("served payload differs from the first answer")
        return errors, {"result": payload}

    def close(self) -> List[int]:
        return [self.stop_server()]


KINDS = {"errfree-hits": MachineOps, "errfree-writes": MachineOps,
         "campaign-recovery": CampaignOps, "serve-hits": ServeOps}


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------

def load_reference(workload: str, seed: int) -> List[str]:
    """Recorded per-op fingerprints for the reference seed, else []."""
    if seed != REFERENCE_SEED:
        return []
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    return reference["workloads"].get(workload, {}).get("fingerprints", [])


def run_pass(ops_obj, ops: List[Dict], reference: List[str],
             tracer: Optional[LayerTracer] = None,
             on_checked=None) -> Dict:
    """Run ``ops`` once; time each op, then check it untimed.

    Each op is preceded by a host-speed calibration (``hostspeed.py``),
    reported beside its time.  With a ``tracer``, the wrappers come
    off for the check (it is not part of any layer) and
    ``on_checked(machines, record)`` sees the op's machines and checked
    outputs.
    """
    durations: List[Optional[float]] = []
    cals: List[float] = []
    prints: List[Optional[str]] = []
    errors: List[str] = []
    serve = isinstance(ops_obj, ServeOps)
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        gc.collect()
        cals.append(hostspeed.calibrate())
        elapsed, record = None, None
        try:
            start = perf_counter()
            out = ops_obj.run(op["program"])
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            try:
                problems, record = ops_obj.check(op["program"], out)
                if on_checked is not None:
                    on_checked(tracer.machines, record)
            finally:
                if tracer is not None:
                    tracer.install(serve_client=serve)
            del out
        except Exception:  # noqa: BLE001 -- a crashing op is a failed op
            problems = [traceback.format_exc(limit=3)]
        print_ = fingerprint(record) if record else None
        if not problems and index < len(reference) \
                and reference[index] != print_:
            problems = ["outputs differ from the recorded reference"]
        if problems:
            errors.append(f"op {index}: {problems[0]}")
            elapsed = None
        durations.append(elapsed)
        prints.append(print_)
    return {"durations": durations, "cals": cals, "fingerprints": prints,
            "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=opgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the recorded-reference comparison "
                             "(used while recording it)")
    args = parser.parse_args(argv)

    # One CPU for the whole workload tree (the serve workload's server
    # inherits it): the calibration before each op then measures the
    # CPU the op runs on, and no op migrates between CPUs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Host speed around set-up: three samples before, three after.
    # Set-up time starts after the first three, before the import.
    setup_cals = [hostspeed.calibrate() for _ in range(3)]
    setup_start = perf_counter()
    import_program()
    n_ops = opgen.op_count(args.workload, args.seconds)
    inputs = opgen.generate(args.workload, args.seed, n_ops)
    opgen.check_single_population(inputs["ops"])
    ops_obj = KINDS[args.workload](args.work)
    ops_obj.digests = (args.seed == REFERENCE_SEED
                       or args.mode == "trace")
    reference = ([] if args.no_reference
                 else load_reference(args.workload, args.seed))
    report: Dict = {"workload": args.workload, "seed": args.seed,
                    "mode": args.mode}
    extra_kb: List[int] = []
    try:
        ops_obj.setup(inputs)
        warm = run_pass(ops_obj, inputs["ops"][:1], reference)
        report["setup_s"] = perf_counter() - setup_start
        setup_cals.extend(hostspeed.calibrate() for _ in range(3))
        report["setup_cal_s"] = statistics.median(setup_cals)
        report["setup_errors"] = warm["errors"]
        if args.mode == "measure":
            timed = run_pass(ops_obj, inputs["ops"], reference)
            report.update(timed)
        elif args.mode == "trace":
            report.update(trace_passes(args, ops_obj, inputs, reference))
    finally:
        extra_kb = ops_obj.close()
    report["peak_rss_kb"] = peak_rss_kb(os.getpid()) + sum(extra_kb)
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


def simulated_totals():
    """A dict of simulated per-layer totals and the callback filling it."""
    totals = {"checkpoints": 0, "log_bytes": 0, "network_bytes": 0,
              "l2_hits": 0, "l2_misses": 0, "entries_undone": 0,
              "image_bytes": 0}

    def on_checked(machines, record: Dict) -> None:
        for machine in machines:
            for node in machine.nodes:
                totals["l2_hits"] += node.hierarchy.l2.hits
                totals["l2_misses"] += node.hierarchy.l2.misses
            totals["network_bytes"] += sum(
                machine.stats.network_traffic.as_dict().values())
            totals["log_bytes"] += \
                machine.stats.memory_traffic.as_dict().get("LOG", 0)
            if machine.checkpointing is not None:
                totals["checkpoints"] += \
                    machine.checkpointing.checkpoints_committed
        if "outcome" in record:
            totals["entries_undone"] += record["outcome"]["entries_undone"]
            totals["image_bytes"] = max(totals["image_bytes"],
                                        record["image_bytes"])
    return totals, on_checked


def trace_passes(args, ops_obj, inputs: Dict,
                 reference: List[str]) -> Dict:
    """Untraced then traced pass over the same op prefix."""
    ops = inputs["ops"][:opgen.trace_op_count(len(inputs["ops"]))]
    plain = run_pass(ops_obj, ops, reference)
    tracer = LayerTracer()
    serve = isinstance(ops_obj, ServeOps)
    server_trace = None
    if serve:
        # The traced pass talks to a server that carries the wrappers.
        ops_obj.stop_server()
        server_trace = os.path.join(args.work, "server-layers.json")
        ops_obj.start_server(trace_out=server_trace)
    simulated, on_checked = simulated_totals()
    origin = perf_counter()
    tracer.install(serve_client=serve)
    try:
        traced = run_pass(ops_obj, ops, reference, tracer, on_checked)
    finally:
        tracer.uninstall()
    server = None
    if serve:
        ops_obj.stop_server()
        with open(server_trace) as handle:
            server = json.load(handle)
    errors = plain["errors"] + traced["errors"]
    for index, (a, b) in enumerate(zip(plain["fingerprints"],
                                       traced["fingerprints"])):
        if a != b:
            errors.append(f"op {index}: traced outputs differ from "
                          f"untraced outputs")
            traced["durations"][index] = None
    # Overhead compares speed-scaled walls where the workload is scaled
    # (the two passes may meet different host phases); coverage
    # compares raw times of one pass.
    scale = opgen.SPEED_SCALED[args.workload]
    scaled_walls = [sum(hostspeed.scaled(d, c) if scale else d
                        for d, c in zip(p["durations"], p["cals"])
                        if d is not None)
                    for p in (plain, traced)]
    traced_raw = [d for d in traced["durations"] if d is not None]
    covered = sum(tracer.covered.get(i, 0.0)
                  for i, d in enumerate(traced["durations"]) if d is not None)
    events = tracer.chrome_events(os.getpid(), origin)
    totals = tracer.totals()
    if server is not None:
        for name, row in server["totals"].items():
            mine = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "total_s": 0.0})
            for field in mine:
                mine[field] += row[field]
        events += [dict(e, ts=round(e["ts"] - origin * 1e6, 3))
                   for e in server["events"]]
    if args.trace_file:
        from layers import write_chrome_trace

        write_chrome_trace(args.trace_file, events, {
            "workload": args.workload, "seed": args.seed,
            "ops": len(ops), "spans_kept": len(events),
            "span_cap": SPAN_CAP})
    return {
        "durations": traced["durations"],
        "cals": traced["cals"],
        "plain_durations": plain["durations"],
        "plain_cals": plain["cals"],
        "fingerprints": traced["fingerprints"],
        "errors": errors,
        "overhead": (scaled_walls[1] / scaled_walls[0]
                     if scaled_walls[0] else 0.0),
        "coverage": covered / sum(traced_raw) if traced_raw else 0.0,
        "layers": totals,
        "simulated": simulated,
        "run_split": tracer.run_split,
        "refs": tracer.refs,
        "store": {"gets": tracer.store_gets
                  + (server["store_gets"] if server else 0),
                  "hits": tracer.store_hits
                  + (server["store_hits"] if server else 0)},
        "serve_timing": tracer.serve_timing,
        "serve_done": tracer.serve_done,
    }


if __name__ == "__main__":
    sys.exit(main())
