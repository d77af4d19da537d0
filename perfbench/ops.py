"""Seeded op generator for the benchmark's four workloads.

Every timed op of a run comes from :func:`generate`, seeded by the
``--seed`` argument.  An op is a plain dict with two parts:

* ``"program"`` -- the only part the simulator ever sees: a
  ``SyntheticSpec`` field dict plus a variant (machine ops), a fault
  scenario plus the campaign configuration (campaign ops), or a
  ``repro serve`` request (serve ops);
* ``"population"`` -- the op's variant and size class, which the
  benchmark (never the program) uses to prove that one workload's op
  times come from a single population.

Nothing that names a workload, a seed or the benchmark reaches the
program: specs are all called ``synthetic`` and draw their own PRNG
seed from the generator.  This module imports nothing from ``repro``,
so the generator can be tested without the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List

WORKLOADS = ("errfree-hits", "errfree-writes", "campaign-recovery",
             "serve-hits")

#: Host seconds one op takes on the reference host (2-vCPU VM),
#: counting its untimed ``gc.collect()`` and output check.  A run's op
#: count is ``--seconds`` divided by this, so the op list is a pure
#: function of (workload, seed, seconds) -- never of a time budget.
NOMINAL_OP_S = {
    "errfree-hits": 0.32,
    "errfree-writes": 0.65,
    "campaign-recovery": 0.75,
    "serve-hits": 0.03,
}

#: Whether a workload's host times are scaled by the calibration loop
#: (``hostspeed.py``).  Simulation ops are CPU-bound and follow the
#: host's speed phases; a serve op is mostly socket and file latency,
#: which did not follow the loop (scaled, its median spread more).
SPEED_SCALED = {
    "errfree-hits": True,
    "errfree-writes": True,
    "campaign-recovery": True,
    "serve-hits": False,
}

#: Fewest timed ops per run, so every median has at least ten samples.
MIN_OPS = 10

#: The neutral name every generated spec carries.
SPEC_NAME = "synthetic"

#: Campaign configuration shared by every campaign op (the warm image
#: key depends only on this, so the store is filled once in set-up).
CAMPAIGN = {"app": "fft", "variant": "cp_parity", "scale": 0.1,
            "interval_ns": 20_000, "warm_checkpoints": 2,
            "log_bytes_per_node": 256 * 1024, "n_nodes": 16}

#: Apps a serve request may name -- those that fit the 4-node machine
#: and simulate in about the same time, so filling the store costs the
#: same on every seed -- and the fixed request shape.
SERVE_APPS = ("barnes", "lu", "water-n2", "water-sp")
SERVE_POOL = 3
SERVE_REQUEST = {"op": "run", "variant": "cp_parity", "nodes": 4,
                 "scale": 0.01, "interval_us": 50.0}


def op_count(workload: str, seconds: float) -> int:
    """Timed ops in a run of ``seconds`` (a fixed list, no budget)."""
    return max(MIN_OPS, int(round(seconds / NOMINAL_OP_S[workload])))


def trace_op_count(n_ops: int) -> int:
    """Ops in each pass of a traced run: a fixed prefix of the list."""
    return max(2, n_ops // 4)


def _footprint_class(lines: int) -> int:
    return int(math.log2(lines))


def _hits_op(rng: random.Random) -> Dict:
    spec = {
        "name": SPEC_NAME, "n_procs": 16, "refs_per_proc": 5_000,
        "phases": 6,
        "hot_lines": rng.randint(128, 160),
        "stream_lines": 0, "stream_fraction": 0.0,
        "shared_lines": 64,
        "shared_fraction": round(rng.uniform(0.01, 0.03), 4),
        "sharing": rng.choice(("producer", "neighbor", "migratory")),
        "hot_shared_lines": 8,
        "hot_shared_fraction": 0.001,
        "hot_shared_write_fraction": 0.01,
        "write_fraction": round(rng.uniform(0.25, 0.35), 4),
        "shared_write_fraction": round(rng.uniform(0.05, 0.3), 4),
        "burst_every": rng.choice((0, 48)), "burst_ns": 150,
        "seed": rng.randrange(1 << 31),
    }
    return {"kind": "machine",
            "program": {"variant": "baseline", "interval_ns": 250_000,
                        "revive": {}, "spec": spec}}


def _writes_op(rng: random.Random) -> Dict:
    spec = {
        "name": SPEC_NAME, "n_procs": 4, "refs_per_proc": 2_000,
        "phases": 6,
        "hot_lines": 64,
        "stream_lines": rng.randint(384, 448), "stream_mode": "random",
        "stream_fraction": round(rng.uniform(0.04, 0.06), 4),
        "shared_lines": 256,
        "shared_fraction": 0.05,
        "sharing": "neighbor",
        "hot_shared_lines": 8,
        "hot_shared_fraction": 0.001,
        "hot_shared_write_fraction": 0.02,
        "write_fraction": round(rng.uniform(0.4, 0.5), 4),
        "shared_write_fraction": round(rng.uniform(0.3, 0.4), 4),
        "seed": rng.randrange(1 << 31),
    }
    # A 256 KB log region holds several 15 us epochs of this footprint
    # and keeps the per-op parity check of the log pages cheap.
    return {"kind": "machine",
            "program": {"variant": "cp_parity", "interval_ns": 15_000,
                        "revive": {"log_bytes_per_node": 256 * 1024},
                        "spec": spec}}


def _campaign_op(rng: random.Random) -> Dict:
    scenario = {"lost_node": rng.randrange(CAMPAIGN["n_nodes"]),
                # Recovery time grows with the detection latency (more
                # log to undo), so a narrow band keeps one size class.
                "detect_fraction": round(rng.uniform(0.45, 0.55), 3)}
    config = {k: v for k, v in CAMPAIGN.items() if k != "n_nodes"}
    return {"kind": "campaign",
            "program": {"campaign": config, "scenario": scenario}}


def _serve_pool(rng: random.Random) -> List[Dict]:
    apps = rng.sample(SERVE_APPS, SERVE_POOL)
    return [dict(SERVE_REQUEST, app=app) for app in apps]


def population(op: Dict) -> Dict:
    """The (variant, size class) pair an op's host time belongs to."""
    program = op["program"]
    if op["kind"] == "machine":
        spec = program["spec"]
        per_proc = (spec["hot_lines"] + spec.get("stream_lines", 0)
                    + spec["shared_lines"] // spec["n_procs"])
        size = [spec["n_procs"], spec["refs_per_proc"], spec["phases"],
                _footprint_class(per_proc), program["interval_ns"],
                program["revive"]]
        return {"variant": program["variant"], "size": size}
    if op["kind"] == "campaign":
        config = program["campaign"]
        return {"variant": config["variant"],
                "size": [config["app"], config["scale"],
                         config["interval_ns"],
                         config["warm_checkpoints"],
                         config["log_bytes_per_node"],
                         "node-loss" if program["scenario"]["lost_node"]
                         is not None else "transient"]}
    request = program["request"]
    return {"variant": request["variant"],
            "size": [request["op"], request["nodes"], request["scale"],
                     request["interval_us"]]}


def generate(workload: str, seed: int, n_ops: int) -> Dict:
    """The inputs of one run: ``{"ops": [...], "fill": [...]}``.

    ``ops`` is the fixed timed list; op ``i`` depends only on
    ``(workload, seed, i)``, so a longer run extends a shorter one.
    ``fill`` holds the serve requests the store is filled with in
    set-up (empty for the other workloads).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    if n_ops < 1:
        raise ValueError("n_ops must be positive")
    rng = random.Random(f"{workload}/{seed}")
    fill: List[Dict] = []
    if workload == "serve-hits":
        fill = _serve_pool(rng)
        ops = [{"kind": "request",
                "program": {"request": dict(rng.choice(fill))}}
               for _ in range(n_ops)]
    else:
        make = {"errfree-hits": _hits_op, "errfree-writes": _writes_op,
                "campaign-recovery": _campaign_op}[workload]
        ops = [make(rng) for _ in range(n_ops)]
    for op in ops:
        op["population"] = population(op)
    return {"ops": ops, "fill": fill}


def inputs_digest(inputs: Dict) -> str:
    """sha256 of the canonical JSON of a run's inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_single_population(ops: List[Dict]) -> None:
    """Raise if ``ops`` mix variants or size classes.

    A run whose ops form several populations has a median that can
    fall in the gap between them and move from run to run.
    """
    seen = {json.dumps(op["population"], sort_keys=True) for op in ops}
    if len(seen) != 1:
        raise ValueError(f"ops come from {len(seen)} populations: "
                         f"{sorted(seen)}")
