#!/usr/bin/env python
"""One-command smoke test: CLI health + a tiny traced run + lint.

Run from the repository root::

    python tools/smoke.py

Steps (documented in docs/OBSERVABILITY.md):

1. ``python -m repro --help`` exits 0.
2. ``python -m repro trace lu`` on a tiny 4-node machine writes a
   JSONL trace whose recomputed recovery breakdown matches the live
   ``RecoveryResult`` (the command itself verifies this and exits
   non-zero on mismatch).
3. The trace passes ``python -m repro trace-lint`` — the full schema
   validation (envelope, categories, names, required fields), a strict
   superset of the quick envelope check also performed here.
4. ``ruff check`` — only when the ruff binary is installed (it is an
   optional dev dependency; the smoke test must not require network
   installs), otherwise the step is reported as skipped.
5. Perf smoke: one quick throughput measurement through
   ``repro.harness.perf`` must clear a very soft floor (a fraction of
   the hard perf-harness floor; see docs/PERFORMANCE.md).  Catches
   "the simulator got 10x slower" mistakes without the full
   ``tools/bench.py`` run.
6. Tier matrix: one small ``lu``/cp_parity run through each execution
   tier (reference loop, scalar fast path) — times, counters, and
   memory contents must be bit-identical (docs/PERFORMANCE.md; the
   exhaustive oracle is ``tests/test_tiers.py``).
7. Profile attribution: ``repro profile lu`` on the tiny machine must
   attribute at least half of ``machine.run``'s wall clock to actors
   (the real gate is 95%; the smoke floor only catches a broken
   attribution path) and its ``prof.*`` trace must pass
   ``repro trace-lint`` (docs/OBSERVABILITY.md).
8. Serve round-trip: start ``repro serve`` on a free port with a
   scratch cache, ``repro submit`` the same tiny run twice, and check
   the first reports a cache miss and the second a cache hit — the
   end-to-end path documented in docs/SERVING.md.
9. Serve telemetry: against a fresh server, ``repro stats`` must
   stream a heartbeat and a metrics snapshot, and ``repro stats
   --prometheus`` must scrape the same registry as Prometheus text
   through ``GET /metrics`` on the service port (docs/SERVING.md).
10. Campaign round-trip: ``repro campaign`` twice against a scratch
    store — the first run must capture the warm image (miss), the
    second must fork from the cached image with identical outcomes,
    and the campaign trace must pass ``repro trace-lint``
    (docs/SNAPSHOTS.md).
11. Determinism diff: ``repro run --digest`` twice — once clean, once
    with ``REPRO_PERTURB_STORE=100`` flipping one reference — then
    ``repro diff --bisect`` must exit 1, name the first divergent
    window and component, and localise a replayed event whose store
    range covers the injected counter (docs/OBSERVABILITY.md,
    "Determinism observatory").

Exits 0 when every executed step passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENVELOPE_KEYS = {"v", "seq", "ts", "cat", "name"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def run(argv, **kwargs):
    return subprocess.run(argv, cwd=REPO_ROOT, env=_env(), **kwargs)


def step_cli_help() -> None:
    proc = run([sys.executable, "-m", "repro", "--help"],
               capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"repro --help failed:\n{proc.stderr}")


def step_traced_run() -> None:
    from repro.obs import SCHEMA_VERSION, read_trace

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "smoke.jsonl")
        proc = run([sys.executable, "-m", "repro", "trace", "lu",
                    "--out", trace_path, "--profile"],
                   capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit("repro trace failed:\n"
                             f"{proc.stdout}\n{proc.stderr}")
        events = read_trace(trace_path)
        if not events:
            raise SystemExit("trace is empty")
        for event in events:
            missing = ENVELOPE_KEYS - event.keys()
            if missing:
                raise SystemExit(
                    f"event missing envelope keys {missing}: "
                    f"{json.dumps(event)}")
            if event["v"] != SCHEMA_VERSION:
                raise SystemExit(f"unexpected schema version: {event}")
        lint = run([sys.executable, "-m", "repro", "trace-lint",
                    trace_path], capture_output=True, text=True)
        if lint.returncode != 0:
            raise SystemExit("repro trace-lint failed on the smoke "
                             f"trace:\n{lint.stdout}\n{lint.stderr}")
        print(f"  traced run: {len(events)} schema-v{SCHEMA_VERSION} "
              f"events, trace-lint clean")


def step_lint() -> bool:
    if shutil.which("ruff") is None:
        return False
    proc = run(["ruff", "check", "src", "tests", "tools"],
               capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ruff check failed:\n{proc.stdout}")
    return True


def step_perf_smoke() -> None:
    from repro.harness.perf import measure_exhibit

    exhibit = measure_exhibit("baseline", scale=0.05, rounds=1)
    rate = exhibit["refs_per_sec"]
    # Deliberately far below the perf harness's floor: this is a
    # did-it-fall-off-a-cliff check, not a benchmark.
    if rate < 20_000:
        raise SystemExit(
            f"perf smoke: {rate:,.0f} refs/s is catastrophically slow; "
            f"run python tools/bench.py to investigate")
    print(f"  perf smoke: {rate:,.0f} refs/s "
          f"({exhibit['refs']} refs in {exhibit['wall_seconds_best']:.2f}s)")


def step_tier_matrix() -> None:
    from repro.harness.runner import build_machine, tiny_revive_overrides
    from repro.machine.config import MachineConfig
    from repro.workloads.registry import get_workload

    fingerprints = {}
    for tier in ("reference", "scalar"):
        machine = build_machine("cp_parity", MachineConfig.tiny(4),
                                50_000, **tiny_revive_overrides(4))
        machine.attach_workload(get_workload("lu", scale=0.02,
                                             n_procs=4))
        for proc in machine.processors:
            proc.fastpath = tier == "scalar"
        machine.run()
        fingerprints[tier] = (
            machine.simulator.now,
            machine.total_mem_refs(),
            [p.time for p in machine.processors],
            [(n.hierarchy.l1.hits, n.hierarchy.l1.misses,
              n.hierarchy.l2.hits, n.hierarchy.l2.misses)
             for n in machine.nodes],
            [dict(n.memory.lines()) for n in machine.nodes],
        )
    if fingerprints["scalar"] != fingerprints["reference"]:
        raise SystemExit(
            "tier matrix: the scalar tier diverged from the reference "
            "loop on lu/cp_parity -- run pytest tests/test_tiers.py "
            "to localize")
    print("  tier matrix: reference == scalar "
          "(lu/cp_parity, "
          f"{fingerprints['reference'][1]:,} refs)")


def step_profile() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "profile.jsonl")
        proc = run([sys.executable, "-m", "repro", "profile", "lu",
                    "--nodes", "4", "--scale", "0.05",
                    "--interval-us", "50", "--min-coverage", "0.5",
                    "--trace", trace_path],
                   capture_output=True, text=True, timeout=180)
        if proc.returncode != 0 or "attribution:" not in proc.stdout:
            raise SystemExit("repro profile failed (or attribution fell "
                             "below the smoke floor):\n"
                             f"{proc.stdout}\n{proc.stderr}")
        lint = run([sys.executable, "-m", "repro", "trace-lint",
                    trace_path], capture_output=True, text=True)
        if lint.returncode != 0:
            raise SystemExit("repro trace-lint failed on the profile "
                             f"trace:\n{lint.stdout}\n{lint.stderr}")
        attribution = next(line for line in proc.stdout.splitlines()
                           if line.startswith("attribution:"))
        print(f"  {attribution}; prof trace lint clean")


def _spawn_server(cache_dir: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--workers", "1", "--cache-dir", cache_dir],
        cwd=REPO_ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)


def _server_port(server: subprocess.Popen) -> str:
    banner = server.stdout.readline().strip()
    # "serving on HOST:PORT (cache: ..., workers: N)"
    if "serving on" not in banner:
        raise SystemExit(f"repro serve printed no banner: {banner!r}")
    return banner.split()[2].rsplit(":", 1)[1]


def step_serve_round_trip() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        server = _spawn_server(os.path.join(tmp, "cache"))
        try:
            port = _server_port(server)
            submit = [sys.executable, "-m", "repro", "submit", "lu",
                      "--nodes", "4", "--scale", "0.05",
                      "--interval-us", "50", "--port", port]
            first = run(submit, capture_output=True, text=True,
                        timeout=180)
            if first.returncode != 0 or "cache miss" not in first.stdout:
                raise SystemExit("first submit should simulate (cache "
                                 f"miss):\n{first.stdout}\n{first.stderr}")
            second = run(submit, capture_output=True, text=True,
                         timeout=60)
            if second.returncode != 0 or "cache hit" not in second.stdout:
                raise SystemExit("second submit should be served from "
                                 "the cache (cache hit):\n"
                                 f"{second.stdout}\n{second.stderr}")
            print(f"  serve round-trip on port {port}: "
                  f"miss -> simulate -> hit")
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()


def step_serve_telemetry() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        server = _spawn_server(os.path.join(tmp, "cache"))
        try:
            port = _server_port(server)
            stats = [sys.executable, "-m", "repro", "stats",
                     "--port", port]
            first = run(stats, capture_output=True, text=True,
                        timeout=60)
            if first.returncode != 0 or "beat 1:" not in first.stdout:
                raise SystemExit("repro stats streamed no heartbeat:\n"
                                 f"{first.stdout}\n{first.stderr}")
            prom = run(stats + ["--prometheus"], capture_output=True,
                       text=True, timeout=60)
            # The stats request above bumped its own request counter,
            # so the scrape must expose it in Prometheus text form.
            wanted = "# TYPE repro_svc_requests_stats counter"
            if prom.returncode != 0 or wanted not in prom.stdout:
                raise SystemExit("GET /metrics did not expose the "
                                 "request counters:\n"
                                 f"{prom.stdout}\n{prom.stderr}")
            print(f"  serve telemetry on port {port}: heartbeat + "
                  f"snapshot streamed, /metrics scrape clean")
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()


def step_determinism_diff() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digest_a = os.path.join(tmp, "a.json")
        digest_b = os.path.join(tmp, "b.json")
        argv = [sys.executable, "-m", "repro", "run", "lu",
                "--nodes", "4", "--scale", "0.05", "--interval-us", "50"]
        clean = run(argv + ["--digest", digest_a],
                    capture_output=True, text=True, timeout=180)
        if clean.returncode != 0:
            raise SystemExit("repro run --digest failed:\n"
                             f"{clean.stdout}\n{clean.stderr}")
        env = _env()
        env["REPRO_PERTURB_STORE"] = "100"
        perturbed = subprocess.run(
            argv + ["--digest", digest_b], cwd=REPO_ROOT, env=env,
            capture_output=True, text=True, timeout=180)
        if perturbed.returncode != 0:
            raise SystemExit("perturbed repro run --digest failed:\n"
                             f"{perturbed.stdout}\n{perturbed.stderr}")
        same = run([sys.executable, "-m", "repro", "diff",
                    digest_a, digest_a], capture_output=True, text=True)
        if same.returncode != 0 or "identical" not in same.stdout:
            raise SystemExit("repro diff of a run against itself should "
                             f"be identical:\n{same.stdout}\n{same.stderr}")
        diff = run([sys.executable, "-m", "repro", "diff",
                    digest_a, digest_b, "--bisect"],
                   capture_output=True, text=True, timeout=180)
        # The perturbed run flips store #100, so the bisection must
        # exit 1, name the divergent window, and localise an event
        # whose store range covers the injected counter.
        if diff.returncode != 1:
            raise SystemExit("repro diff should exit 1 on divergent "
                             f"runs:\n{diff.stdout}\n{diff.stderr}")
        lines = diff.stdout.splitlines()
        window_line = next((ln for ln in lines
                            if ln.startswith("divergent: first at window")),
                           None)
        event_line = next((ln for ln in lines
                           if ln.startswith("bisect: first divergent "
                                            "event")), None)
        if window_line is None or event_line is None:
            raise SystemExit("repro diff --bisect did not localise the "
                             f"divergence:\n{diff.stdout}\n{diff.stderr}")
        lo, hi = (int(part.strip("(]"))
                  for part in event_line.rsplit("stores ", 1)[1]
                  .split(", "))
        if not lo < 100 <= hi:
            raise SystemExit("bisection store range should cover the "
                             f"injected store #100: {event_line}")
        print(f"  determinism diff: {window_line.split(': ', 1)[1]}; "
              f"{event_line.split(': ', 1)[1]}")


def step_campaign_round_trip() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "campaign.jsonl")
        argv = [sys.executable, "-m", "repro", "campaign", "fft",
                "--nodes", "4", "--scale", "0.05", "--interval-us", "50",
                "--warm", "2", "--lost-nodes", "1",
                "--detect-fractions", "0.2,0.8", "--serial",
                "--cache-dir", os.path.join(tmp, "store")]
        first = run(argv + ["--trace", trace_path],
                    capture_output=True, text=True, timeout=180)
        if first.returncode != 0 or "(captured)" not in first.stdout:
            raise SystemExit("first campaign should capture the warm "
                             f"image:\n{first.stdout}\n{first.stderr}")
        second = run(argv, capture_output=True, text=True, timeout=180)
        if second.returncode != 0 or "(cached)" not in second.stdout:
            raise SystemExit("second campaign should fork from the "
                             "cached warm image:\n"
                             f"{second.stdout}\n{second.stderr}")

        def outcomes(stdout):
            return [line for line in stdout.splitlines()
                    if line and line.lstrip()[0].isdigit()]

        if outcomes(first.stdout) != outcomes(second.stdout):
            raise SystemExit("forked campaign outcomes diverged from "
                             f"the capturing run:\n{first.stdout}\n"
                             f"{second.stdout}")
        lint = run([sys.executable, "-m", "repro", "trace-lint",
                    trace_path], capture_output=True, text=True)
        if lint.returncode != 0:
            raise SystemExit("repro trace-lint failed on the campaign "
                             f"trace:\n{lint.stdout}\n{lint.stderr}")
        print("  campaign round-trip: capture -> fork (cached), "
              "identical outcomes, trace-lint clean")


def main() -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    print("[1/10] repro --help")
    step_cli_help()
    print("[2/10] traced node-loss recovery (repro trace lu)")
    step_traced_run()
    print("[3/10] ruff check")
    if step_lint():
        print("  lint clean")
    else:
        print("  ruff not installed -- skipped (optional dev dependency)")
    print("[4/10] perf smoke")
    step_perf_smoke()
    print("[5/10] execution-tier matrix (reference/scalar)")
    step_tier_matrix()
    print("[6/10] host-time attribution (repro profile lu)")
    step_profile()
    print("[7/10] repro serve round-trip (cache miss -> hit)")
    step_serve_round_trip()
    print("[8/10] repro serve telemetry (stats + GET /metrics)")
    step_serve_telemetry()
    print("[9/10] repro campaign round-trip (capture -> fork)")
    step_campaign_round_trip()
    print("[10/10] determinism diff (repro run --digest + repro diff)")
    step_determinism_diff()
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
