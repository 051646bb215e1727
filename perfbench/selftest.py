"""Self-test of the benchmark harness (kept out of the tier-1 suite).

    python3 perfbench/selftest.py

1. Tiny runs of every workload, untraced and traced, emit every metric
   BENCHMARK.json names, with its unit, and pass their output checks.
2. A config with ``kernel.c = 40`` makes ``resolvent`` exit 3
   (ToleranceUnreachable) and the harness counts a failed operation.
3. Wrapper call counts match counts the program reports itself:
   volterra_compose calls = resolvent orders - 1 per resolvent call,
   3 build_delayed_operator calls per deterministic ``compare``, and
   2(N+1) expect_q calls per Monte Carlo ``compare``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS, Workload

TINY = {
    "det-uniform": {"n": 40},
    "mc-gaussian-p": {"n": 12, "paths": 2000},
    "mc-terminal-q": {"n": 10, "paths": 2000},
}
SEED = 7


def _expected_metrics(section: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def check_tiny_runs(problems: list[str]) -> dict:
    """Test 1; returns each workload's traced per-command medians."""
    per_command = {}
    for name, sizes in TINY.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run.bench(WORKLOADS[name], SEED, 0.0, trace, **sizes)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != _expected_metrics(section):
                problems.append(f"{name} trace={int(trace)}: metrics {got} "
                                f"differ from BENCHMARK.json {section}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: failures "
                                f"{record['failures']}")
            if trace:
                per_command[name] = record["per_command"]
    return per_command


def check_tolerance_failure(problems: list[str]) -> None:
    """Test 2."""
    wl = Workload(
        name="constant-c40", why="resolvent tail unreachable",
        horizon=1.0, n=40, paths=100, mode="P",
        body="measure.kind = dirac\nkernel.name = constant\nkernel.c = 40\n",
        commands=("resolvent",), nominal_cycle_s=1.0)
    program = run.import_program()
    os.makedirs(run.OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.OUT, prefix="selftest-")
    client = None
    try:
        cfg_path, sha = run.write_config(wl, SEED, work)
        client = run.Client(program.cli, wl, cfg_path, sha, wl.n, work)
        rc, _ = client.run_op("resolvent")
    finally:
        if client is not None:
            client.clock.close()
        shutil.rmtree(work, ignore_errors=True)
    if rc != 3 or len(client.failures) != 1 or client.attempted != 1:
        problems.append(f"kernel.c=40 resolvent: exit {rc}, "
                        f"{len(client.failures)} failed of {client.attempted}")


def check_call_counts(per_command: dict, problems: list[str]) -> None:
    """Test 3."""
    for name, commands in per_command.items():
        for command, m in commands.items():
            calls = m.get("kernels.volterra_compose.calls", 0)
            orders = m.get("kernels.resolvent.orders", 0)
            resolvents = m.get("kernels.resolvent.calls", 0)
            if calls != orders - resolvents:
                problems.append(f"{name} {command}: {calls} volterra_compose "
                                f"calls, {orders} orders in {resolvents} "
                                "resolvent calls")
        compare = commands["compare"]
        if name == "det-uniform":
            want = ("oracles.build_delayed_operator.calls", 3)
        else:
            want = ("girsanov.expect_q.calls", 2 * (TINY[name]["n"] + 1))
        if compare.get(want[0]) != want[1]:
            problems.append(f"{name} compare: {want[0]}="
                            f"{compare.get(want[0])}, expected {want[1]}")


def main() -> int:
    problems = []
    per_command = check_tiny_runs(problems)
    check_tolerance_failure(problems)
    check_call_counts(per_command, problems)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
