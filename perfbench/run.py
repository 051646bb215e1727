"""End-to-end and per-layer benchmark of the bsvielab command line.

    python3 perfbench/run.py --workload det-uniform --seed 1 --seconds 30 --trace 0

One closed-loop client: a single process calls ``bsvielab.cli.main(argv)``
in-process, one command at a time, each in its own temporary output
directory, and sends the next command only when the last has returned.  A
cycle is one pass over the workload's command list, i.e. one complete
study; a run makes about ``--seconds`` worth of cycles at the workload's
nominal cycle length.  Every operation's outputs are checked (workloads.py), and
repeats of a command must write byte-identical files.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced cycle, then traced cycles with every public layer
function wrapped (tracer.py), and reports the per-layer metrics.  The last
stdout line is the result object; the line before it is the full record
(environment, inputs, medians with tails and sample counts, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracer import Tracer, self_times
from workloads import WORKLOADS, CheckFailed, Workload, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
# _probe()'s time on a quiet shared 2-vCPU host (Python 3.11); only its
# constancy matters, not its value.
PROBE_REFERENCE_S = 0.0002
SETUP_PROBES = 50        # probes bracketing each set-up, on each side

# Commands whose median time is an end-to-end metric in BENCHMARK.json:
# every workload runs them and their medians repeat within the bounds.  The
# other commands' times are in the record line only.
GATED_COMMANDS = ("solve", "compare")

PER_LAYER = {
    "kernels.resolvent.self_s": "s",
    "kernels.resolvent.orders": "count",
    "kernels.build_phi.self_s": "s",
    "kernels.volterra_compose.calls": "count",
    "kernels.volterra_compose.gflop": "GFLOP",
    "measures.mass_queries": "count",
    "measures.quadrature.nodes": "count",
    "oracles.build_delayed_operator.calls": "count",
    "oracles.build_delayed_operator.self_s": "s",
    "oracles.solve_delayed_picard.self_s": "s",
    "oracles.picard.iterations": "count",
    "oracles.residual_delayed.self_s": "s",
    "oracles.solve_reduced_collocation.self_s": "s",
    "oracles.residual_reduced.self_s": "s",
    "oracles.solve_delayed_lsmc.self_s": "s",
    "oracles.lsmc.sweeps": "count",
    "oracles.residual_reduced_pathwise.self_s": "s",
    "solver.solve_Y.self_s": "s",
    "solver.solve_Z.self_s": "s",
    "solver.norms.self_s": "s",
    "solver.smoothness_diagnostics.self_s": "s",
    "solver.tail_weight_matrix.calls": "count",
    "terminal.conditional_sweep.self_s": "s",
    "terminal.evaluate_F.calls": "count",
    "terminal.evaluate_F.self_s": "s",
    "terminal.conditional_F.calls": "count",
    "terminal.gauss_hermite_mean.calls": "count",
    "girsanov.sample_paths.self_s": "s",
    "girsanov.sample_paths.mb": "MB",
    "girsanov.expect_q.calls": "count",
    "girsanov.expect_q.self_s": "s",
    "girsanov.drift.self_s": "s",
    "girsanov.ess_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.main.self_share_max": "ratio",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.rows": "count",
    "cli.write_csv.mb": "MB",
    "config.load_config_file.self_s": "s",
    "trace.cycle_s": "s",
    "trace.untraced_cycle_s": "s",
    "trace.cycle_ratio": "ratio",
}


class ProgramMissing(Exception):
    """The checkout holds no importable bsvielab source tree."""


def import_program():
    """Import bsvielab from this checkout's src/ and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bsvielab", "cli.py")):
        raise ProgramMissing(f"no bsvielab sources under {SRC}")
    sys.path.insert(0, SRC)
    import bsvielab
    import bsvielab.cli
    where = os.path.dirname(os.path.abspath(bsvielab.__file__))
    if where != os.path.join(SRC, "bsvielab"):
        raise ProgramMissing(f"bsvielab imported from {where}, not {SRC}")
    return bsvielab


def write_config(wl: Workload, seed: int, work: str, **sizes) -> tuple[str, str]:
    """Generate the workload's config file; return (path, sha256)."""
    text = wl.config_text(seed, **sizes)
    path = os.path.join(work, f"{wl.name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path, hashlib.sha256(text.encode()).hexdigest()


def _probe() -> None:
    """~0.2 ms of fixed interpreter work (float formatting, as in the CSV
    writer, and integer arithmetic); it never calls the program."""
    parts = [format(i * 0.1, ".12g") for i in range(150)]
    acc = 0
    for i in range(1500):
        acc += i * i
    del parts


def probe_seconds(repeats: int) -> float:
    """Mean time of ``repeats`` back-to-back probes."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _probe()
    return (time.perf_counter() - t0) / repeats


class HostClock:
    """Converts wall times to seconds at a fixed reference host speed.

    A shared host can run the same code up to ~1.5x slower for seconds at
    a time, in CPU time as much as in wall time, and a probe on another
    thread does not see it.  So the probe runs on the main thread itself,
    from a SIGALRM handler every PERIOD seconds, between the program's
    bytecodes.  An interval's wall time, less the probes inside it, is
    scaled by the probe's reference time over the median probe time in the
    interval (padded with the latest earlier probes to MIN_SAMPLES).  The
    probes take ~1% of the run.
    """

    PERIOD = 0.02
    LATE = 0.002
    MIN_SAMPLES = 7

    def __init__(self):
        self.samples = []        # (perf_counter at probe end, probe seconds)
        for _ in range(self.MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def _tick(self, signum, frame) -> None:
        # A tick held back by a long C call (a BLAS product, say) lands just
        # as its worker threads wind down, which slows the probe: skip it.
        if self.PERIOD - signal.getitimer(signal.ITIMER_REAL)[0] <= self.LATE:
            self._sample()

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] in reference-speed seconds."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        # a short interval holds few probes: add the nearest ones before it
        before = [d for t, d in self.samples if t < t0]
        speed = before[max(0, len(before) - self.MIN_SAMPLES + len(inside)):] + inside
        return (t1 - t0 - sum(inside)) * PROBE_REFERENCE_S / statistics.median(speed)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One set-up: import bsvielab and generate the workload's config.
    Returns (wall seconds, reference-speed seconds), the latter scaled by
    probes run just before and after on the same thread."""
    before = probe_seconds(SETUP_PROBES)
    t0 = time.perf_counter()
    import_program()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="setup-") as work:
        write_config(WORKLOADS[workload], seed, work)
    wall = time.perf_counter() - t0
    after = probe_seconds(SETUP_PROBES)
    return wall, wall * PROBE_REFERENCE_S / (0.5 * (before + after))


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, one per repeat: (wall,
    reference-speed)."""
    wall, norm = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        w, s = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(w)
        norm.append(s)
    return wall, norm


def summary(xs: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    out = {"median": statistics.median(xs), "n": len(xs),
           "tail_pct": None, "tail": None}
    if len(xs) >= 11:
        pct = int(100 * (1 - 10 / len(xs)))
        if pct >= 1:
            out["tail_pct"] = pct
            out["tail"] = statistics.quantiles(xs, n=100)[pct - 1]
    return out


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _llc_bytes():
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        proc = subprocess.run(["getconf", level], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip().isdigit() \
                and int(proc.stdout) > 0:
            return {"level": level, "bytes": int(proc.stdout)}
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    try:
        llc = _llc_bytes()
    except (OSError, subprocess.SubprocessError):
        llc = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": llc,
    }


class Client:
    """Closed-loop client: runs one command at a time and checks it."""

    def __init__(self, cli, wl: Workload, cfg_path: str, sha: str, n: int,
                 work: str):
        self.cli, self.wl, self.cfg_path, self.sha, self.n = cli, wl, cfg_path, sha, n
        self.work = work
        self.tracer = None       # set while a Tracer is installed
        self.clock = HostClock()
        self.times = {c: [] for c in wl.commands}      # normalized seconds
        self.wall = {c: [] for c in wl.commands}       # raw wall seconds
        self.cycles = []
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.ops = {}            # op id -> command, for traced ops

    def run_op(self, command: str) -> tuple[int | None, float]:
        """Run one command; return (exit code, normalized seconds); record
        failures."""
        self.attempted += 1
        op = self.attempted
        out = tempfile.mkdtemp(dir=self.work, prefix=f"{command}-")
        argv = [command, "--config", self.cfg_path, "--out", out]
        buf = io.StringIO()
        gc.collect()
        if self.tracer is not None:
            self.tracer.op = op
            self.ops[op] = command
        rc, reason = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            reason = f"SystemExit({exc.code})"
        except Exception:
            reason = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.op = None
        seconds = self.clock.normalize(t0, t0 + elapsed)
        try:
            if reason is None and rc != 0:
                reason = f"exit code {rc}: {buf.getvalue().strip()[-300:]}"
            if reason is None:
                check_output(self.wl, command, out, self.n, self.sha)
                digest = _digest_dir(out)
                first = self.digests.setdefault(command, digest)
                if digest != first:
                    reason = "outputs differ from the first run of this command"
        except CheckFailed as exc:
            reason = str(exc)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if reason is None:
            self.times[command].append(seconds)
            self.wall[command].append(elapsed)
        else:
            self.failures.append({"op": op, "command": command, "reason": reason})
        return rc, seconds

    def cycle(self) -> float:
        """One pass over the command list; return its summed command time."""
        total = sum(self.run_op(c)[1] for c in self.wl.commands)
        self.cycles.append(total)
        return total

    def run_for(self, seconds: float) -> None:
        """Run the number of cycles that takes about ``seconds`` at the
        workload's nominal cycle length, at least one.  The count does not
        depend on measured times, so every run of a workload does the same
        work and its medians mix warm and later cycles alike."""
        for _ in range(max(1, round(seconds / self.wl.nominal_cycle_s))):
            self.cycle()


def _digest_dir(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def layer_metrics(client: Client, tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer values of one study, and their per-command medians.

    Each traced operation gets calls and self time per span name plus the
    tracer's counters.  Per command, the median over its operations is
    taken; a study's value sums those medians over the command list.
    """
    per_op = {op: dict(tracer.counters.get(op, {})) for op in client.ops}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        vals = per_op[span[4]]
        vals[span[0] + ".calls"] = vals.get(span[0] + ".calls", 0) + 1
        vals[span[0] + ".self_s"] = vals.get(span[0] + ".self_s", 0.0) + self_s
        if span[0] == "cli.main":
            vals["op_s"] = span[2] - span[1]
    for vals in per_op.values():
        vals["cli.main.self_share"] = vals["cli.main.self_s"] / vals["op_s"]

    failed = {f["op"] for f in client.failures}
    by_command = {}
    for command in client.wl.commands:
        rows = [v for op, v in per_op.items()
                if client.ops[op] == command and op not in failed]
        keys = sorted({k for v in rows for k in v})
        by_command[command] = {
            k: statistics.median(v.get(k, 0.0) for v in rows) for k in keys}

    metrics = {}
    for name in PER_LAYER:
        if name == "girsanov.ess_ratio":
            vals = [m[name] for m in by_command.values() if name in m]
            metrics[name] = min(vals) if vals else 0.0
        elif name == "cli.main.self_share_max":
            metrics[name] = max(m.get("cli.main.self_share", 0.0)
                                for m in by_command.values())
        elif not name.startswith("trace."):
            metrics[name] = sum(m.get(name, 0.0) for m in by_command.values())
    return metrics, by_command


def bench(wl: Workload, seed: int, seconds: float, trace: bool,
          **sizes) -> tuple[dict, dict]:
    """Run one benchmark; return (result, record)."""
    t0 = time.perf_counter()
    program = import_program()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT, prefix=f"work-{wl.name}-")
    client = None
    try:
        cfg_path, sha = write_config(wl, seed, work, **sizes)
        first_setup = time.perf_counter() - t0
        n = sizes.get("n", wl.n)
        record = {
            "workload": wl.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "commands": list(wl.commands),
            "inputs": {"n": n, "paths": sizes.get("paths", wl.paths),
                       "mode": wl.mode, "config_sha256": {wl.name: sha}},
            "environment": environment(),
            "first_setup_s": first_setup,
        }
        client = Client(program.cli, wl, cfg_path, sha, n, work)
        if not trace:
            setup_wall, setup = measure_setup(wl.name, seed)
            client.run_for(seconds)
            timings = {"setup_s": summary(setup),
                       "cycle_s": summary(client.cycles)}
            wall = {"setup_s": summary(setup_wall)}
            for command, xs in client.times.items():
                if xs:
                    key = command.replace("-", "_") + "_s"
                    timings[key] = summary(xs)
                    wall[key] = summary(client.wall[command])
            metrics = {k: (v["median"], "s") for k, v in timings.items()
                       if k in ("setup_s", "cycle_s")
                       or k[:-2] in GATED_COMMANDS}
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
            record["timings"] = timings
            record["wall_timings"] = wall
            record["probe_s"] = summary([d for _, d in client.clock.samples])
        else:
            untraced = client.cycle()
            traced_from = len(client.cycles)
            tracer = client.tracer = Tracer()
            tracer.install(program)
            try:
                client.run_for(seconds)
            finally:
                tracer.uninstall()
            values, by_command = layer_metrics(client, tracer)
            traced = statistics.median(client.cycles[traced_from:])
            values["trace.cycle_s"] = traced
            values["trace.untraced_cycle_s"] = untraced
            values["trace.cycle_ratio"] = traced / untraced
            metrics = {k: (values[k], unit) for k, unit in PER_LAYER.items()}
            record["per_command"] = by_command
            record["spans"] = _write_spans(tracer, client, seed)
        record["op_failure_ratio"] = len(client.failures) / client.attempted
        record["failures"] = client.failures
    finally:
        if client is not None:
            client.clock.close()
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def _write_spans(tracer: Tracer, client: Client, seed: int) -> str:
    path = os.path.join(OUT, f"spans-{client.wl.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "ops": client.ops, "counters": tracer.counters,
                   "spans": tracer.spans}, fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        result, record = bench(WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in record["failures"]:
        print(f"perfbench: op {failure['op']} {failure['command']} failed: "
              f"{failure['reason']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
