"""Benchmark of finmon's law, system and decision-problem checks.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each round is a fresh `python3` process that runs one workload config
through `finmon.cli` (see `child.py`); the round is timed from outside
and its report is checked against the expectations of `oracle.py`.
Rounds repeat while they fit in `--seconds` (at least one round), and
each time metric is the mean over the rounds of the run. Set-up time is
the median of the rounds' set-up and of probes before and after them:
processes that stop when the first check starts. Every time is scaled
to a fixed host speed, sampled while it is measured (`SpeedSampler`).

Without `--workload` every workload runs in turn. The last line of
standard output is one JSON object: `correct`, `attempted` and `failed`
count the checks of every round, and `metrics` holds the end-to-end
metrics, or with `--trace 1` the per-layer metrics of one extra traced
round (`tracer.py`). The exit code is 0 when every output was correct,
1 when a check disagreed with its expectation and 2 when the program
could not be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# name -> (config held in workloads/, --jobs); see README.md for the why
WORKLOADS = {
    "laws-full": ("laws-full.json", 1),
    "laws-refute": ("laws-refute.json", 1),
    "dynamics": ("dynamics.json", 2),
}
SETUP_PROBES = 5  # before the rounds, and as many again after them
ROUND_TIMEOUT_S = 170.0
# Host-speed sampling (see SpeedSampler): one chunk of the reference loop
# every SAMPLE_INTERVAL_S, and the chunk's CPU time on the reference host,
# to which every time is scaled.
SAMPLE_INTERVAL_S = 0.025
REFERENCE_CHUNK_S = 0.0014

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
             "evals_per_s": "1/s", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    """The checkout holds no finmon package to measure."""


class Round:
    """One finmon process: its timings, resources and report."""

    def __init__(self, workdir: Path, config: Path, jobs: int, mode: str, tag: str,
                 sampler: "SpeedSampler"):
        self.stamps_path = workdir / f"{tag}.stamps.json"
        self.report_path = workdir / f"{tag}.report.json"
        self.stderr_path = workdir / f"{tag}.stderr.txt"
        argv = [sys.executable, str(BENCH / "child.py"), str(self.stamps_path), mode,
                "--", "--config", str(config), "--jobs", str(jobs),
                "--format", "json", "--out", str(self.report_path)]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        with open(self.stderr_path, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=ROOT)
            sampler.pid = proc.pid
            try:
                status, usage = _wait(proc, start + ROUND_TIMEOUT_S)
            finally:
                sampler.pid = None
        # REFERENCE_CHUNK_S / (the host's chunk time over the round)
        self.scale = sampler.scale(start, time.monotonic())
        self.rc = os.waitstatus_to_exitcode(status) if status is not None else None
        self.cpu_s = usage.ru_utime + usage.ru_stime if usage else None
        self.peak_rss_mb = usage.ru_maxrss / 1024 if usage else None
        stamps = _read_json(self.stamps_path) or {}
        first, written = stamps.get("first_check"), stamps.get("report_written")
        self.setup_s = first - start if first is not None else None
        self.wall_s = written - start if written is not None else None
        self.check_s = written - first if None not in (first, written) else None

    def stderr_tail(self) -> str:
        lines = self.stderr_path.read_text(errors="replace").strip().splitlines()
        return " | ".join(lines[-3:])


def _wait(proc: subprocess.Popen, deadline: float):
    """Wait for proc and return (status, rusage); kill it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            return None, None
        time.sleep(0.02)


def _loop_chunk() -> None:
    """One fixed chunk of the kind of pure-Python work finmon does: tuple
    building, hashing, dict lookups and method calls."""
    memo: dict = {}
    for i in range(4_000):
        key = (i & 255, i % 7)
        memo[key] = memo.get(key, 0) + hash(key) % 3


def _running_cpus(pid: int) -> list[int]:
    """The CPUs on which threads of process `pid` are running or queued."""
    cpus = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return cpus
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] == "R":
            cpus.append(int(fields[36]))  # field 39 of stat, "processor"
    return cpus


class SpeedSampler:
    """Samples the host's speed on the CPUs that the measured process uses.

    The host is shared, and each CPU's speed switches between phases about
    1.6 times apart that last from seconds to tens of seconds, independently
    on each CPU; CPU time moves with wall time, so the drift is in the
    host, not in scheduling. A thread of this process times one chunk of
    the reference loop in CPU time every SAMPLE_INTERVAL_S, on each CPU in
    turn, and keeps each CPU's latest chunk time. At each sample it notes
    the mean chunk time of the CPUs on which the measured process's
    threads are running (of every CPU when none is). `scale` turns that
    into a factor that reports a window's times at the reference speed.
    The chunks take about 2.5% of the CPU the measured process runs on."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pid: int | None = None  # the measured process, when one runs
        self.ticks: list[tuple[float, float]] = []  # (monotonic time, chunk s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        latest: dict[int, float] = {}
        i = 0
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            cpu = self.cpus[i % len(self.cpus)]
            i += 1
            pid = self.pid
            running = _running_cpus(pid) if pid is not None else []
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # the CPU left this process's set: sample where it runs
                pass
            start = time.thread_time()
            _loop_chunk()
            latest[cpu] = time.thread_time() - start
            if len(latest) == len(self.cpus):
                cpus = [c for c in running if c in latest] or self.cpus
                self.ticks.append((time.monotonic(), statistics.fmean(latest[c] for c in cpus)))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_CHUNK_S over the mean chunk time of [start, end]; the
        nearest sample stands in for a window too short to hold one."""
        inside = [s for t, s in self.ticks if start <= t <= end]
        if not inside:
            while not self.ticks:
                if not self._thread.is_alive():
                    raise RuntimeError("the host-speed sampler stopped before its first sample")
                time.sleep(SAMPLE_INTERVAL_S)
            mid = (start + end) / 2
            inside = [min(self.ticks, key=lambda tick: abs(tick[0] - mid))[1]]
        return REFERENCE_CHUNK_S / statistics.fmean(inside)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _det_digest(det: dict) -> str:
    """Digest of the deterministic section with the seed left out, so
    runs with different seeds can be compared."""
    det = json.loads(json.dumps(det))
    det.get("config", {}).pop("seed", None)
    blob = json.dumps(det, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Run:
    """All rounds of one workload in one benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        if not (SRC / "finmon" / "cli.py").is_file():
            raise ProgramMissing(f"no finmon sources under {SRC}")
        cfg_name, self.jobs = WORKLOADS[workload]
        self.workdir = OUT / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.config = json.loads((BENCH / "workloads" / cfg_name).read_text())
        self.config["seed"] = seed
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")
        self.expected_rc = 0 if all(r["pass"] for r in oracle.expected_rows(self.config)) else 1
        self.attempted = 0
        self.problems: list[str] = []
        self.det_bytes: str | None = None
        self.digest = "?"
        self.evals = 0
        self.rounds: list[Round] = []
        self.setups: list[float] = []
        self.probes = 0
        self.sampler = SpeedSampler()

    def _round(self, mode: str, tag: str) -> Round:
        return Round(self.workdir, self.config_path, self.jobs, mode, tag, self.sampler)

    def warm_up(self) -> None:
        warm = self._round("setup", "warmup")  # compiles bytecode, fills caches
        if warm.setup_s is None:
            raise ProgramMissing(f"finmon did not start: {warm.stderr_tail()}")

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            i = self.probes = self.probes + 1
            probe = self._round("setup", f"setup{i}")
            if probe.setup_s is None:
                self.problems.append(f"set-up probe {i} failed: {probe.stderr_tail()}")
            else:
                self.setups.append(probe.setup_s * probe.scale)

    def verify(self, rnd: Round, label: str) -> None:
        report = _read_json(rnd.report_path)
        attempted = len(oracle.expected_rows(self.config))
        self.attempted += attempted
        if report is None or rnd.wall_s is None or rnd.setup_s is None:
            self.problems.extend([f"{label}: no report (exit {rnd.rc}): {rnd.stderr_tail()}"]
                                 * attempted)
            return
        _, problems = oracle.check_report(report, self.config)
        if rnd.rc != self.expected_rc:
            problems.append(f"exit code {rnd.rc}, expected {self.expected_rc}")
        det = json.dumps(report.get("deterministic"), sort_keys=True)
        if self.det_bytes is None:
            self.det_bytes = det
            self.digest = _det_digest(report["deterministic"])
        elif det != self.det_bytes:
            problems.append("deterministic section differs from the first round's")
        self.problems.extend(f"{label}: {p}" for p in problems)
        self.evals = sum(r.get("checked", 0) for r in report["deterministic"]["results"])

    def measure(self, seconds: float) -> None:
        """Whole rounds, as many as fit in `seconds` judging by the last
        round's length, and at least one."""
        start = last = time.monotonic()
        while not self.rounds or 2 * time.monotonic() - last - start <= seconds:
            last = time.monotonic()
            rnd = self._round("run", f"round{len(self.rounds)}")
            self.verify(rnd, f"round {len(self.rounds)}")
            self.rounds.append(rnd)
            if rnd.setup_s is not None:
                self.setups.append(rnd.setup_s * rnd.scale)

    def e2e_metrics(self) -> dict:
        ok = [r for r in self.rounds if r.wall_s is not None]
        if not ok or not self.setups:
            return {}
        # Times are scaled to the reference host speed (see SpeedSampler)
        # and averaged over the whole run, not taken as a median of rounds:
        # a median of a few short rounds jumps between fast and slow phases.
        values = {
            "wall_s": statistics.fmean(r.wall_s * r.scale for r in ok),
            "setup_s": statistics.median(self.setups),
            "cpu_s": statistics.fmean(r.cpu_s * r.scale for r in ok),
            "evals_per_s": self.evals * len(ok) / sum(r.check_s * r.scale for r in ok),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    def traced(self) -> dict:
        """One traced round; returns the per-layer metrics."""
        spans_path = self.workdir / "trace.spans.json"
        rnd = self._round(f"trace:{spans_path}", "traced")
        self.verify(rnd, "traced round")
        self.traced_wall_s = rnd.wall_s * rnd.scale if rnd.wall_s is not None else None
        doc = _read_json(spans_path)
        if doc is None:
            self.problems.append("traced round wrote no spans")
            return {}
        metrics = layer_metrics(doc)
        for m in metrics.values():
            if m["unit"] == "s":
                m["value"] *= rnd.scale
        return metrics


def layer_metrics(doc: dict) -> dict:
    agg = doc["aggregates"]

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(agg.get(n, {}).get("total_s", 0.0) for n in names)

    def self_time(prefix):
        return sum(v["self_s"] for k, v in agg.items() if k.startswith(prefix))

    counters = doc["counters"]
    seconds = {
        "cli.load_config_s": total("cli.load_config"),
        "cli.report_s": total("cli.build_report", "cli.render_json"),
        "laws.self_s": self_time("laws."),
        "instances.self_s": self_time("instances."),
        "values.enumerate_s": self_time("values.enumerate"),
        "values.mk_dist_s": self_time("values.mk_dist"),
        "systems.self_s": self_time("systems."),
        "dp.self_s": self_time("dp."),
    }
    counts = {
        "laws.check_law_calls": calls("laws.check_law"),
        "laws.evals": doc["evals"],
        "instances.pure_calls": calls("instances.pure"),
        "instances.map_calls": calls("instances.map"),
        "instances.join_calls": calls("instances.join"),
        "instances.bind_calls": calls("instances.bind"),
        "values.enumerated_values": doc["enumerated_values"],
        "values.mk_dist_calls": calls("values.mk_dist"),
        "values.dist_hash_calls": counters.get("values.dist_hash", 0),
        "values.table_hash_calls": counters.get("values.table_hash", 0),
        "systems.flow_calls": calls("systems.flow"),
        "systems.trj_calls": calls("systems.trj"),
        "dp.val_calls": calls("dp.val"),
        "dp.rews_calls": calls("dp.rews"),
        "dp.measure_calls": calls("dp.measure"),
    }
    out = {k: {"value": v, "unit": "s"} for k, v in seconds.items()}
    out.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    return out


def _show(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        v = m["value"]
        print(f"{workload} {name} = {v if isinstance(v, int) else f'{v:.6g}'} {m['unit']}")


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    with run.sampler:
        run.warm_up()
        run.probe_setup(SETUP_PROBES)
        run.measure(seconds)
        run.probe_setup(SETUP_PROBES)
        traced = run.traced() if trace else None
    metrics = run.e2e_metrics()
    print(f"# {workload}: {len(run.rounds)} rounds, {len(run.setups)} set-up samples, "
          f"deterministic section {run.digest}")
    print(f"# {workload} round wall_s as measured: "
          + " ".join(f"{r.wall_s:.3f}" for r in run.rounds if r.wall_s is not None))
    print(f"# {workload} round speed factors: "
          + " ".join(f"{r.scale:.3f}" for r in run.rounds))
    _show(workload, metrics)
    if trace:
        untraced_wall = metrics.get("wall_s", {}).get("value")
        metrics = traced
        _show(workload, metrics)
        if run.traced_wall_s is not None and untraced_wall is not None:
            print(f"{workload} tracing overhead = "
                  f"{run.traced_wall_s - untraced_wall:.3f} s "
                  f"(traced wall {run.traced_wall_s:.3f} s, untraced wall_s "
                  f"{untraced_wall:.3f} s)")
    for p in run.problems[:20]:
        print(f"{workload} problem: {p}", file=sys.stderr)
    failed = min(len(run.problems), run.attempted)
    print(f"{workload}: {run.attempted} checks attempted, {failed} failed")
    return {"correct": not run.problems and bool(metrics), "attempted": run.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload (default: every workload)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be an unsigned 64 bit integer")
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {name: bench(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except ProgramMissing as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    final = results[args.workload] if args.workload else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
