"""Batch runner and command line front end.

Loads a JSON configuration describing law suites, system checks and
decision-process checks, runs everything, and writes a two-part report:
a deterministic part that is byte-identical across runs and worker
counts, and a separate timing part that is allowed to vary.

Configuration grammar (JSON):

    {
      "seed": 0,               # required, unsigned 64 bit
      "budget": 100000,        # required, per-quantifier enumeration cap
      "carrier_cap": 1000000,  # optional, bounds every enumeration
      "suites": [
        {"name": "maybe-all", "instance": "maybe",
         "laws": ["F1", "T1"],           # optional; omitted = whole view
         "view": "fat",                   # or "thin"
         "sizes": {"A": 2, "B": 2, "C": 2, "D": 2},
         "max_len": 2, "max_support": 2}
      ],
      "systems": [
        {"name": "branch", "instance": "nondet", "size": 3,
         "step": ["[#0, #1]", "[#1, #2]", "[#2, #0]"],
         "checks": ["flowLR", "flowMonoid"], "n_max": 3,
         "max_len": 2, "max_support": 2}
      ],
      "sdps": [
        {"name": "greedy", "instance": "nondet", "measure": "max",
         "horizon": 2, "states": 3, "controls": 2,
         "next": [["[#0]", "[#1]", "[#2]"],
                  ["[#0, #1]", "[#1, #2]", "[#2, #0]"]],
         "reward": "next-index"}          # or nested [y][x][x1] rationals
      ]
    }

n_max bounds the step count of the flow checks and the vector length of
mapLastLemma. carrier_cap bounds every enumeration of the run: suite
carriers, the carriers of reprLemma and mapLastLemma, and each sdp's
measureShift gate; a check that reaches it fails with checked=0 and the
cap diagnostic.

Step and next entries use the canonical value syntax and must be
values of the instance's carrier over the states: the right shape, with
every atom below the state count. Lengths and supports are not bounded,
since flows and binds leave the bounded carrier anyway. A value outside
the carrier is a configuration error (exit 2), and so are a measure that
cannot measure the instance's structures, an empty next list under max,
and max_len or max_support below 1. The reader functor is addressed as
instance "reader" in suites; its environment size comes from sizes["E"]
(default 2). Its level-2 check F3L2 runs with F3, alone when "laws" is
["F3L2"], and is a configuration error on any other instance.

Exit codes: 0 when every check passes, 1 when any check fails, and 2
for configuration problems, which are reported with the offending
field's path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from .dp import MEASURES, Sdp, check_val_equiv, get_measure
from .instances import INSTANCE_NAMES, get_instance, reader_functor
from .laws import LAW_IDS, SuiteProfile, law_catalog, run_suite
from .reports import LawReport
from .systems import SYSTEM_CHECKS, MonSys, run_system_check
from .values import (
    Base,
    CarrierDesc,
    FiniteType,
    FnTable,
    Quantifier,
    Seq,
    Value,
    check_member,
    parse_value,
    DEFAULT_CARRIER_CAP,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "main", "BUILTIN_SUITES"]

REPORT_SCHEMA = "lawcheck-report/1"


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(slots=True)
class RunConfig:
    seed: int
    budget: int
    carrier_cap: int = DEFAULT_CARRIER_CAP
    suites: list[SuiteProfile] = field(default_factory=list)
    # each system with its echo, whose checks and n_max it runs
    systems: list[tuple[MonSys, dict]] = field(default_factory=list)
    sdps: list[tuple[Sdp, dict]] = field(default_factory=list)

    def echo(self) -> dict:
        """The effective configuration, as it went into the run."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "carrier_cap": self.carrier_cap,
            "suites": [
                {
                    "name": p.name, "instance": p.instance,
                    "laws": list(p.laws), "view": p.view,
                    "sizes": {k: v for k, v in p.sizes},
                    "max_len": p.max_len, "max_support": p.max_support,
                }
                for p in self.suites
            ],
            "systems": [echo for _, echo in self.systems],
            "sdps": [echo for _, echo in self.sdps],
        }


def _need(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ConfigError(f"{where}.{key}: required field is missing")
    v = data[key]
    if kind is int and isinstance(v, bool) or not isinstance(v, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {type(v).__name__}")
    return v


def _opt(data: dict, key: str, kind, default, where: str):
    if key not in data:
        return default
    return _need(data, key, kind, where)


def _bounds(entry: dict, where: str) -> tuple[int, int]:
    """max_len and max_support of an entry, both at least 1."""
    max_len = _opt(entry, "max_len", int, 2, where)
    max_support = _opt(entry, "max_support", int, 2, where)
    if max_len < 1 or max_support < 1:
        raise ConfigError(f"{where}: max_len and max_support must be at least 1")
    return max_len, max_support


def _instance(entry: dict, where: str, known: tuple[str, ...] = INSTANCE_NAMES) -> str:
    instance = _need(entry, "instance", str, where)
    if instance not in known:
        raise ConfigError(
            f"{where}.instance: unknown instance {instance!r} (known: {', '.join(known)})"
        )
    return instance


def _parse_suite(entry: dict, i: int) -> SuiteProfile:
    where = f"suites[{i}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    name = _need(entry, "name", str, where)
    instance = _instance(entry, where, INSTANCE_NAMES + ("reader",))
    laws = tuple(_opt(entry, "laws", list, [], where))
    for law_id in laws:
        if law_id not in LAW_IDS and law_id != "F3L2":
            raise ConfigError(
                f"{where}.laws: unknown law id {law_id!r} (known: {', '.join(LAW_IDS)})"
            )
    if "F3L2" in laws and instance != "reader":
        raise ConfigError(f"{where}.laws: F3L2 applies only to instance 'reader'")
    view = _opt(entry, "view", str, "fat", where)
    if view not in ("thin", "fat"):
        raise ConfigError(f"{where}.view: expected 'thin' or 'fat', got {view!r}")
    sizes_in = _opt(entry, "sizes", dict, {}, where)
    sizes = {"A": 2, "B": 2, "C": 2, "D": 2}
    if instance == "reader":
        sizes["E"] = 2
    for role, n in sizes_in.items():
        if role not in ("A", "B", "C", "D", "E"):
            raise ConfigError(f"{where}.sizes: unknown role {role!r}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ConfigError(f"{where}.sizes.{role}: expected a non-negative integer")
        sizes[role] = n
    max_len, max_support = _bounds(entry, where)
    return SuiteProfile(
        name=name,
        instance=instance,
        laws=laws,
        view=view,
        sizes=tuple(sorted(sizes.items())),
        max_len=max_len,
        max_support=max_support,
    )


def _parse_step_values(
    raw: list, size: int, where: str, carrier: CarrierDesc
) -> tuple[Value, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: expected a list of canonical value strings")
    if len(raw) != size:
        raise ConfigError(f"{where}: expected {size} entries, got {len(raw)}")
    out = []
    for j, text in enumerate(raw):
        if not isinstance(text, str):
            raise ConfigError(f"{where}[{j}]: expected a canonical value string")
        try:
            value = parse_value(text)
            check_member(value, carrier)
        except ValueError as exc:
            raise ConfigError(f"{where}[{j}]: {exc}")
        out.append(value)
    return tuple(out)


def _parse_system(entry: dict, i: int) -> tuple[MonSys, dict]:
    where = f"systems[{i}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    name = _need(entry, "name", str, where)
    instance = _instance(entry, where)
    size = _need(entry, "size", int, where)
    if size < 1:
        raise ConfigError(f"{where}.size: state space must be non-empty")
    max_len, max_support = _bounds(entry, where)
    monad = get_instance(instance, max_len=max_len, max_support=max_support)
    domain = FiniteType("X", size)
    carrier = monad.carrier_of(Base(domain))
    raw_step = _need(entry, "step", list, where)
    step = _parse_step_values(raw_step, size, f"{where}.step", carrier)
    checks = tuple(_opt(entry, "checks", list, sorted(SYSTEM_CHECKS), where))
    for c in checks:
        if c not in SYSTEM_CHECKS:
            raise ConfigError(
                f"{where}.checks: unknown check {c!r} (known: {', '.join(sorted(SYSTEM_CHECKS))})"
            )
    n_max = _opt(entry, "n_max", int, 3, where)
    if n_max < 0:
        raise ConfigError(f"{where}.n_max: must be non-negative")
    echo = {
        "name": name, "instance": instance, "size": size, "step": tuple(raw_step),
        "checks": checks, "n_max": n_max, "max_len": max_len, "max_support": max_support,
    }
    return MonSys(name, monad, domain, FnTable(domain, carrier, step)), echo


def _parse_sdp(entry: dict, i: int) -> tuple[Sdp, dict]:
    where = f"sdps[{i}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    name = _need(entry, "name", str, where)
    instance = _instance(entry, where)
    measure = _need(entry, "measure", str, where)
    if measure not in MEASURES:
        raise ConfigError(
            f"{where}.measure: unknown measure {measure!r} "
            f"(known: {', '.join(sorted(MEASURES))})"
        )
    if instance not in MEASURES[measure].instances:
        raise ConfigError(f"{where}.measure: {measure!r} cannot measure {instance} structures")
    horizon = _need(entry, "horizon", int, where)
    states = _need(entry, "states", int, where)
    controls = _need(entry, "controls", int, where)
    if horizon < 0 or states < 1 or controls < 1:
        raise ConfigError(f"{where}: horizon must be >= 0, states and controls >= 1")
    raw_next = _need(entry, "next", list, where)
    if len(raw_next) != controls:
        raise ConfigError(
            f"{where}.next: expected one row per control ({controls}), got {len(raw_next)}"
        )
    max_len, max_support = _bounds(entry, where)
    monad = get_instance(instance, max_len=max_len, max_support=max_support)
    state_type = FiniteType("X", states)
    carrier = monad.carrier_of(Base(state_type))
    next_vals = tuple(
        _parse_step_values(row, states, f"{where}.next[{y}]", carrier)
        for y, row in enumerate(raw_next)
    )
    for y, row in enumerate(next_vals):
        for x, value in enumerate(row):
            if measure == "max" and value == Seq(()):
                raise ConfigError(f"{where}.next[{y}][{x}]: the max measure is undefined on []")
    reward = entry.get("reward", "next-index")
    if reward == "next-index":  # the index of the state a transition reaches
        table = ((tuple(map(Fraction, range(states))),) * states,) * controls
    elif isinstance(reward, list):
        try:
            table = tuple(
                tuple(tuple(Fraction(cell) for cell in row) for row in plane)
                for plane in reward
            )
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}.reward: bad rational entry ({exc})")
        if len(table) != controls or any(
            len(plane) != states or any(len(row) != states for row in plane)
            for plane in table
        ):
            raise ConfigError(f"{where}.reward: expected shape [controls][states][states]")
        reward = [[[str(r) for r in row] for row in plane] for plane in table]
    else:
        raise ConfigError(
            f"{where}.reward: expected 'next-index' or a nested table, got {reward!r}"
        )
    echo = {
        "name": name, "instance": instance, "measure": measure, "horizon": horizon,
        "states": states, "controls": controls, "next": tuple(map(tuple, raw_next)),
        "reward": reward,
        "max_len": max_len, "max_support": max_support,
    }
    sdp = Sdp(name, horizon, state_type, FiniteType("Y", controls), monad,
              get_measure(measure), lambda t, x, y: next_vals[y.index][x.index],
              lambda t, x, y, x1: table[y.index][x.index][x1.index])
    return sdp, echo


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    seed = _need(data, "seed", int, "config")
    if not 0 <= seed < 2**64:
        raise ConfigError("config.seed: expected an unsigned 64 bit integer")
    budget = _need(data, "budget", int, "config")
    if budget < 1:
        raise ConfigError("config.budget: must be at least 1")
    carrier_cap = _opt(data, "carrier_cap", int, DEFAULT_CARRIER_CAP, "config")
    if carrier_cap < 1:
        raise ConfigError("config.carrier_cap: must be at least 1")
    known = {"seed", "budget", "carrier_cap", "suites", "systems", "sdps"}
    for key in data:
        if key not in known:
            raise ConfigError(f"config.{key}: unknown field")
    cfg = RunConfig(seed=seed, budget=budget, carrier_cap=carrier_cap)
    for i, entry in enumerate(_opt(data, "suites", list, [], "config")):
        cfg.suites.append(_parse_suite(entry, i))
    for i, entry in enumerate(_opt(data, "systems", list, [], "config")):
        cfg.systems.append(_parse_system(entry, i))
    for i, entry in enumerate(_opt(data, "sdps", list, [], "config")):
        cfg.sdps.append(_parse_sdp(entry, i))
    if not (cfg.suites or cfg.systems or cfg.sdps):
        raise ConfigError("config: nothing to run (no suites, systems or sdps)")
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}")
    return parse_config(data)


# ---------------------------------------------------------------------------
# builtin suites

BUILTIN_SUITES: dict[str, dict] = {
    "full": {
        "seed": 0,
        "budget": 100_000,
        "suites": [
            {"name": f"full:{name}", "instance": name}
            for name in ("identity", "maybe", "nondet", "simpleprob")
        ],
    },
    "mutants": {
        "seed": 0,
        "budget": 100_000,
        "suites": [
            {"name": f"mutants:{name}", "instance": name}
            for name in ("mutant-a", "mutant-b")
        ],
    },
    "reader": {
        "seed": 0,
        "budget": 100_000,
        "suites": [{"name": "reader:functor", "instance": "reader"}],
    },
}


# ---------------------------------------------------------------------------
# running


def _build_suite_instance(profile: SuiteProfile):
    if profile.instance == "reader":
        env_size = dict(profile.sizes).get("E", 2)
        return reader_functor(FiniteType("E", env_size))
    return get_instance(
        profile.instance, max_len=profile.max_len, max_support=profile.max_support
    )


def _execute(cfg: RunConfig, jobs: int) -> tuple[list[tuple[str, LawReport]], float]:
    """Run everything; returns (group, report) pairs in declaration
    order regardless of worker count, plus wall seconds."""

    tasks: list[tuple[str, Callable[[], list[LawReport]]]] = []
    for profile in cfg.suites:
        effective = dataclasses.replace(
            profile, budget=cfg.budget, seed=cfg.seed, carrier_cap=cfg.carrier_cap
        )
        inst = _build_suite_instance(effective)
        tasks.append((
            f"suite:{profile.name}",
            lambda inst=inst, eff=effective: run_suite(inst, eff),
        ))
    cap = cfg.carrier_cap
    for sys_obj, echo in cfg.systems:
        for check in echo["checks"]:
            tasks.append((
                f"system:{sys_obj.name}",
                lambda c=check, s=sys_obj, n=echo["n_max"]: [run_system_check(c, s, n, cap)],
            ))
    q = Quantifier(budget=cfg.budget, seed=cfg.seed)
    for sdp, _ in cfg.sdps:
        tasks.append((f"sdp:{sdp.name}", lambda s=sdp: [check_val_equiv(s, q, cap)]))

    t0 = time.perf_counter()
    if jobs <= 1:
        bundles = [fn() for _, fn in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            bundles = list(pool.map(lambda t: t[1](), tasks))
    elapsed = time.perf_counter() - t0
    out = [(group, rep) for (group, _), reps in zip(tasks, bundles) for rep in reps]
    return out, elapsed


def build_report(cfg: RunConfig, results: list[tuple[str, LawReport]],
                 elapsed_s: float, jobs: int) -> dict:
    failures = sum(1 for _, r in results if not r.passed)
    deterministic = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": cfg.echo(),
        "results": [
            {"group": group, **rep.to_deterministic_dict()}
            for group, rep in results
        ],
        "counts": {"checks": len(results), "failures": failures},
        "pass": failures == 0,
    }
    timing = {
        "note": "non-deterministic section; excluded from byte-identity",
        "jobs": jobs,
        "total_ms": round(elapsed_s * 1000, 3),
        "checks": [
            {"group": group, "law": rep.law_id,
             "elapsed_ms": round(rep.elapsed_ms, 3)}
            for group, rep in results
        ],
    }
    return {"deterministic": deterministic, "timing": timing}


TIMING_MARKER = "--- timing (non-deterministic) ---"


def render_text(report: dict) -> str:
    det = report["deterministic"]
    lines = [
        f"lawcheck {det['version']} (schema {det['schema']})",
        f"seed={det['config']['seed']} budget={det['config']['budget']} "
        f"carrier_cap={det['config']['carrier_cap']}",
        "",
    ]
    for entry in det["results"]:
        status = "PASS" if entry["pass"] else "FAIL"
        line = (
            f"[{entry['group']}] {entry['law']} on {entry['instance']}: "
            f"{status} checked={entry['checked']}"
        )
        lines.append(line)
        for stat in entry.get("quantifiers", []):
            lines.append(
                f"    forall {stat['var']} in {stat['space']} "
                f"(size {stat['size']}, {stat['mode']}, visiting {stat['count']})"
            )
        if entry.get("witness"):
            lines.append("    counterexample:")
            for k, v in entry["witness"].items():
                lines.append(f"      {k} = {v}")
        if entry.get("diagnostic"):
            lines.append(f"    diagnostic: {entry['diagnostic']}")
        if entry.get("detail"):
            lines.append(f"    note: {entry['detail']}")
    counts = det["counts"]
    lines.append("")
    lines.append(
        f"aggregate: {'PASS' if det['pass'] else 'FAIL'} "
        f"({counts['checks']} checks, {counts['failures']} failures)"
    )
    timing = report["timing"]
    lines.append(TIMING_MARKER)
    lines.append(f"jobs={timing['jobs']} total={timing['total_ms']}ms")
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def list_catalog() -> str:
    lines = ["laws:"]
    for law in law_catalog():
        views = "/".join(law.views)
        lines.append(f"  {law.id:4s} {law.name:24s} [{views}]  {law.statement}")
    lines.append("extra checks:")
    lines.append("  F3L2 readerPresEE2             level-2 pointwise equality for reader map")
    lines.append("instances:")
    for name in INSTANCE_NAMES:
        lines.append(f"  {name}")
    lines.append("  reader (functor only, suites)")
    lines.append("system checks:")
    for name in sorted(SYSTEM_CHECKS):
        lines.append(f"  {name}")
    lines.append("measures:")
    for name in sorted(MEASURES):
        lines.append(f"  {name}")
    lines.append("builtin suites:")
    for name in sorted(BUILTIN_SUITES):
        lines.append(f"  {name}")
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig, jobs: int = 1, fmt: str = "text",
        out_path: str | None = None) -> int:
    results, elapsed = _execute(cfg, jobs)
    report = build_report(cfg, results, elapsed, jobs)
    text = render_json(report) if fmt == "json" else render_text(report)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report["deterministic"]["pass"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lawcheck",
        description="run functor/monad law suites and dynamical-system "
                    "checks over finite carriers",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--suite", help="run a builtin suite "
                        f"({', '.join(sorted(BUILTIN_SUITES))}), or pick one "
                        "suite from the config by name")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--budget", type=int, help="override the config budget")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads (affects timing only)")
    parser.add_argument("--list", action="store_true",
                        help="print the catalog of laws, instances, checks "
                        "and measures, then exit")
    args = parser.parse_args(argv)

    if args.list:
        sys.stdout.write(list_catalog())
        return 0
    try:
        if args.config:
            cfg = load_config(args.config)
            if args.suite:
                if args.suite in BUILTIN_SUITES:
                    built = parse_config(BUILTIN_SUITES[args.suite])
                    built.seed, built.budget = cfg.seed, cfg.budget
                    cfg = built
                else:
                    wanted = [p for p in cfg.suites if p.name == args.suite]
                    if not wanted:
                        raise ConfigError(
                            f"--suite: {args.suite!r} is neither a builtin suite "
                            f"nor a suite name in {args.config}"
                        )
                    cfg.suites, cfg.systems, cfg.sdps = wanted, [], []
        elif args.suite:
            if args.suite not in BUILTIN_SUITES:
                raise ConfigError(
                    f"--suite: unknown builtin suite {args.suite!r} "
                    f"(known: {', '.join(sorted(BUILTIN_SUITES))}); "
                    "pass --config to use suites from a file"
                )
            cfg = parse_config(BUILTIN_SUITES[args.suite])
        else:
            raise ConfigError("config: pass --config, --suite or --list")
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed: expected an unsigned 64 bit integer")
            cfg.seed = args.seed
        if args.budget is not None:
            if args.budget < 1:
                raise ConfigError("--budget: must be at least 1")
            cfg.budget = args.budget
        if args.jobs < 1:
            raise ConfigError("--jobs: must be at least 1")
        return run(cfg, jobs=args.jobs, fmt=args.format, out_path=args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
