"""Batch runner and command line front end.

Loads a JSON configuration describing law suites, system checks and
decision-process checks, runs everything, and writes a two-part report:
a deterministic part that is byte-identical across runs, and a separate
timing part that is allowed to vary. Checks run one after another, in
declaration order, on the calling thread.

Configuration grammar (JSON): an object with the fields of the table
TOP, whose lists "suites", "systems" and "sdps" hold objects with the
fields of SUITE, SYSTEM and SDP (a suite's "sizes" has those of SIZES);
configs/ has a worked example of each. A row gives a field's type, its
default or REQUIRED, and its allowed values. check_fields checks an
entry against its table and returns it with the defaults filled in: the
entry's echo in the report. An unknown key, at the top or inside any
entry, a missing field, a wrong type or a value outside the allowed ones
exits 2 at the field's path.

A suite's "laws" default to its whole view ("fat" or "thin"). n_max
bounds the step count of the flow checks and the vector length of
mapLastLemma. carrier_cap bounds every enumeration of the run: suite
domains, carriers and function-table domains; each system check's step
counts, flowMonoid's splits, reprLemma's carrier and mapLastLemma's
carriers of every length together; and each sdp's measureShift gate
and its horizon x states policy slots. A check that reaches it fails
with checked=0 and the cap diagnostic. A deterministic system is a
system over instance "identity".

The rules that span fields follow the tables as code. Step and next
entries use the canonical value syntax and must be values of the
instance's carrier over the states: the right shape, with every atom
below the state count. Lengths and supports are not bounded, since flows
and binds leave the bounded carrier anyway. A value outside the carrier
is a configuration error (exit 2), and so are a measure that cannot
measure the instance's structures, an empty next list under max, and a
next or reward of the wrong shape: reward is "next-index" or a nested
[controls][states][states] table of rationals.

Each suite, like each system and sdp, is built once at load: its
instance, its domains and the checks laws.suite_checks chooses. The
reader functor is addressed as instance "reader" in suites; its
environment size comes from sizes["E"] (default 2). Its level-2 check
F3L2 runs with F3, alone when "laws" is ["F3L2"], and is a
configuration error (exit 2) on any other instance, and so is a reader
suite whose "laws" name a monad law.

Exit codes: 0 when every check passes, 1 when any check fails, and 2
for configuration problems, which are reported with the offending
field's path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dp import MEASURES, Sdp, check_val_equiv, get_measure
from .instances import INSTANCE_NAMES, MonadInstance, get_instance, reader_functor
from .laws import Instance, law_catalog, run_suite, suite_checks
from .reports import LawReport
from .systems import SYSTEM_CHECKS, MonSys, run_system_check
from .values import (
    Base,
    CarrierDesc,
    FiniteType,
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
    carrier_cap: int
    # each suite's instance, checks and domains with its echo; each system
    # with its echo, whose checks and n_max it runs
    suites: list[tuple[Instance, tuple[str, ...], dict, dict]]
    systems: list[tuple[MonSys, dict]]
    sdps: list[tuple[Sdp, dict]]

    def echo(self) -> dict:
        """The effective configuration, as it went into the run."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "carrier_cap": self.carrier_cap,
            "suites": [echo for *_, echo in self.suites],
            "systems": [echo for _, echo in self.systems],
            "sdps": [echo for _, echo in self.sdps],
        }


REQUIRED = object()  # the default of a field that every entry must give
NAT, POSITIVE = range(2**63), range(1, 2**63)  # every count fits 63 bits

# One table per entry kind: field -> (type, default or REQUIRED, allowed),
# where allowed is None, a range, a tuple of names (of each element, for
# a list) or the table of a nested object. A field whose default is None
# is left out when absent.
SIZES = {role: (int, 2, NAT) for role in "ABCD"} | {"E": (int, None, NAT)}
_BOUNDS = {"max_len": (int, 2, POSITIVE), "max_support": (int, 2, POSITIVE)}
SUITE = {
    "name": (str, REQUIRED, None), "instance": (str, REQUIRED, INSTANCE_NAMES + ("reader",)),
    "laws": (list, [], None), "view": (str, "fat", None), "sizes": (dict, {}, SIZES), **_BOUNDS,
}
SYSTEM = {
    "name": (str, REQUIRED, None), "instance": (str, REQUIRED, INSTANCE_NAMES),
    "size": (int, REQUIRED, POSITIVE), "step": (list, REQUIRED, None),
    "checks": (list, sorted(SYSTEM_CHECKS), tuple(sorted(SYSTEM_CHECKS))),
    "n_max": (int, 3, NAT), **_BOUNDS,
}
SDP = {
    "name": (str, REQUIRED, None), "instance": (str, REQUIRED, INSTANCE_NAMES),
    "measure": (str, REQUIRED, tuple(sorted(MEASURES))), "horizon": (int, REQUIRED, NAT),
    "states": (int, REQUIRED, POSITIVE), "controls": (int, REQUIRED, POSITIVE),
    "next": (list, REQUIRED, None), "reward": ((str, list), "next-index", None), **_BOUNDS,
}
TOP = {
    "seed": (int, REQUIRED, range(2**64)), "budget": (int, REQUIRED, POSITIVE),
    "carrier_cap": (int, DEFAULT_CARRIER_CAP, POSITIVE),
    "suites": (list, [], None), "systems": (list, [], None), "sdps": (list, [], None),
}


def check_value(path: str, value, row: tuple):
    """value, checked against its row; a nested object comes back with
    its defaults filled in. ConfigError led by path otherwise."""
    kind, _, allowed = row
    if isinstance(value, bool) or not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")
    if isinstance(allowed, dict):
        return check_fields(value, allowed, path)
    if isinstance(allowed, range) and value not in allowed:
        raise ConfigError(f"{path}: expected an integer from {allowed.start} to {allowed.stop - 1}")
    if isinstance(allowed, tuple):
        for v in value if kind is list else (value,):
            if v not in allowed:  # named for its field, in the singular
                noun = path.rpartition(".")[2].removesuffix("s")
                raise ConfigError(f"{path}: unknown {noun} {v!r} (known: {', '.join(allowed)})")
    return value


def check_fields(data, table: dict, where: str) -> dict:
    """The entry data checked against its table, with defaults filled in:
    the entry's echo. A non-object, an unknown key (the first one), a
    missing field, a wrong type (a bool is never an int) or a value
    outside the allowed ones raises ConfigError led by where.key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in data:
        if key not in table:
            raise ConfigError(f"{where}.{key}: unknown field")
    out = {}
    for key, row in table.items():
        value = data.get(key, row[1])
        if value is REQUIRED:
            raise ConfigError(f"{where}.{key}: required field is missing")
        if key in data or value is not None:
            out[key] = check_value(f"{where}.{key}", value, row)
    return out


def _monad(echo: dict) -> MonadInstance:
    return get_instance(echo["instance"], max_len=echo["max_len"],
                        max_support=echo["max_support"])


def _parse_suite(entry, i: int) -> tuple[Instance, tuple[str, ...], dict, dict]:
    where = f"suites[{i}]"
    echo = check_fields(entry, SUITE, where)
    sizes = echo["sizes"]
    if echo["instance"] == "reader":
        sizes.setdefault("E", 2)  # the environment, which SIZES leaves out by default
        inst = reader_functor(FiniteType("E", sizes["E"]))
    else:
        inst = _monad(echo)
    try:
        checks = suite_checks(inst, echo["laws"], echo["view"])
    except ValueError as exc:  # led by the field at fault
        raise ConfigError(f"{where}.{exc}")
    domains = {role: FiniteType(role, n) for role, n in sizes.items()}
    return inst, checks, domains, echo


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
        except RecursionError:  # parsing and rendering recurse once per level
            raise ConfigError(f"{where}[{j}]: value nests too deeply")
        out.append(value)
    return tuple(out)


def _parse_system(entry, i: int) -> tuple[MonSys, dict]:
    where = f"systems[{i}]"
    echo = check_fields(entry, SYSTEM, where)
    monad, domain = _monad(echo), FiniteType("X", echo["size"])
    carrier = monad.carrier_of(Base(domain))
    step = _parse_step_values(echo["step"], domain.size, f"{where}.step", carrier)
    return MonSys(echo["name"], monad, domain, step), echo


def _reward_cell(cell) -> int | Fraction:
    """An integral reward as an int, so sums of them stay C arithmetic."""
    if isinstance(cell, bool):  # as check_value holds, a bool is never a number
        raise TypeError("expected a rational, got bool")
    r = Fraction(cell)
    return r.numerator if r.denominator == 1 else r


def _parse_sdp(entry, i: int) -> tuple[Sdp, dict]:
    where = f"sdps[{i}]"
    echo = check_fields(entry, SDP, where)
    instance, measure = echo["instance"], echo["measure"]
    states, controls = echo["states"], echo["controls"]
    if instance not in MEASURES[measure].instances:
        raise ConfigError(f"{where}.measure: {measure!r} cannot measure {instance} structures")
    if len(echo["next"]) != controls:
        raise ConfigError(
            f"{where}.next: expected one row per control ({controls}), got {len(echo['next'])}"
        )
    monad, state_type = _monad(echo), FiniteType("X", states)
    carrier = monad.carrier_of(Base(state_type))
    next_vals = tuple(
        _parse_step_values(row, states, f"{where}.next[{y}]", carrier)
        for y, row in enumerate(echo["next"])
    )
    for y, row in enumerate(next_vals):
        for x, value in enumerate(row):
            if measure == "max" and value == Seq(()):
                raise ConfigError(f"{where}.next[{y}][{x}]: the max measure is undefined on []")
    reward = echo["reward"]
    if reward == "next-index":  # the index of the state a transition reaches
        table = ((tuple(range(states)),) * states,) * controls
    elif isinstance(reward, list):
        try:
            table = tuple(
                tuple(tuple(map(_reward_cell, row)) for row in plane)
                for plane in reward
            )
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{where}.reward: bad rational entry ({exc})")
        if len(table) != controls or any(
            len(plane) != states or any(len(row) != states for row in plane)
            for plane in table
        ):
            raise ConfigError(f"{where}.reward: expected shape [controls][states][states]")
        echo["reward"] = [[[str(r) for r in row] for row in plane] for plane in table]
    else:
        raise ConfigError(
            f"{where}.reward: expected 'next-index' or a nested table, got {reward!r}"
        )
    sdp = Sdp(echo["name"], echo["horizon"], state_type, FiniteType("Y", controls), monad,
              get_measure(measure), lambda t, x, y: next_vals[y.index][x.index],
              lambda t, x, y, x1: table[y.index][x.index][x1.index])
    return sdp, echo


def parse_config(data) -> RunConfig:
    top = check_fields(data, TOP, "config")
    cfg = RunConfig(
        top["seed"], top["budget"], top["carrier_cap"],
        [_parse_suite(entry, i) for i, entry in enumerate(top["suites"])],
        [_parse_system(entry, i) for i, entry in enumerate(top["systems"])],
        [_parse_sdp(entry, i) for i, entry in enumerate(top["sdps"])],
    )
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
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
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


def _execute(cfg: RunConfig) -> tuple[list[tuple[str, LawReport]], float]:
    """Run every check in declaration order on the calling thread;
    returns (group, report) pairs plus wall seconds."""
    t0 = time.perf_counter()
    out: list[tuple[str, LawReport]] = []
    q, cap = Quantifier(budget=cfg.budget, seed=cfg.seed), cfg.carrier_cap
    for inst, checks, domains, echo in cfg.suites:
        out.extend((f"suite:{echo['name']}", rep)
                   for rep in run_suite(inst, checks, domains, q, cap))
    for sys_obj, echo in cfg.systems:
        for check in echo["checks"]:
            out.append((f"system:{sys_obj.name}",
                        run_system_check(check, sys_obj, echo["n_max"], cap)))
    for sdp, _ in cfg.sdps:
        out.append((f"sdp:{sdp.name}", check_val_equiv(sdp, q, cap)))
    return out, time.perf_counter() - t0


def build_report(cfg: RunConfig, results: list[tuple[str, LawReport]],
                 elapsed_s: float) -> dict:
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
        "total_ms": round(elapsed_s * 1000, 3),
        "checks": [
            {"group": group, "law": rep.law_id,
             "elapsed_ms": round(rep.elapsed_ms, 3), "evaluated": rep.evaluated}
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
    lines.append(f"total={timing['total_ms']}ms")
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


def run(cfg: RunConfig, fmt: str = "text", out_path: str | None = None) -> int:
    results, elapsed = _execute(cfg)
    report = build_report(cfg, results, elapsed)
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
                        help="accepted for compatibility and has no effect: "
                        "checks run one after another in declaration order")
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
                    built.carrier_cap = cfg.carrier_cap
                    cfg = built
                else:
                    wanted = [s for s in cfg.suites if s[-1]["name"] == args.suite]
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
            cfg.seed = check_value("--seed", args.seed, TOP["seed"])
        if args.budget is not None:
            cfg.budget = check_value("--budget", args.budget, TOP["budget"])
        if args.jobs < 1:
            raise ConfigError("--jobs: must be at least 1")
        if args.out:
            try:  # append mode: creates a missing file, truncates none
                Path(args.out).open("a").close()
            except OSError as exc:
                raise ConfigError(f"--out: cannot write {args.out}: {exc}")
        return run(cfg, fmt=args.format, out_path=args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
