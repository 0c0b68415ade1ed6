"""Experiment harness: every subcommand binds one library operation to a
JSON/CSV artifact on disk.

Configuration resolves flag > config-file section > built-in default, and
every JSON report embeds the resolved experiment parameters (execution
knobs like outdir and jobs are not part of the experiment identity).  All
randomness flows from explicit seeds, so rerunning a command with the same
configuration rewrites byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import density, oracles, powersums, randomsets, structure
from .errors import ResourceLimitError, UndefinedFitError, WidthOverflowError

#: Built-in defaults per subcommand; build_parser also makes each entry a
#: --<key> flag, so a new option needs only a new entry here.
DEFAULTS: dict[str, dict[str, Any]] = {
    "profile": {"k": 2, "h": 2, "lo": 1, "hi": 10000, "set": None, "outdir": "."},
    "sample": {
        "model": "density-k",
        "k": 2,
        "h": 5,
        "epsilon": 0.1,
        "seed": 1,
        "xmax": 1000000,
        "table_file": None,
        "outdir": ".",
    },
    "expect": {
        "model": "density-k",
        "k": 2,
        "h": 5,
        "epsilon": 0.1,
        "seed": 0,
        "table_file": None,
        "x": 1000000,
        "n": None,
        "l": 2,
        "decay": False,
        "lo": 1000,
        "hi": 1000000,
        "points_per_decade": 12,
        "outdir": ".",
    },
    "pack": {"set": None, "k": 2, "n": 325, "l": 2, "mode": "exact", "cap": 64, "outdir": "."},
    "sunflower": {"sets": None, "k": 2, "n": 325, "l": 2, "r": 3, "outdir": "."},
    "verify": {"set": None, "k": 5, "h": 2, "g": 1, "nmax": 200000, "outdir": "."},
    "scan": {
        "set": None,
        "model": "density-k",
        "k": 2,
        "h": 2,
        "epsilon": 0.1,
        "seed": 1,
        "nmax": 100000,
        "windows": 4,
        "outdir": ".",
        "jobs": 1,
    },
    "density": {
        "set": None,
        "model": "density-k",
        "k": 2,
        "h": 5,
        "epsilon": 0.1,
        "seed": 1,
        "lo": 100,
        "hi": 1000000,
        "points_per_decade": 12,
        "outdir": ".",
    },
    "concentrate": {
        "model": "density-k",
        "k": 2,
        "h": 5,
        "epsilon": 0.1,
        "x": 1000000,
        "trials": 50,
        "seed_base": 1,
        "outdir": ".",
        "jobs": 1,
    },
    "oracle": {
        "mode": "taxicab",
        "k": 3,
        "max": 20000,
        "threshold": 2,
        "h": 2,
        "eta": 0.05,
        "n": None,
        "outdir": ".",
    },
    "greedy": {"k": 2, "h": 2, "g": 1, "xmax": 10000, "outdir": "."},
}


class CommandError(Exception):
    """A subcommand failed; message is already user-facing."""


def _resolve_config(command: str, args: argparse.Namespace) -> dict[str, Any]:
    resolved = dict(DEFAULTS[command])
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CommandError(f"cannot read config file {args.config}: {exc}") from exc
        section = file_cfg.get(command, {})
        if not isinstance(section, dict):
            raise CommandError(f"config section {command!r} must be an object")
        unknown = set(section) - set(resolved)
        if unknown:
            raise CommandError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in section.items():
            _check_config_value(command, key, value)
        resolved.update(section)
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _report_config(config: dict[str, Any]) -> dict[str, Any]:
    # outdir and jobs are execution knobs, not experiment identity
    return {k: v for k, v in config.items() if k not in ("outdir", "jobs")}


def _write_json(path: Path, payload: dict[str, Any], written: list[Path]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")
    written.append(path)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]], written: list[Path]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    written.append(path)


def _load_set_or_full(config: dict[str, Any], x_max: int) -> powersums.PowerSet:
    if config.get("set"):
        return powersums.read_power_set(config["set"])
    return powersums.PowerSet.all_powers(config["k"], x_max)


def _build_model(config: dict[str, Any]) -> randomsets.RandomModel:
    kind = config["model"]
    if kind == randomsets.DENSITY_K:
        return randomsets.RandomModel.density_k(config["k"], config["epsilon"], config.get("seed", 0))
    if kind == randomsets.DENSITY_H:
        return randomsets.RandomModel.density_h(
            config["k"], config["h"], config["epsilon"], config.get("seed", 0)
        )
    if kind == randomsets.TABLE:
        if not config.get("table_file"):
            raise CommandError("table models need --table-file with JSON [[n, alpha], ...]")
        entries = json.loads(Path(config["table_file"]).read_text())
        return randomsets.RandomModel.from_table(config["k"], entries, config.get("seed", 0))
    raise CommandError(f"unknown model kind {kind!r}")


def _load_set_or_sample(config: dict[str, Any], x_max: int) -> tuple[powersums.PowerSet, str]:
    if config.get("set"):
        return powersums.read_power_set(config["set"]), f"file:{config['set']}"
    model = _build_model(config)
    return randomsets.sample_set(model, x_max), f"sampled:{model.kind}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_profile(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    if config["set"]:
        domain: powersums.Domain = powersums.read_power_set(config["set"])
    else:
        domain = powersums.FullPowers(config["k"])
    profile = powersums.representation_profile((config["lo"], config["hi"]), config["h"], domain)
    _write_csv(outdir / "profile.csv", ("n", "strict", "weak"), profile.rows(), written)
    nonzero = int((profile.weak_counts > 0).sum())
    _write_json(
        outdir / "profile.json",
        {
            "command": "profile",
            "config": _report_config(config),
            "result": {
                "domain": profile.domain,
                "n_lo": profile.n_lo,
                "n_hi": profile.n_hi,
                "max_strict": int(profile.strict_counts.max(initial=0)),
                "max_weak": int(profile.weak_counts.max(initial=0)),
                "weak_nonzero": nonzero,
                "backend": profile.backend,
            },
        },
        written,
    )
    return 0, f"profile [{config['lo']},{config['hi']}]: {nonzero} targets with weak count > 0"


def _cmd_sample(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    model = _build_model(config)
    drawn = randomsets.sample_set(model, config["xmax"])
    header = [
        f"model={model.kind}",
        f"k={model.k}",
        f"h={model.h if model.h is not None else '-'}",
        f"epsilon={model.epsilon if model.epsilon is not None else '-'}",
        f"seed={model.seed}",
        f"xmax={config['xmax']}",
    ]
    set_path = outdir / "sample_set.txt"
    powersums.write_power_set(drawn, set_path, comments=header)
    written.append(set_path)
    _write_json(
        outdir / "sample.json",
        {
            "command": "sample",
            "config": _report_config(config),
            "result": {"size": len(drawn), "set_file": set_path.name},
        },
        written,
    )
    return 0, f"sampled {len(drawn)} elements up to {config['xmax']} -> {set_path}"


def _cmd_expect(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    model = _build_model(config)
    result: dict[str, Any]
    if config["decay"]:
        grid = density.geometric_grid(config["lo"], config["hi"], config["points_per_decade"])
        fit = randomsets.expectation_decay_fit(model, config["l"], grid)
        _write_csv(
            outdir / "expect.csv",
            ("n", "expected"),
            [(n, repr(e)) for n, e in fit.points],
            written,
        )
        result = {
            "kind": "decay_fit",
            "slope": fit.slope,
            "intercept": fit.intercept,
            "points_used": len(fit.points),
            "points_dropped": list(fit.dropped),
        }
        summary = f"decay fit over {len(fit.points)} points: slope {fit.slope:.4f}"
    elif config["n"] is not None:
        value = randomsets.expected_representation_count(model, config["n"], config["l"])
        result = {"kind": "representation", "n": config["n"], "l": config["l"], "expected": value}
        summary = f"E[R({config['n']})] with {config['l']} parts = {value:.6g}"
    else:
        pair = randomsets.expected_count(model, config["x"])
        result = {
            "kind": "count",
            "x": config["x"],
            "exact": pair.exact,
            "closed_form": pair.closed_form,
            "gap": None if pair.closed_form is None else pair.exact - pair.closed_form,
        }
        summary = f"E[A({config['x']})] = {pair.exact:.6g}"
    _write_json(
        outdir / "expect.json",
        {"command": "expect", "config": _report_config(config), "result": result},
        written,
    )
    return 0, summary


def _cmd_pack(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    A = _load_set_or_full(config, config["n"])
    res = structure.max_disjoint_representations(
        config["n"], config["l"], A, config["mode"], cap=config["cap"]
    )
    _write_json(
        outdir / "pack.json",
        {
            "command": "pack",
            "config": _report_config(config),
            "result": {
                "n": res.n,
                "l": res.l,
                "f_value": res.f_value,
                "witness": [list(w) for w in res.witness],
                "exact": res.exact,
                "capped": res.capped,
            },
        },
        written,
    )
    return 0, f"f({config['n']}) = {res.f_value} ({'exact' if res.exact else 'greedy lower bound'})"


def _parse_sets_file(path: str) -> list[frozenset[int]]:
    sets = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sets.append(frozenset(int(tok) for tok in line.replace(",", " ").split()))
    return sets


def _cmd_sunflower(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    if config["sets"]:
        family_input = _parse_sets_file(config["sets"])
        source = f"file:{config['sets']}"
    else:
        reps = powersums.enumerate_representations(
            config["n"], config["l"], powersums.FullPowers(config["k"]), "strict"
        )
        family_input = [frozenset(rep.parts) for rep in reps]
        source = f"representations of {config['n']}"
    found = structure.find_delta_system(family_input, config["r"])
    result: dict[str, Any] = {"source": source, "collection_size": len(family_input)}
    if found is None:
        result["found"] = False
        summary = f"no {config['r']}-sunflower among {len(family_input)} sets"
    else:
        result["found"] = True
        result["core"] = sorted(found.core)
        result["petals"] = [sorted(p) for p in found.petals]
        summary = f"{config['r']}-sunflower with core {sorted(found.core)}"
    _write_json(
        outdir / "sunflower.json",
        {"command": "sunflower", "config": _report_config(config), "result": result},
        written,
    )
    return 0, summary


def _cmd_verify(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    A = _load_set_or_full(config, config["nmax"])
    violation = structure.verify_bhg(A, config["h"], config["g"], config["nmax"])
    bound = structure.sidon_counting_bound(config["h"], config["g"], config["nmax"])
    result: dict[str, Any] = {
        "set_size": len(A),
        "counting_bound_at_nmax": bound,
        "ok": violation is None,
    }
    if violation is not None:
        result["violation"] = {"n": violation.n, "weak_count": violation.weak_count}
    _write_json(
        outdir / "verify.json",
        {"command": "verify", "config": _report_config(config), "result": result},
        written,
    )
    if violation is None:
        return 0, f"ok: B_{config['h']}[{config['g']}] holds up to {config['nmax']}"
    return 2, f"violation at n={violation.n} (weak count {violation.weak_count})"


def _cmd_scan(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    A, source = _load_set_or_sample(config, config["nmax"])
    report = structure.boundedness_scan(
        A, config["h"], config["nmax"], config["windows"], jobs=config["jobs"]
    )
    header = ["window_lo", "window_hi", "max_R"] + [f"max_f_{l}" for l in range(2, config["h"] + 1)]
    rows = [[w.lo, w.hi, w.max_r, *w.max_f] for w in report.windows]
    _write_csv(outdir / "scan.csv", header, rows, written)
    _write_json(
        outdir / "scan.json",
        {
            "command": "scan",
            "config": _report_config(config),
            "result": {
                "source": source,
                "set_size": len(A),
                "max_r_by_window": list(report.max_r_by_window),
                "packing_bound_ok": report.all_bounds_ok,
            },
        },
        written,
    )
    return 0, f"windows max R = {list(report.max_r_by_window)}, packing bound ok: {report.all_bounds_ok}"


def _cmd_density(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    A, source = _load_set_or_sample(config, config["hi"])
    grid = density.geometric_grid(config["lo"], config["hi"], config["points_per_decade"])
    fit = density.fit_density_exponent(A, grid)
    _write_csv(outdir / "density.csv", ("x", "count"), list(fit.points), written)
    _write_json(
        outdir / "density.json",
        {
            "command": "density",
            "config": _report_config(config),
            "result": {
                "source": source,
                "set_size": len(A),
                "exponent": fit.exponent,
                "intercept": fit.intercept,
                "residual": fit.residual,
                "points_dropped": list(fit.dropped),
            },
        },
        written,
    )
    return 0, f"density exponent {fit.exponent:.4f} over {len(fit.points)} grid points"


def _cmd_concentrate(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    model = _build_model(config)
    seeds = list(range(config["seed_base"], config["seed_base"] + config["trials"]))
    report = density.concentration_trial(model, config["x"], seeds, jobs=config["jobs"])
    rows = [
        (report.x, row.count, repr(report.expected), repr(row.deviation)) for row in report.rows
    ]
    _write_csv(outdir / "concentrate.csv", ("x", "a_x", "expected", "deviation"), rows, written)
    _write_json(
        outdir / "concentrate.json",
        {
            "command": "concentrate",
            "config": _report_config(config),
            "result": {
                "x": report.x,
                "trials": report.trials,
                "delta": report.delta,
                "expected": report.expected,
                "violation_fraction": report.violation_fraction,
                "chernoff_bound": report.chernoff_bound,
                "inverse_square_bound": report.inverse_square_bound,
                "flagged": report.flagged,
            },
        },
        written,
    )
    return 0, (
        f"{report.trials} trials at x={report.x}: violation fraction "
        f"{report.violation_fraction}, chernoff bound {report.chernoff_bound:.3g}"
    )


def _cmd_oracle(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    mode = config["mode"]
    result: dict[str, Any] = {"mode": mode}
    if mode == "taxicab":
        hits = oracles.taxicab_scan(config["k"], config["max"], config["threshold"])
        _write_csv(outdir / "oracle.csv", ("n", "count"), hits, written)
        result.update({"hits": len(hits), "first": hits[:10]})
        summary = f"taxicab k={config['k']}: {len(hits)} targets up to {config['max']}"
    elif mode == "two-squares":
        pair = oracles.sum_two_squares_sieve(config["max"])
        recount = oracles.count_two_squares_by_square_test(config["max"])
        _write_csv(
            outdir / "oracle.csv",
            ("x", "count", "normalized"),
            [(config["max"], pair.count, repr(pair.normalized))],
            written,
        )
        result.update(
            {"count": pair.count, "normalized": pair.normalized, "recount_matches": recount == pair.count}
        )
        summary = f"two-squares count up to {config['max']}: {pair.count}"
    elif mode == "divisor":
        if config["n"] is not None:
            check = oracles.divisor_bound_check(config["k"], config["n"])
            _write_csv(
                outdir / "oracle.csv",
                ("n", "weak_count", "divisor_count"),
                [(check.n, check.weak_count, check.divisor_count)],
                written,
            )
            result.update(dataclasses.asdict(check))
            summary = (
                f"n={check.n}: weak count {check.weak_count} <= d(n) = {check.divisor_count}: {check.ok}"
            )
        else:
            report = oracles.divisor_bound_scan(config["k"], config["max"])
            _write_csv(outdir / "oracle.csv", ("n", "weak_count", "divisor_count"), report.rows, written)
            result.update(
                {
                    "represented": report.represented,
                    "max_weak": report.max_weak,
                    "bound_violations": list(report.bound_violations),
                    "uniqueness_violations": list(report.uniqueness_violations),
                    "ok": report.ok,
                }
            )
            summary = f"divisor bound k={config['k']} up to {config['max']}: ok={report.ok}"
    elif mode == "hypothesis-k":
        report = oracles.hypothesis_k_scan(config["k"], config["h"], config["max"], config["eta"])
        _write_csv(outdir / "oracle.csv", ("n", "count"), report.violations, written)
        result.update(
            {
                "max_ratio": report.max_ratio,
                "worst_n": report.worst_n,
                "violations": [list(v) for v in report.violations],
            }
        )
        summary = (
            f"hypothesis-k k={config['k']} h={config['h']}: max R(n)/n^{config['eta']} = "
            f"{report.max_ratio:.4f} at n={report.worst_n}, {len(report.violations)} violations"
        )
    else:
        raise CommandError(f"unknown oracle mode {mode!r}")
    _write_json(
        outdir / "oracle.json",
        {"command": "oracle", "config": _report_config(config), "result": result},
        written,
    )
    return 0, summary


def _cmd_greedy(config: dict[str, Any], outdir: Path, written: list[Path]) -> tuple[int, str]:
    res = structure.greedy_bounded_subset(config["k"], config["h"], config["g"], config["xmax"])
    set_path = outdir / "greedy_set.txt"
    powersums.write_power_set(
        res.power_set,
        set_path,
        comments=[
            f"greedy B_{config['h']}[{config['g']}] probe over {config['k']}-th powers",
            f"xmax={config['xmax']}",
        ],
    )
    written.append(set_path)
    rows = [(root, root ** config["k"], int(ok)) for root, ok in res.decisions]
    _write_csv(outdir / "greedy.csv", ("root", "value", "accepted"), rows, written)
    _write_json(
        outdir / "greedy.json",
        {
            "command": "greedy",
            "config": _report_config(config),
            "result": {
                "size": len(res.power_set),
                "density_exponent": res.density_exponent,
                "set_file": set_path.name,
            },
        },
        written,
    )
    return 0, f"greedy kept {len(res.power_set)} of {len(res.decisions)} candidates"


_COMMANDS = {
    "profile": _cmd_profile,
    "sample": _cmd_sample,
    "expect": _cmd_expect,
    "pack": _cmd_pack,
    "sunflower": _cmd_sunflower,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "density": _cmd_density,
    "concentrate": _cmd_concentrate,
    "oracle": _cmd_oracle,
    "greedy": _cmd_greedy,
}


#: Help strings: (command, None) for a subcommand, (command, key) for one of
#: its options, (None, key) for an option every command shares.
_HELP: dict[tuple[str | None, str | None], str] = {
    ("profile", None): "strict/weak representation counts over a range",
    ("profile", "set"): "power-set file instead of the full domain",
    ("sample", None): "draw a seeded random power set",
    ("expect", None): "exact expectations and decay fits",
    ("expect", "x"): "report E[A(x)] (default mode)",
    ("expect", "n"): "report E[R(n)] with --l parts instead",
    ("expect", "decay"): "fit E[R(n)] decay over a grid",
    ("pack", None): "maximum disjoint representation family",
    ("sunflower", None): "find a Delta-system in a set collection",
    ("sunflower", "sets"): "file with one set per line",
    ("sunflower", "n"): "build the collection from representations of n",
    ("verify", None): "B_h[g] verification scan",
    ("scan", None): "windowed boundedness scan",
    ("density", None): "counting function and exponent fit",
    ("concentrate", None): "concentration trials for A(x)",
    ("oracle", None): "classical counting oracles",
    ("oracle", "n"): "single-target divisor check",
    ("greedy", None): "greedy bounded-representation subset",
    (None, "outdir"): "directory for artifacts (default .)",
}

#: The oracle takes its mode as one of these mutually exclusive flags.
_ORACLE_MODES = ("taxicab", "two-squares", "divisor", "hypothesis-k")


def _option_type(key: str, default: Any) -> type:
    """The type a DEFAULTS entry takes, from a flag or a config file."""
    # n is the one integer without a default; the other None defaults are
    # file paths, which stay strings
    if key == "n":
        return int
    return str if default is None else type(default)


def _check_config_value(command: str, key: str, value: Any) -> None:
    default = DEFAULTS[command][key]
    if value is None and default is None:
        return
    want = _option_type(key, default)
    accepted = (int, float) if want is float else want
    # bool is an int subclass, but neither stands in for the other
    if not isinstance(value, accepted) or isinstance(value, bool) != (want is bool):
        raise CommandError(
            f"config key {command}.{key} must be {want.__name__}, got {type(value).__name__} {value!r}"
        )


def _option_kwargs(defaults: dict[str, Any], key: str) -> dict[str, Any]:
    """argparse keywords for one DEFAULTS entry.  Every flag defaults to
    None so that an absent flag falls through to the config file."""
    default = defaults[key]
    if isinstance(default, bool):
        return {"action": "store_const", "const": True}
    kwargs: dict[str, Any] = {}
    want = _option_type(key, default)
    if want is not str:
        kwargs["type"] = want
    if key == "model":
        # only the commands that read --table-file can build table models
        kwargs["choices"] = (
            randomsets.KINDS
            if "table_file" in defaults
            else (randomsets.DENSITY_K, randomsets.DENSITY_H)
        )
    elif key == "mode":  # pack's; the oracle's mode is a group of flags
        kwargs["choices"] = ("exact", "greedy")
    return kwargs


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per DEFAULTS section and one --<key> flag per entry."""
    parser = argparse.ArgumentParser(
        prog="powersidon",
        description="Experiments on generalized Sidon sets of perfect powers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        p = subs.add_parser(command, help=_HELP[command, None])
        for key in defaults:
            if command == "oracle" and key == "mode":
                group = p.add_mutually_exclusive_group()
                for mode in _ORACLE_MODES:
                    group.add_argument(f"--{mode}", dest="mode", action="store_const", const=mode)
                continue
            flags = ["-k", "--k"] if key == "k" else [f"--{key.replace('_', '-')}"]
            p.add_argument(
                *flags,
                dest=key,
                help=_HELP.get((command, key)) or _HELP.get((None, key)),
                **_option_kwargs(defaults, key),
            )
        p.add_argument("--config", help="JSON config file with per-command sections")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    written: list[Path] = []
    try:
        config = _resolve_config(args.command, args)
        outdir = Path(config["outdir"])
        outdir.mkdir(parents=True, exist_ok=True)
        code, summary = _COMMANDS[args.command](config, outdir, written)
    except (
        CommandError,
        ResourceLimitError,
        UndefinedFitError,
        WidthOverflowError,
        ValueError,
        OSError,
    ) as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1
    print(summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
