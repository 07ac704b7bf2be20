"""Command line front end: ``nfnls <kind> --config <file> [--seed S] [--out DIR]``.

The config file is flat ``key = value`` lines with dotted keys matching the
experiment fields (``grid.B = 16``, ``solver.q = 2.0``, ...).  ``#`` starts a
comment.  A key the kind's suite does not read is a configuration error (exit
code 2).  Exit code 0 means every check in the report passed.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError
from .harness import EXPERIMENT_KINDS, ExperimentConfig, run_experiment


def parse_config_text(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = _coerce(val)
    return out


def _coerce(val: str):
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    if val.startswith('"') and val.endswith('"') and len(val) >= 2:
        return val[1:-1]
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        pass
    return val


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="nfnls", description=__doc__)
    p.add_argument("kind", choices=EXPERIMENT_KINDS)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for report.json and tables")
    args = p.parse_args(argv)

    kv = {}
    if args.config:
        with open(args.config) as fh:
            kv = parse_config_text(fh.read())
    if args.seed is not None:
        kv["seed"] = args.seed
    if args.out is not None:
        kv["out"] = args.out
    try:
        cfg = ExperimentConfig.from_mapping(args.kind, kv)
        report = run_experiment(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
