"""Set-up probe: one fresh interpreter that gets the program ready to work.

Run from the checkout root as `python3 perfbench/probe.py WORKLOAD WORKDIR`.
It imports rholab from `src/` and parses and validates the workload's inputs
from `WORKDIR/manifest.json`, then exits; `run.py` times the whole launch
for `setup_s`.  It imports nothing from the harness, so the time is the
program's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import rholab  # noqa: E402,F401
from rholab import bipartite, channels, cli, spin  # noqa: E402


def prepare(workload: str, manifest: dict) -> None:
    if workload.startswith("evolve-"):
        for path in manifest["scenarios"]:
            cli.load_scenario(path)
    elif workload == "sample-events":
        args = cli.build_parser().parse_args(manifest["argv"])
        spin.UnitVector3.from_iterable(args.a.split(","))
        spin.UnitVector3.from_iterable(args.b.split(","))
    elif workload == "analysis":
        with np.load(manifest["inputs"]) as inputs:
            for key in inputs.files:
                value = inputs[key]
                kind = key.split("_")[0]
                if kind == "kraus":
                    channels.KrausChannel(list(value))
                elif kind == "map":
                    channels.Superoperator(value.shape[0], value)
                elif kind == "generator":
                    channels.LindbladGenerator(value[0], list(value[1:]))
                else:
                    bipartite.BipartiteKet(bipartite.BipartiteSpace(4, 4), value[:4].reshape(-1))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    name, work = sys.argv[1], Path(sys.argv[2])
    prepare(name, json.loads((work / "manifest.json").read_text(encoding="utf-8")))
