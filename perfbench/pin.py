"""Regenerate the pinned reference outputs in perfbench/pinned/.

Run from the checkout root as `python3 perfbench/pin.py`.  It writes the
trajectory CSV of each shipped scenario and the SHA-256 of the full-size
sample-events file for the default seed, as the program produces them at
the current commit.  Pins are the behavioural contract: regenerate them only
for a change that is meant to alter these outputs, and say so.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from run import import_program
from workloads import DEFAULT_SEED, PINNED, SHIPPED_SCENARIOS, SampleEvents


class _Unpinned(SampleEvents):
    @classmethod
    def pinned_sha256(cls, seed, short):
        return None


def main() -> None:
    root = Path.cwd()
    rl = import_program(root)
    PINNED.mkdir(exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        for name in SHIPPED_SCENARIOS:
            code = rl.cli.main(["evolve", "--scenario", str(root / "scenarios" / f"{name}.json"),
                                "--out", str(PINNED / f"{name}.csv")])
            if code != 0:
                sys.exit(f"evolve {name} exited {code}")
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            wl = _Unpinned(root, Path(tmp), DEFAULT_SEED, short=False)
            (code,) = wl.run_pass(rl)
            if code != 0 or any(wl.check([code])):
                sys.exit("sample-events output failed its checks; not pinning it")
            digest = hashlib.sha256(wl.out.read_bytes()).hexdigest()
    (PINNED / SampleEvents.DEFAULT_SEED_SHA).write_text(
        f"{digest}  sample-events seed={DEFAULT_SEED} n={SampleEvents.N}\n", encoding="ascii")
    print(f"pinned {', '.join(SHIPPED_SCENARIOS)} and sample-events seed={DEFAULT_SEED}")


if __name__ == "__main__":
    main()
