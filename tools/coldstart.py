"""Cold-start time of one `foltools` command per process.

    python3 tools/coldstart.py [--src DIR] [--repeat N]
    python3 tools/coldstart.py --against DIR [--src DIR] [--repeat N]

Runs each command below in N fresh interpreters through the console entry
point (`foltools.cli.main`), with `foltools` imported from DIR (default:
this checkout's src/), and prints the median wall time of one process, from
its start to its exit, in each of two modes:

- `cached`: bytecode read from a temporary PYTHONPYCACHEPREFIX, which one
  untimed run of each command fills first;
- `source`: PYTHONDONTWRITEBYTECODE=1, so every `foltools` module is
  compiled from source in every process, as when a checkout is run once.

The commands are `bounds --theorem t1 --m 3`, `singularities` and
`euler-check --chi 2` on `construct gallery example1`, and `ovals --res 64`
on `construct gallery quartic-4-ovals`.  Each tree's `foltools/*.py` is
copied into a temporary directory first, so no bytecode that a tree already
holds is read and nothing is written inside the repository.

With `--against DIR` every process runs on both trees in turn, the tree
that goes first alternating from run to run, as `replay.py --against` does,
and each row gives both medians and the change.  A command whose exit code
differs between runs or between trees is named, and the script exits 1.

Only the standard library is used here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "from foltools.cli import main; main()"
EX1, QUARTIC = "example1.fol", "quartic.fol"
COMMANDS = (  # (label, argv with document names relative to the work directory)
    ("bounds t1 m=3", ["bounds", "--theorem", "t1", "--m", "3"]),
    ("singularities example1", ["singularities", EX1, "--field", "example1"]),
    ("euler-check example1", ["euler-check", EX1, "--field", "example1", "--curve", "curve", "--chi", "2"]),
    ("ovals quartic res 64", ["ovals", QUARTIC, "--curve", "curve", "--res", "64"]),
)
MODES = ("cached", "source")


def copy_tree(src: Path, dest: Path) -> Path:
    """`src/foltools/*.py` copied into `dest/foltools`, without any bytecode."""
    (dest / "foltools").mkdir(parents=True)
    for path in sorted((src / "foltools").glob("*.py")):
        shutil.copyfile(path, dest / "foltools" / path.name)
    return dest


def environment(tree: Path, mode: str, prefix: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(tree)
    if mode == "cached":
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run(argv: list[str], env: dict[str, str], work: Path) -> tuple[int, float]:
    """(exit code, wall seconds) of one fresh `foltools` process.  No
    timeout: `wait` with one polls the child with sleeps of up to 50 ms,
    which would round the times up to that step."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - start


def measure(trees: list[Path], repeat: int, work: Path) -> dict[tuple[str, str], list[list[tuple[int, float]]]]:
    """runs[(label, mode)][tree]: `repeat` (exit code, seconds) pairs per tree,
    the tree that runs first alternating from run to run."""
    prefix = work / "pycache"
    first = environment(trees[0], "source", prefix)
    for name, out in (("example1", EX1), ("quartic-4-ovals", QUARTIC)):
        code, _ = run(["construct", "gallery", name, "--out", out], first, work)
        if code != 0:
            raise SystemExit(f"construct gallery {name} exited {code}")
    for tree in trees:  # fill the bytecode cache: one untimed run of each command
        for _, argv in COMMANDS:
            run(argv, environment(tree, "cached", prefix), work)
    runs = {}
    k = 0
    for label, argv in COMMANDS:
        for mode in MODES:
            runs[label, mode] = [[] for _ in trees]
            envs = [environment(tree, mode, prefix) for tree in trees]
            for _ in range(repeat):
                order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
                for t in order:
                    runs[label, mode][t].append(run(argv, envs[t], work))
                k += 1
    return runs


def report(runs, names: list[str]) -> int:
    """Print one row per command and mode; 1 if an exit code is not the same everywhere."""
    header = f"{'command':<24} {'mode':<7}" + "".join(f" {name:>12}" for name in names)
    print(header + ("   change" if len(names) == 2 else "") + "   exit")
    bad = []
    for (label, mode), per_tree in runs.items():
        medians = [statistics.median(s for _, s in pairs) for pairs in per_tree]
        codes = sorted({code for pairs in per_tree for code, _ in pairs})
        line = f"{label:<24} {mode:<7}" + "".join(f" {1000 * m:9.1f} ms" for m in medians)
        if len(medians) == 2:
            line += f"   {100 * (medians[1] / medians[0] - 1):+6.1f}%"
        print(line + "   " + ",".join(map(str, codes)))
        if len(codes) > 1:
            bad.append(f"{label} ({mode}): exit codes {codes}")
    for text in bad:
        print(text)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding foltools/")
    parser.add_argument("--against", type=Path, metavar="DIR", help="also time this source tree, alternating with --src")
    parser.add_argument("--repeat", type=int, default=10, metavar="N", help="fresh processes per command, mode and tree")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sources = [args.src] if args.against is None else [args.against, args.src]
    for src in sources:
        if not (src / "foltools" / "cli.py").is_file():
            parser.error(f"{src} holds no foltools/cli.py")
    with tempfile.TemporaryDirectory(prefix="coldstart-") as tmp:
        work = Path(tmp)
        trees = [copy_tree(src, work / f"tree{k}") for k, src in enumerate(sources)]
        names = ["src"] if args.against is None else ["against", "src"]
        print(f"median of {args.repeat} fresh process(es) per row; " + ", ".join(f"{n} = {s}" for n, s in zip(names, sources)))
        return report(measure(trees, args.repeat, work), names)


if __name__ == "__main__":
    sys.exit(main())
