"""Apply each listed one-line mutant to a copy of the tree and run the tests.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names one small fault: a file, a text that
occurs in it exactly once, and what it becomes. The tool first runs the
tests on an unmutated copy, which must pass; then, for each mutant, it
copies the tree to a temporary directory, makes the one edit, and runs
``pytest -q -x -p no:cacheprovider`` there. The run leaves out the slow
gates in ``tests/test_acceptance.py`` and this tool's own test, which
checks that each listed text is still in its file and so would fail on
every mutated copy whatever the code does. A mutant is killed when that
run fails, survived when it passes, and equivalent when the list gives
the reason no test can tell it from the code (such a mutant is not run).
It prints one line per mutant, a killed one with the first test that
failed, and exits 1 if any mutant that is not equivalent survived. A
listed text that no longer occurs exactly once is an error, so the list
cannot go stale silently. It runs the tests once in full and once per
mutant up to the first failure, several minutes for this list.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
PYTEST = (
    "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--ignore=tests/test_acceptance.py", "--ignore=tests/test_mutants.py",
)
# left out of each copy: history and caches, which no test reads
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    equivalent: str = ""  # why no test can tell it apart, if none can


MUTANTS = (
    Mutant("strict engine deadline", "src/vecoff/engine.py",
           "return (start - task.arrival) <= slack(task)",
           "return (start - task.arrival) < slack(task)"),
    Mutant("ties to the highest server id", "src/vecoff/engine.py",
           "(at == best_at and m.id < best_id)", "(at == best_at and m.id > best_id)"),
    Mutant("doubled decision charge", "src/vecoff/engine.py",
           "clock += duration", "clock += 2 * duration"),
    Mutant("pick leaves the queue from its head", "src/vecoff/engine.py",
           "task = pending.pop(choice)", "task = pending.pop(0)"),
    Mutant("dropped tasks stay queued", "src/vecoff/engine.py",
           "pending[:] = feasible", "pending[:] = queued"),
    Mutant("swarm's <= personal best", "src/vecoff/heuristics.py",
           "if val < pbest_val[i]:", "if val <= pbest_val[i]:"),
    Mutant("replayed latency counts comm once", "src/vecoff/heuristics.py",
           "lats.append(waiting + proc + 2.0 * comms[pos])",
           "lats.append(waiting + proc + comms[pos])"),
    Mutant("strict replay deadline", "src/vecoff/heuristics.py",
           "if waiting <= slacks[pos]:", "if waiting < slacks[pos]:"),
    Mutant("online swarm commits its ordering's last task", "src/vecoff/heuristics.py",
           "return ordering[0]", "return ordering[-1]"),
    Mutant("swarm's pulls swapped", "src/vecoff/heuristics.py",
           "pull_p, pull_g = pulls", "pull_g, pull_p = pulls"),
    Mutant("swarm's global best is the last least personal best", "src/vecoff/heuristics.py",
           "pbest_x[pbest_val.index(best_val)]",
           "pbest_x[len(pbest_val) - 1 - pbest_val[::-1].index(best_val)]"),
    Mutant("replay overwrites the heap top", "src/vecoff/heuristics.py",
           "heapq.heapreplace(av, start + proc)", "av[0] = start + proc"),
    Mutant("induced ordering sorts dropped tasks by id", "src/vecoff/heuristics.py",
           "dropped.append((t.deadline, t.id, pos))", "dropped.append((t.id, t.deadline, pos))",
           equivalent="dropped tasks go last, where a replay drops them again in any "
           "order; the fixed-cost grid hash did not move"),
    Mutant("a rim sample before the chord is left out", "src/vecoff/mobility.py",
           "(step := inside(ka - 1)).any()", "False"),
    Mutant("a rim sample after the chord is left out", "src/vecoff/mobility.py",
           "(step := inside(kb + 1)).any()", "False"),
    Mutant("the chord's first sample counts as inside", "src/vecoff/mobility.py",
           "(step := (ka <= kb) & ~inside(ka)).any()", "False"),
    Mutant("the chord's last sample counts as inside", "src/vecoff/mobility.py",
           "(step := (ka <= kb) & ~inside(kb)).any()", "False"),
    Mutant("a sample on the rim is outside", "src/vecoff/mobility.py",
           "float(ay[i]) ** 2 <= r2", "float(ay[i]) ** 2 < r2"),
    Mutant("a crossing takes its second root", "src/vecoff/mobility.py",
           "np.where(hit1, s1, s2)", "np.where(hit2, s2, s1)"),
    Mutant("coverage holds a vehicle past its last sample", "src/vecoff/mobility.py",
           "trace.entry + (n - 1)", "trace.entry + n"),
    Mutant("encoder's deadline measured from arrival", "src/vecoff/rl/encoding.py",
           "(t.deadline - now) / ts", "(t.deadline - t.arrival) / ts"),
    Mutant("degenerate reward only below zero", "src/vecoff/rl/reward.py",
           "if gap_total <= 0.0", "if gap_total < 0.0"),
    Mutant("env rewards a pick past the encoder's cap", "src/vecoff/rl/envs.py",
           "if 0 <= action < visible:", "if 0 <= action < len(window.feasible):"),
    Mutant("mean wait over every task", "src/vecoff/experiments.py",
           "math.fsum(t.waiting for t in completed) / served",
           "math.fsum(t.waiting for t in completed) / (n or 1)"),
    Mutant("mean row truncates its window count", "src/vecoff/experiments.py",
           '"windows": round(mean["windows"])', '"windows": int(mean["windows"])'),
)


def _first_failure(tree: Path) -> str:
    """The id of the first test that fails in ``tree``, or "" when all pass."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, *PYTEST], cwd=tree, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode == 0:
        return ""
    lines = proc.stdout.splitlines()
    failed = [ln.split()[1] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def _copy(root: Path, tmp: str) -> Path:
    return Path(shutil.copytree(root, Path(tmp) / "tree", ignore=SKIP))


def run(root: Path, mutants: Sequence[Mutant]) -> Iterator[tuple[Mutant, str, str]]:
    """Each mutant in turn with its verdict (killed, survived or
    equivalent) and, for a killed one, the first test that failed.

    Raises RuntimeError when the unmutated tests fail, and ValueError
    when a mutant's text does not occur exactly once in its file.
    """
    for m in mutants:
        if (n := (root / m.file).read_text().count(m.old)) != 1:
            raise ValueError(f"{m.name}: {m.file} holds {n} copies of {m.old!r}, expected 1")
    with tempfile.TemporaryDirectory() as tmp:
        if failure := _first_failure(_copy(root, tmp)):
            raise RuntimeError(f"{failure} fails on an unmutated copy of {root}")
    for m in mutants:
        if m.equivalent:
            yield m, "equivalent", ""
            continue
        with tempfile.TemporaryDirectory() as tmp:
            tree = _copy(root, tmp)
            target = tree / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
            failure = _first_failure(tree)
        yield m, "killed" if failure else "survived", failure


def main() -> int:
    survivors = []
    for m, verdict, failure in run(ROOT, MUTANTS):
        why = f" ({m.equivalent or failure})" if m.equivalent or failure else ""
        print(f"{verdict:10} {m.name}{why}", flush=True)
        if verdict == "survived":
            survivors.append(m.name)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
