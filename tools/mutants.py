"""Which one-line defects in the engine and the input rule does the test suite catch?

Copies the package, its tests and the files they read into a temporary
directory, then, one defect at a time, applies the defect to the copy as an
exact-text replacement and runs the suite there.  The tests that pin outputs
by digest are left out (``EXCLUDED``): they catch any change at all, and the
question is what the other checks catch.  The first row runs the copy with
no defect, which must pass.  Prints a Markdown table of each defect and the
tests that failed; nothing under the repository is written.

    python3 tools/mutants.py

Needs pytest and numpy, like the suite; the script itself uses only the
standard library.  One suite run takes a few minutes on 2 CPUs.  Exits 1
if the copy fails without a defect or a defect fails no test.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: what the suite reads: the package, the tests, their configuration, the
#: README and demos they check and the archived grid
COPIED = ("src", "tests", "demos", "artifacts", "pyproject.toml", "README.md")

#: the digest and output-oracle tests, the seed oracle and the acceptance
#: check that fails on purpose (node id prefixes, so every case goes)
EXCLUDED = (
    "tests/test_core.py::test_seed_oracle",
    "tests/test_core.py::test_published_scale_ensemble_digest",
    "tests/test_core.py::test_published_drift_sweep_digest",
    "tests/test_cli.py::test_oracle_grid_output_oracle",
    "tests/test_cli.py::test_sweep_output_oracle",
    "tests/test_experiment.py::test_preset_specs_are_pinned",
    "tests/test_meanfield.py::test_meanfield_scan_output_oracle",
    "tests/test_meanfield.py::test_dense_meanfield_scan_output_oracle",
    "tests/test_acceptance.py::test_08b_strong_disorder_low_coupling_level",
)

ENGINE = "src/firmglass/core.py"

#: (what the defect does, file, exact text, replacement)
DEFECTS = (
    ("the fill writes only the upper triangle", ENGINE,
     "couplings[i, i + 1:] = couplings[i + 1:, i] = normals[start:stop]",
     "couplings[i, i + 1:] = normals[start:stop]"),
    ("the rating moves by the old move", ENGINE,
     "ratings[firm] = rating + new",
     "ratings[firm] = rating + old"),
    ("the up and down drift weights are swapped", ENGINE,
     "f_down, f_stay, f_up = params.f_table",
     "f_up, f_stay, f_down = params.f_table"),
    ("the stay and up drift weights are swapped", ENGINE,
     "f_down, f_stay, f_up = params.f_table",
     "f_down, f_up, f_stay = params.f_table"),
    ("the reflecting barrier at r_max is dropped", ENGINE,
     "if rating != 0 and (rating != r_max or new != 1):",
     "if rating != 0:"),
    ("firms are drawn without replacement", ENGINE,
     "return rng.integers(0, params.n_firms, size=params.n_firms)",
     "return rng.permutation(params.n_firms)"),
    ("require_real accepts a bool", ENGINE,
     "if isinstance(value, bool) or not isinstance(value, Real):",
     "if not isinstance(value, Real):"),
    # skipping the whole range check lets a test build the grid of step
    # 1e-4, 50 million rows, which exhausts the memory of a small machine
    ("require_real skips its upper bound", ENGINE,
     "if not low <= value <= high:",
     "if not low <= value:"),
)


def check_defects() -> None:
    """Refuse to start if a defect's text is not in its file exactly once."""
    for name, path, old, _ in DEFECTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            sys.exit(f"mutants: {name!r}: {path} holds its text {count} times, not once: {old!r}")


def failed_tests(copy: Path) -> list[str]:
    """Run the suite on ``copy``; return the failed and erroring node ids."""
    deselect = [arg for node in EXCLUDED for arg in ("--deselect", node)]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *deselect],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode not in (0, 1) or (done.returncode == 1 and not failed):
        sys.exit(f"mutants: pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    print(done.stdout.splitlines()[-1], file=sys.stderr)
    return failed


def summary(failed: list[str]) -> str:
    """The failed tests, a parametrized test's cases counted under its name."""
    if not failed:
        return "none"
    counts = Counter(re.sub(r"\[.*\]$", "", node.removeprefix("tests/")) for node in failed)
    names = [f"`{name}`" + (f" ({count} cases)" if count > 1 else "")
             for name, count in counts.items()]
    return f"{len(failed)}: " + ", ".join(names)


def main() -> int:
    check_defects()
    rows, missed = [], False
    with tempfile.TemporaryDirectory(prefix="firmglass-mutants-") as scratch:
        copy = Path(scratch)
        for item in COPIED:
            source, target = ROOT / item, copy / item
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        print("mutants: no defect", file=sys.stderr)
        failed = failed_tests(copy)
        rows.append(("(none)", summary(failed)))
        missed = bool(failed)
        for name, path, old, new in DEFECTS:
            print(f"mutants: {name}", file=sys.stderr)
            original = (copy / path).read_text()
            (copy / path).write_text(original.replace(old, new))
            failed = failed_tests(copy)
            (copy / path).write_text(original)
            rows.append((name, summary(failed)))
            missed = missed or not failed
    print("| defect | tests that failed |")
    print("|---|---|")
    for name, caught in rows:
        print(f"| {name} | {caught} |")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
