"""Answer audit: the exact answers of fixed solver pools, one line per run.

    python3 tools/answers.py            # rewrite tools/answers.txt
    python3 tools/answers.py --check    # diff the current answers against it

Run it from any directory; it imports vsrobust from this checkout's
``src/``, the benchmark's instance pools from ``vsrbench/`` and the random
draws from ``tests/oracles.py``.  Each line is

    <label> <sha1 of x> <repr(value)> <iterations> <hex of the final LB>

for ``algorithm1`` with ``HighsBackend``, or with ``EnumerationBackend``
where the label starts with ``enum`` (iterations and LB are ``-`` for
``solve_minmax_regret_fixed``, which returns neither).  A run that raises
records the exception instead.  The pools:

- the 120 criterion-11 cells (layered A; N 5, 10, 15; k 5, 10; seeds 0-19);
- the first 200 ``layered-milp`` instances of benchmark seed 1;
- the 40 ``general-cuts`` pool instances;
- two-path L50 and L150 (d 0.05, 0.10, 0.15; seeds 0-1);
- 70 ``random_instance`` draws (SplitMix64 seed 3737, odd draws with a
  ``random_weight``) under the ``auto`` and ``general`` formulations, and
  ``solve_minmax_regret_fixed`` at size 0.37 on the same draws;
- with ``EnumerationBackend``: the 12 ``layered-enum`` pool instances, the
  criterion-11 enumeration cell (N 5, k 5, seeds 0-19) and the 70 random
  draws under ``auto`` and ``general``.

A change that moves a tied optimum, an iteration count or the last bits of
a lower bound shows here; ``--check`` lists each changed line and counts
the changed fields.  It takes about two minutes on a 2-core machine, most
of it in the criterion-11 cells; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = Path(__file__).resolve().parent / "answers.txt"
for sub in ("src", "vsrbench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402

from vsrobust import (EnumerationBackend, HighsBackend,  # noqa: E402
                      WeightFunction, algorithm1, solve_minmax_regret_fixed)
from vsrobust.instances import SplitMix64, gen_layered, gen_twopath  # noqa: E402

FIELDS = ("x", "value", "iterations", "lb")
UNIT = WeightFunction.constant(0.0, 1.0)


def _sha1(x) -> str:
    return hashlib.sha1(np.asarray(x, dtype=np.int8).tobytes()).hexdigest()


def _solve(instance, w, formulation="auto", backend=HighsBackend):
    x, value, state = algorithm1(instance, w, backend=backend(),
                                 formulation=formulation)
    return (_sha1(x), repr(float(value)), str(len(state.iterations)),
            float(state.iterations[-1].lb).hex())


def _fixed(instance, formulation):
    x, regret = solve_minmax_regret_fixed(instance, 0.37,
                                          backend=HighsBackend(),
                                          formulation=formulation)
    return _sha1(x), repr(float(regret)), "-", "-"


def runs():
    """(label, thunk) of every run, in a fixed order."""
    for N in (5, 10, 15):
        for k in (5, 10):
            for seed in range(20):
                yield (f"criterion-11 N{N} k{k} A seed {seed}",
                       lambda N=N, k=k, seed=seed:
                       _solve(gen_layered(N, k, "A", seed), UNIT))
    import workloads
    for name, count in (("layered-milp", 200), ("general-cuts", None)):
        for op in workloads.build(name, 1).ops[:count]:
            yield (f"{name} {op.label}",
                   lambda inst=op.instance: _solve(inst, UNIT))
    for op in workloads.build("layered-enum", 1).ops:
        yield (f"enum layered-enum {op.label}",
               lambda inst=op.instance: _solve(inst, UNIT,
                                               backend=EnumerationBackend))
    for seed in range(20):
        yield (f"enum criterion-11 N5 k5 A seed {seed}",
               lambda seed=seed: _solve(gen_layered(5, 5, "A", seed), UNIT,
                                        backend=EnumerationBackend))
    for L in (50, 150):
        for d in (0.05, 0.10, 0.15):
            for seed in (0, 1):
                yield (f"twopath L{L} d{d} seed {seed}",
                       lambda L=L, d=d, seed=seed:
                       _solve(gen_twopath(L, d, seed), UNIT))
    from oracles import random_instance, random_weight
    rng = SplitMix64(3737)
    for i in range(70):
        inst = random_instance(rng)
        w = random_weight(rng) if i % 2 else UNIT
        for formulation in ("auto", "general"):
            yield (f"random {i} {formulation}",
                   lambda inst=inst, w=w, f=formulation: _solve(inst, w, f))
            yield (f"random {i} {formulation} fixed 0.37",
                   lambda inst=inst, f=formulation: _fixed(inst, f))
            yield (f"enum random {i} {formulation}",
                   lambda inst=inst, w=w, f=formulation:
                   _solve(inst, w, f, EnumerationBackend))


def line(label, thunk) -> str:
    try:
        fields = thunk()
    except Exception as exc:  # a run that raises is an answer too
        fields = (f"ERROR {type(exc).__name__}: {exc}".replace("\n", " "),)
    return "\t".join((label, *fields))


def check(lines) -> int:
    """Print every line that differs from ``answers.txt`` and the count of
    changed fields; 1 if anything differs."""
    old = dict(l.split("\t", 1) for l in ANSWERS.read_text().splitlines())
    changed = dict.fromkeys(FIELDS, 0)
    differ = 0
    for new in lines:
        label, rest = new.split("\t", 1)
        before = old.pop(label, None)
        if before == rest:
            continue
        differ += 1
        print(f"- {label}\t{before}\n+ {new}")
        if before is not None:
            for field, a, b in zip(FIELDS, before.split("\t"),
                                   rest.split("\t")):
                changed[field] += a != b
    for label, rest in old.items():
        print(f"- {label}\t{rest}\n+ (not run)")
    print(f"{differ + len(old)} of {len(lines)} lines differ; changed "
          + ", ".join(f"{field} {n}" for field, n in changed.items()))
    return 1 if differ or old else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with answers.txt instead of writing it")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    lines = [line(label, thunk) for label, thunk in runs()]
    print(f"{len(lines)} runs in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    if not args.check:
        ANSWERS.write_text("\n".join(lines) + "\n")
        return 0
    return check(lines)


if __name__ == "__main__":
    sys.exit(main())
