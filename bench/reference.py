"""In-process timings of single layers, for reference next to the benchmark.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/reference.py

Prints a markdown table: the median of several repeats for each layer
named in ROADMAP item 1 (G2 algebra build, decomposition, exact bracket
and metric.apply at dim 14, a 14x14 rref, the right-isometry kernel,
natural-reductivity detection, exact and float Ricci, and go_check on G2
with 24 samples, exact and float).  These figures are not gated.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from gometrics import exactlinalg, metrics, ricci, rootsys, spaces
from gometrics import build_compact_from_rootsystem, go_check


def timed(fn, repeats):
    out = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return statistics.median(out)


def main() -> None:
    rng = random.Random(0)
    dec = spaces.g2_decomposition()
    L = dec.algebra
    x = [Fraction(rng.randint(-9, 9)) for _ in range(L.dim)]
    y = [Fraction(rng.randint(-9, 9)) for _ in range(L.dim)]
    m = [[Fraction(rng.randint(-9, 9)) for _ in range(14)] for _ in range(14)]
    exact = spaces.g2_metric(1, 2, 3, 4, 5, decomposition=dec)
    floaty = spaces.g2_metric(*map(float, (1, 2, 3, 4, 5)), decomposition=dec)
    set2 = spaces.g2_metric(*spaces.EINSTEIN_SET_2, decomposition=dec)
    set3 = spaces.g2_metric(*spaces.EINSTEIN_SET_3, decomposition=dec)
    # label -> one or more (call, repeats), printed as "a / b"
    rows = [
        ("G2 algebra build", [(lambda: build_compact_from_rootsystem(
            rootsys.build_g2(), cartan_basis=spaces._G2_CARTAN), 3)]),
        ("`g2_decomposition`, algebra build included", [(spaces.g2_decomposition.__wrapped__, 3)]),
        ("exact `bracket`", [(lambda: L.bracket(x, y), 200)]),
        ("`metric.apply`", [(lambda: exact.apply(x), 200)]),
        ("14x14 `rref`", [(lambda: exactlinalg.rref(m), 20)]),
        ("kernel", [(lambda: metrics.max_right_isometry_algebra(L, set3), 5)]),
        ("`detect_naturally_reductive`, set 2 / set 3", [
            (lambda: metrics.detect_naturally_reductive(L, set2), 3),
            (lambda: metrics.detect_naturally_reductive(L, set3), 3)]),
        ("Ricci, exact (set 2) / float (set 3)", [
            (lambda: ricci.ricci_left_invariant(L, set2), 3),
            (lambda: ricci.ricci_left_invariant(L, set3), 20)]),
        ("`go_check` on G2 (1,2,3,4,5), 24 samples, exact / float", [
            (lambda: go_check(L, exact, exact=True), 3),
            (lambda: go_check(L, floaty), 10)]),
    ]
    print("| Layer | Time |")
    print("| --- | --- |")
    for label, calls in rows:
        print(f"| {label} | {' / '.join(fmt(timed(fn, r)) for fn, r in calls)} |")


def fmt(seconds: float) -> str:
    return f"{seconds:.2f} s" if seconds >= 0.1 else f"{seconds * 1e3:.1f} ms"


if __name__ == "__main__":
    main()
