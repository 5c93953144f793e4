"""Golden outputs of run_restarts: per-restart cardinalities, seeds and best code.

The values were recorded from the implementation that rebuilt a Graph for
every restart, so a faster restart loop must reproduce them exactly.
"""

import hashlib

import pytest

from lexid import Code, derive_seed, gnp_graph, nonminimal_grid_fixture, run_restarts

# derive_seed(0, i) for i = 0..19, the seeds of a batch with master seed 0
SEEDS_0 = (
    16294208416658607535, 7960286522194355700, 487617019471545679,
    17909611376780542444, 1961750202426094747, 6038094601263162090,
    3207296026000306913, 14232521865600346940, 4532161160992623299,
    17561866513979060390, 7313543279846440201, 14038607207048404726,
    9665182471527586683, 10241033088150448431, 13064396156225473817,
    9564308153959284907, 9018883062403043925, 14109521515791744902,
    3775962213208117092, 15571913878924461484,
)


def digest(code: Code) -> tuple[int, str]:
    return len(code), hashlib.sha256(",".join(map(str, code)).encode()).hexdigest()[:16]


INSTANCES = {
    "gnp128": lambda: gnp_graph(128, 0.1, derive_seed(0, 128)),
    "fixture": nonminimal_grid_fixture,
}

# (instance, strategy, restarts): (cardinalities, best code or its digest)
GOLDEN = {
    ("gnp128", "random", 20): (
        (33, 30, 28, 37, 34, 29, 31, 34, 33, 32, 32, 32, 33, 31, 34, 33, 30, 32, 34, 30),
        (28, "d4f3598de1f57ebc"),
    ),
    ("fixture", "random", 20): (
        (5, 6, 5, 5, 5, 6, 5, 6, 6, 6, 5, 5, 5, 5, 6, 5, 6, 6, 6, 6),
        Code((2, 3, 4, 5, 6)),
    ),
    ("fixture", "degree-desc", 3): (
        (4, 4, 4),
        Code((2, 3, 4, 7)),
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_restart_reports_match_the_pins(key):
    name, strategy, restarts = key
    expected_cardinalities, expected_best = GOLDEN[key]
    report = run_restarts(INSTANCES[name](), strategy, restarts=restarts, seed=0)
    assert report.cardinalities == expected_cardinalities
    assert report.seeds == SEEDS_0[:restarts]
    assert report.best_cardinality == min(expected_cardinalities)
    best = digest(report.best_code) if report.best_code.cardinality > 10 else report.best_code
    assert best == expected_best
