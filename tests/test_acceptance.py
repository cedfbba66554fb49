"""The full acceptance gate: every advertised check at full scale.

Each criterion prints its one-line verdict as it completes (visible even
under pytest capture) and the test asserts the verdict.  Sample counts here
are the full published ones — the CLI selftest runs the same list reduced.
One more test pins the published table itself: its numbers, its names and
details that two reduced runs reproduce.
"""

import pytest

from cdfun import criteria

_BY_NUMBER = {i: fn for i, fn in enumerate(criteria.CHECKS, start=1)}


@pytest.mark.parametrize("number", sorted(_BY_NUMBER))
def test_criterion(number, capsys):
    res = _BY_NUMBER[number](1.0, 42)
    assert res.number == number
    with capsys.disabled():
        print(f"\n{res.line()}", flush=True)
    assert res.passed, f"criterion {number} ({res.name}): {res.detail}"


_NAMES = [
    "algebraic identities", "norm dichotomy", "alternativity dichotomy", "exponential suite",
    "logarithmic loop integral", "closed-loop vanishing", "Cauchy evaluation", "Cauchy derivatives",
    "residue calculus", "argument principle", "coefficient extraction", "cubic root search",
    "differentiability checks", "CLI determinism",
]


def test_published_criteria_table_is_numbered_named_and_deterministic():
    assert len(criteria.CHECKS) == 14
    runs = [[(res.number, res.name, res.passed, res.detail) for res in criteria.run_all(0.05, 42)]
            for _ in range(2)]
    assert [(number, name) for number, name, _, _ in runs[0]] == list(enumerate(_NAMES, start=1))
    assert runs[0] == runs[1]
