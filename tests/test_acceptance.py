"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; ``spcrit verify <model.json>`` prints the same table.
"""

from spcrit import acceptance


def _run(criterion_fn, *args, **kwargs):
    result = criterion_fn(*args, **kwargs)
    print(result.line())
    assert result.passed, result.line()
    assert result.in_budget, result.line()
    return result


def test_criterion_1_riccati_oracle():
    _run(acceptance.criterion_1_riccati)


def test_criterion_2_kolmogorov_limit():
    _run(acceptance.criterion_2_kolmogorov)


def test_criterion_3_yaglom_transform():
    _run(acceptance.criterion_3_yaglom)


def test_criterion_4_constants():
    _run(acceptance.criterion_4_constants)


def test_criterion_5_variance_limit():
    _run(acceptance.criterion_5_variance_limit)


def test_criterion_6_spectral_expansion():
    _run(acceptance.criterion_6_expansion)


def test_criterion_7_lemma_suite():
    _run(acceptance.criterion_7_lemma_suite)


def test_criterion_8_montecarlo_pipeline():
    _run(acceptance.criterion_8_montecarlo)


def test_criterion_9_determinism():
    _run(acceptance.criterion_9_determinism)
