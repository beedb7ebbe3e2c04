"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; ``spcrit verify <model.json>`` prints the same table.
Both run ``acceptance.CRITERIA``: here each criterion is one test, named
``test_criterion_<index>_<name>``.
"""

from spcrit import acceptance


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    assert result.in_budget, result.line()


def _test(criterion):
    def test():
        _run(criterion)

    return test


for _criterion in acceptance.CRITERIA:
    _name = _criterion.name.replace("-", "_")
    globals()[f"test_criterion_{_criterion.index}_{_name}"] = _test(_criterion)


def test_criterion_9_runs_without_pythonpath(monkeypatch):
    # pytest's own import path does not reach the CLI subprocess, so the
    # criterion must find the package without the caller's PYTHONPATH
    monkeypatch.delenv("PYTHONPATH", raising=False)
    _run(acceptance.criterion_9_determinism)


def test_criteria_are_every_criterion_once_in_order():
    # a criterion missing from CRITERIA would run in neither spcrit verify
    # nor this module
    defined = [name for name in vars(acceptance) if name.startswith("criterion_")]
    names = [criterion.__name__ for criterion in acceptance.CRITERIA]
    assert sorted(names) == sorted(defined)
    indices = [criterion.index for criterion in acceptance.CRITERIA]
    assert [int(name.split("_")[1]) for name in names] == indices == list(range(1, 10))
