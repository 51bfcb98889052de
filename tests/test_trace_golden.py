"""Golden-trace conformance: the committed fixtures pin the normalized
trace of two fixed-seed workloads byte-exact (docs/OBSERVABILITY.md).

A fixture mismatch means observable protocol behaviour changed — receipt
order, forwarding levels, repair counts, encryption fan-out — and either
the change is a regression or the fixtures need an intentional
regeneration::

    PYTHONPATH=src python -m repro.trace.golden --write tests/fixtures

The corruption canary proves the comparison can fail (the same
discipline as ``tools/check_invariants.py`` exit status 2): a suite
whose golden gate cannot trip is not a gate.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.trace import GOLDEN_TRACES, compare_traces
from repro.trace.golden import rekey256_trace

FIXTURES = Path(__file__).parent / "fixtures"

pytestmark = pytest.mark.trace


def read_fixture(name: str) -> str:
    path = FIXTURES / name
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        "PYTHONPATH=src python -m repro.trace.golden --write tests/fixtures"
    )
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_golden_fixture_byte_exact(name):
    """Regenerating a golden workload reproduces its fixture byte for
    byte."""
    expected = read_fixture(name)
    actual = GOLDEN_TRACES[name]()
    problems = compare_traces(expected, actual)
    assert not problems, "\n".join([f"golden {name} diverged:"] + problems)


def test_rekey256_two_runs_identical():
    """Same seed, two runs, identical bytes — the determinism contract
    the fixtures rest on."""
    assert rekey256_trace() == rekey256_trace()


def test_trace_header_names_workload():
    """The fixture headers carry the seed and label the generators
    stamp, so a trace file is self-describing."""
    import json

    header = json.loads(read_fixture("trace_rekey256.jsonl").splitlines()[0])
    assert header["kind"] == "header"
    assert header["seed"] == 7
    assert header["label"] == "golden-rekey256"
    assert header["version"] == 1


class TestCorruptionCanary:
    """The comparison MUST flag a corrupted trace — every corruption
    class a regression could produce."""

    def test_flipped_attribute_detected(self):
        expected = read_fixture("trace_rekey256.jsonl")
        lines = expected.splitlines()
        # Corrupt a digit inside a span line (a changed forwarding level,
        # say) and require a pointed diff.
        victim = next(
            i for i, line in enumerate(lines) if '"kind":"span"' in line
        )
        corrupted = lines[:]
        corrupted[victim] = corrupted[victim].replace(
            '"kind":"span"', '"kind":"spam"'
        )
        problems = compare_traces(expected, "\n".join(corrupted) + "\n")
        assert problems
        assert any(f"line {victim + 1}" in p for p in problems)

    def test_dropped_line_detected(self):
        expected = read_fixture("trace_fig7.jsonl")
        lines = expected.splitlines()
        corrupted = "\n".join(lines[:-1]) + "\n"
        problems = compare_traces(expected, corrupted)
        assert any("line count differs" in p for p in problems)

    def test_trailing_byte_detected(self):
        expected = read_fixture("trace_fig7.jsonl")
        assert compare_traces(expected, expected + "\n")

    def test_identical_is_clean(self):
        expected = read_fixture("trace_fig7.jsonl")
        assert compare_traces(expected, expected) == []
