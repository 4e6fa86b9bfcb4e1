"""Property test: the scenario loader either succeeds or raises FormatError.

Inputs are small valid files (with and without a legacy ``[impact]``
section) that are truncated, lose a line, have two lines swapped, or have
one token replaced by a hostile value.  Between them they hold street rows
of every format: v3 ``id tail head`` rows as ``dumps`` writes them, and
v2 and v1 rows that also store each street's length and geometry.
Examples are derandomised so every run checks the same cases.
"""
from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings, strategies as st

from icisim.errors import FormatError
from icisim.scenario import ScenarioConfig, dumps, generate, loads, scenarios_equal

from test_scenario import HAND_WRITTEN, legacy_text

_SCENARIO = generate(ScenarioConfig(grid_n=2, seed=3))
_GOLDEN_V2 = Path(__file__).parent / "data" / "scenario-grid4-seed0-v2.txt"
BASES = (
    dumps(_SCENARIO), legacy_text(_SCENARIO), HAND_WRITTEN,
    _GOLDEN_V2.read_text(encoding="utf-8"),
)
HOSTILE = (
    "nan", "inf", "-inf", "-1", "0", "1e308", str(10**20), str(2**63), "x",
    "1.5", "1_0", "+3", "#", "1e3",
)


@st.composite
def damaged_files(draw) -> str:
    text = draw(st.sampled_from(BASES))
    lines = text.splitlines()
    kind = draw(st.sampled_from(("truncate", "drop", "swap", "token")))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    index = st.integers(0, len(lines) - 1)
    if kind == "drop":
        del lines[draw(index)]
    elif kind == "swap":
        i, j = draw(index), draw(index)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        i = draw(index)
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(HOSTILE))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(damaged_files())
def test_loads_succeeds_or_raises_format_error(text):
    try:
        sc = loads(text)
    except FormatError:
        return
    # Whatever loads must also survive its own round trip.
    assert scenarios_equal(sc, loads(dumps(sc)))
