"""Property test: the scenario loader either succeeds or raises FormatError.

Inputs are small valid files in the one format ``dumps`` writes -- a
generated grid-2 file, the hand-written two-street file and the grid-4
golden -- that are truncated, lose a line, have two lines swapped, have
one line written twice with its block's count bumped, or have one token
replaced by a hostile value.  Whatever loads is stored as read: ``dumps``
writes each block after ``[config]`` back value for value.  Examples are
derandomised so every run checks the same cases.
"""
from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings, strategies as st

from icisim.errors import FormatError
from icisim.scenario import ScenarioConfig, dumps, generate, loads, scenarios_equal

from oracles import line_entries
from test_scenario import HAND_WRITTEN

_SCENARIO = generate(ScenarioConfig(grid_n=2, seed=3))
_GOLDEN = Path(__file__).parent / "data" / "scenario-grid4-seed0-v3.txt"
BASES = (dumps(_SCENARIO), HAND_WRITTEN, _GOLDEN.read_text(encoding="utf-8"))
HOSTILE = (
    "nan", "inf", "-inf", "-1", "0", "1e308", str(10**20), str(2**63), "x",
    "1.5", "1_0", "+3", "#", "1e3",
)
BLOCKS = ("intersections", "streets", "ratios", "stations", "generators", "links")


@st.composite
def damaged_files(draw) -> str:
    text = draw(st.sampled_from(BASES))
    lines = text.splitlines()
    kind = draw(st.sampled_from(("truncate", "drop", "swap", "repeat", "token")))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    index = st.integers(0, len(lines) - 1)
    if kind == "drop":
        del lines[draw(index)]
    elif kind == "swap":
        i, j = draw(index), draw(index)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "repeat":
        i = draw(index)
        lines.insert(i, lines[i])
        # The count of the block the line sits in, if any, counts it too.
        heads = [k for k in range(i) if lines[k].split()[:1] and lines[k].split()[0] in BLOCKS]
        if heads:
            keyword, count = lines[heads[-1]].split()
            lines[heads[-1]] = f"{keyword} {int(count) + 1}"
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
    text_back = dumps(sc)
    assert scenarios_equal(sc, loads(text_back))
    # And it is stored as read: dumps writes every block back value for value.
    read, written = line_entries(text), line_entries(text_back)
    del read["config"], written["config"]
    assert read == written
