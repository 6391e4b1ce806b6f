"""Fuzzing the command line with malformed documents derived from the fixtures.

Each example takes a checked-in fixture, drops one field or list item or
replaces it with a value of the wrong kind (a string, a non-integer
float, a negative or huge integer, a list, an object or null), and runs
one subcommand that accepts that kind of document, in process.  Whatever
the document, the command must finish with exit code 0, 1 or 2 and must
not let an exception escape.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hyperqudit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

RING = ["f2", "f3", "f4", "f5", "gr42", "gr43", "z4"]
CALIBRATED = ["bell_00", "bell_11", "qutrit_a", "qutrit_b", "qutrit_e"]
MARKED = ["marked_qutrit_b", "marked_qutrit_d"]

# (fixture, argv before the path, argv after the path); classify takes a directory
COMMANDS = (
    [(f, pre, []) for f in RING for pre in (
        ["ring", "info"], ["--json", "ring", "info"], ["matrices"], ["--json", "matrices"])]
    + [(f, pre, []) for f in CALIBRATED for pre in (
        ["state", "build"], ["state", "build", "--dense"], ["--json", "state", "build"],
        ["state", "verify"], ["--json", "state", "verify"], ["reduce"], ["classify"])]
    + [(f, ["convert"], ["--from", "marked"]) for f in MARKED]
    + [("poly_f3_square", ["convert"], ["--from", "poly"]),
       ("weighted_f3_pair", ["convert"], ["--from", "weighted"])]
)

WRONG_VALUES = st.one_of(
    st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer()),
    st.integers(max_value=-1),
    st.sampled_from([2 ** 31, 2 ** 63, 2 ** 64 + 1, 10 ** 30]),
    st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 3), max_size=2),
    st.none(),
)


def locations(doc, path=()):
    """The path of every field and list item below the top-level object."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from locations(value, path + (key,))


@st.composite
def mutated_commands(draw):
    fixture, before, after = draw(st.sampled_from(COMMANDS))
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    *parent, last = draw(st.sampled_from(list(locations(doc))))
    mutated = copy.deepcopy(doc)
    container = mutated
    for key in parent:
        container = container[key]
    if draw(st.booleans()):
        del container[last]
    else:
        container[last] = draw(WRONG_VALUES)
    return mutated, before, after


@settings(max_examples=200, deadline=None)
@given(case=mutated_commands())
def test_mutated_fixture_keeps_the_exit_code_contract(case):
    doc, before, after = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        target = tmp if before == ["classify"] else str(path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*before, target, *after])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith(("error: ", "{"))
