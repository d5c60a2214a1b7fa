"""Property tests of the command line on mutated copies of the shipped
scenario and on mutated command lines.

Every run must end in a documented exit code, never in an exception, and say
why on stderr when it fails: on a mutated command line, in exactly one line,
except for the invalid-scenario report, which lists every issue.  A scenario
the loader accepts must also pass validate_scenario: the loader builds
scenarios through the constructors alone, so it relies on the constructors
and the validator agreeing.

The ranges are bounded (t_m <= 3, steps_per_unit_time <= 2000, dim <= 4,
--points <= 12 or refused by the work budget, a demo window of at most 1 or
refused) so that no example runs long.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from retrolind.cli import main
from retrolind.model import validate_scenario
from retrolind.scenario_io import parse_scenario

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DEMO_DOC = json.loads((SCENARIOS_DIR / "atom_demo.json").read_text())
LABELS = st.sampled_from(["+", "-", "x"])
JUNK = st.sampled_from([None, True, "x", [], {}, [1.0], [[1.0, 0.0]], [[[1.0]]]])
NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.integers(-2, 2),
    st.sampled_from([0.0, 0.5, 1.0, 1e300, math.nan, math.inf, -math.inf]),
)
TIMES = st.one_of(st.floats(-1.0, 3.0), st.sampled_from([0.0, math.nan, math.inf, -math.inf]))
ANGLES = st.floats(0.0, 2.0 * math.pi)


def _pairs(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


@st.composite
def any_matrix(draw):
    dim = draw(st.integers(1, 4))
    return [[[draw(NUMBERS), draw(NUMBERS)] for _ in range(dim)] for _ in range(dim)]


@st.composite
def hamiltonian(draw):
    a, b, re, im = (draw(st.floats(-3.0, 3.0)) for _ in range(4))
    return [[[a, 0.0], [re, im]], [[re, -im], [b, 0.0]]]


@st.composite
def jump_operator(draw):
    return [[[draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))] for _ in range(2)] for _ in range(2)]


def _projector(theta: float, phi: float) -> list:
    ket = [math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta)]
    return _pairs([[a * complex(b).conjugate() for b in ket] for a in ket])


@st.composite
def pure_state(draw):
    return _projector(draw(ANGLES), draw(ANGLES))


@st.composite
def projective_measurement(draw):
    theta, phi = draw(ANGLES), draw(ANGLES)
    labels = draw(st.sampled_from([["+", "-"], ["-", "+"]]))
    first = _projector(theta, phi)
    second = _projector(theta + math.pi / 2.0, phi)
    return [{"label": labels[0], "element": first}, {"label": labels[1], "element": second}]


def _entry(draw, doc, key):
    return doc[key][draw(st.integers(0, len(doc[key]) - 1))]


# Edits that keep the scenario valid, so that the runs reach the integrator.


def _window(draw, doc):
    t_p = draw(st.floats(-1.0, 3.0))
    doc["t_p"], doc["t_m"] = t_p, draw(st.floats(t_p, 3.0))


def _integrator(draw, doc):
    doc["integrator"] = {
        "steps_per_unit_time": draw(st.one_of(st.integers(1, 10), st.integers(1, 2000))),  # coarse steps too
        "record_every": draw(st.integers(1, 50)),
    }


def _model(draw, doc):
    doc["hamiltonian"] = draw(hamiltonian())
    doc["jump_ops"] = draw(st.lists(jump_operator(), max_size=2))


def _priors(draw, doc):
    p = draw(st.floats(0.0, 1.0))
    doc["ensemble"][0]["prior"], doc["ensemble"][1]["prior"] = p, 1.0 - p


def _state(draw, doc):
    _entry(draw, doc, "ensemble")["state"] = draw(pure_state())


def _measurement(draw, doc):
    doc["pom"] = draw(projective_measurement())


# Edits that may break it anywhere.


def _times(draw, doc):
    doc[draw(st.sampled_from(["t_p", "t_m"]))] = draw(st.one_of(TIMES, JUNK))


def _integrator_values(draw, doc):
    if draw(st.booleans()):
        doc.pop("integrator", None)
        return
    block = doc.setdefault("integrator", {})
    block["steps_per_unit_time"] = draw(st.one_of(st.integers(-1, 2000), JUNK))
    block["record_every"] = draw(st.one_of(st.integers(-1, 50), JUNK))


def _dim(draw, doc):
    doc["dim"] = draw(st.one_of(st.integers(-1, 4), JUNK))


def _operators(draw, doc):
    if draw(st.booleans()):
        doc["hamiltonian"] = draw(st.one_of(any_matrix(), JUNK))
    else:
        doc["jump_ops"] = draw(st.one_of(st.lists(any_matrix(), max_size=2), JUNK))


def _prior_value(draw, doc):
    _entry(draw, doc, "ensemble")["prior"] = draw(st.one_of(NUMBERS, JUNK))


def _matrix(draw, doc):
    key, field = draw(st.sampled_from([("ensemble", "state"), ("pom", "element")]))
    _entry(draw, doc, key)[field] = draw(st.one_of(pure_state(), any_matrix(), JUNK))


def _label(draw, doc):
    _entry(draw, doc, draw(st.sampled_from(["ensemble", "pom"])))["label"] = draw(st.one_of(LABELS, JUNK))


def _entries(draw, doc):
    key = draw(st.sampled_from(["ensemble", "pom"]))
    entry = _entry(draw, doc, key)
    if draw(st.booleans()):
        doc[key].remove(entry)
    else:
        doc[key].append(copy.deepcopy(entry))


def _keys(draw, doc):
    if draw(st.booleans()):
        doc.pop(draw(st.sampled_from(sorted(doc))))
    else:
        doc["extra"] = 1


def _matrix_entry(draw, doc):
    matrix = draw(st.sampled_from(["hamiltonian", "state", "element"]))
    if matrix == "hamiltonian":
        m = doc["hamiltonian"]
    else:
        m = _entry(draw, doc, "ensemble" if matrix == "state" else "pom")[matrix]
    row = m[draw(st.integers(0, len(m) - 1))]
    row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), JUNK))


VALID_EDITS = [_window, _integrator, _model, _priors, _state, _measurement]
BREAKING_EDITS = [
    _times, _integrator_values, _dim, _operators, _prior_value, _matrix, _label, _entries, _keys, _matrix_entry,
]


@st.composite
def scenario_docs(draw):
    doc = copy.deepcopy(DEMO_DOC)
    edits = draw(st.lists(st.sampled_from(VALID_EDITS), max_size=4))
    if draw(st.booleans()):
        edits += draw(st.lists(st.sampled_from(BREAKING_EDITS), min_size=1, max_size=2))
    for edit in edits:
        try:
            edit(draw, doc)
        except (TypeError, KeyError, IndexError, AttributeError, ValueError):
            pass  # an earlier edit broke the structure this one changes
    return doc


CHOSEN = st.sampled_from(["+", "-", "+", "-", "x"])  # mostly labels the scenario has
COMMANDS = st.one_of(
    st.just(["validate"]),
    st.tuples(CHOSEN, st.sampled_from(["csv", "json"])).map(lambda t: ["retrodict", "--outcome", t[0], "--format", t[1]]),
    CHOSEN.map(lambda label: ["predict", "--preparation", label]),
    st.tuples(CHOSEN, CHOSEN, st.integers(0, 12)).map(
        lambda t: ["sweep", "--preparation", t[0], "--outcome", t[1], "--points", str(t[2])]
    ),
    st.tuples(
        st.sampled_from(["predictive", "pom-backward", "retrodictive"]),
        st.one_of(CHOSEN, pure_state().map(json.dumps), any_matrix().map(json.dumps)),
    ).map(lambda t: ["evolve", "--mode", t[0], "--initial", t[1]]),
)


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenario_docs(), command=COMMANDS)
def test_cli_contract_on_mutated_scenarios(tmp_path_factory, doc, command):
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], str(path), *command[1:]]
    if command[0] == "evolve":
        argv += ["--out", str(workdir / "trajectory.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if code != 0:
        assert err.getvalue().strip(), f"exit {code} without a reason"
    try:
        scenario = parse_scenario(json.loads(path.read_text()))
    except ValueError:
        return
    assert validate_scenario(scenario).ok


SHIPPED = st.sampled_from(["atom_demo.json", "atom_demo.json", "invalid_priors.json", "malformed.json"])
ARG_LABELS = st.sampled_from(["+", "-", "x", ""])
POINTS = st.sampled_from(["0", "1", "2", "12", str(10**13), "-3", "1.5"])
RATES = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "0.5", "1", "1", "x"])
WINDOWS = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "0.5", "1", "1", "1e300"])
ARGVS = st.one_of(
    SHIPPED.map(lambda f: ["validate", f]),
    st.tuples(SHIPPED, ARG_LABELS, st.sampled_from(["csv", "json", "csv", "json", "xml", ""])).map(
        lambda t: ["retrodict", t[0], "--outcome", t[1], "--format", t[2]]
    ),
    st.tuples(SHIPPED, ARG_LABELS).map(lambda t: ["predict", t[0], "--preparation", t[1]]),
    st.tuples(SHIPPED, ARG_LABELS, ARG_LABELS, POINTS).map(
        lambda t: ["sweep", t[0], "--preparation", t[1], "--outcome", t[2], "--points", t[3]]
    ),
    st.tuples(RATES, WINDOWS).map(lambda t: ["demo-atom", "--gamma", t[0], "--duration", t[1]]),
    st.tuples(SHIPPED, st.sampled_from(["predictive", "pom-backward", "retrodictive", "backward"]), ARG_LABELS).map(
        lambda t: ["evolve", t[0], "--mode", t[1], "--initial", t[2], "--out", "OUT"]
    ),
)


@st.composite
def command_lines(draw):
    """A command line, perhaps with one argument dropped or an unknown option added."""
    argv = draw(ARGVS)
    edit = draw(st.sampled_from(["none", "none", "drop", "unknown"]))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "unknown":
        argv.append("--verbose")
    return argv


@settings(derandomize=True, max_examples=300, deadline=10_000)
@given(argv=command_lines())
@example(argv=["sweep", "atom_demo.json", "--preparation", "+", "--outcome", "+", "--points", str(10**13)])
@example(argv=["demo-atom", "--gamma", "nan", "--duration", "inf"])
@example(argv=["retrodict", "invalid_priors.json", "--outcome", "+", "--format", "json"])
def test_one_line_reason_on_mutated_command_lines(tmp_path_factory, argv):
    out_path = tmp_path_factory.mktemp("argv") / "trajectory.csv"
    argv = [str(SCENARIOS_DIR / a) if a.endswith(".json") else str(out_path) if a == "OUT" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 1, 2, 3, 4)
    reason = err.getvalue()
    if code == 0:
        assert reason == ""
    elif reason.startswith("scenario is invalid:\n"):
        assert code == 2 and all(line.startswith("  ") for line in reason.splitlines()[1:])
    else:
        assert reason.count("\n") == 1 and reason.endswith("\n") and len(reason) > 1, reason
    assert "Traceback" not in reason
