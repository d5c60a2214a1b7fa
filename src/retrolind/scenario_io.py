"""Scenario JSON files and trajectory CSV output.

Scenario schema (complex entries are [re, im] pairs, matrices are row-major
nested lists):

    {
      "dim": 2,
      "hamiltonian": [[[0.0, 0.0], ...], ...],
      "jump_ops": [ <matrix>, ... ],
      "ensemble": [ {"label": "+", "prior": 0.5, "state": <matrix>}, ... ],
      "pom":      [ {"label": "+", "element": <matrix>}, ... ],
      "t_p": 0.0,
      "t_m": 1.0,
      "integrator": {"steps_per_unit_time": 1000, "record_every": 10}
    }

The integrator block is optional and defaults to 1000/10.  Structural
problems (bad JSON, missing or unknown keys, entries that are not [re, im]
pairs) raise ScenarioFormatError; physics-level violations (priors off,
incomplete measurement, ...) raise ScenarioValidationError carrying the
full ValidationReport.

Trajectory CSV: a comment line stating what the time column means, a header
``time,re_00,im_00,...`` of 1 + 2 dim^2 columns (indices zero-padded to the
width of dim - 1), then one row per state, 13 significant digits a value.
"""

from __future__ import annotations

import functools
import json
import os
import stat
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .model import (
    DensityOperator,
    IntegratorConfig,
    LindbladModel,
    Pom,
    PreparationEnsemble,
    Scenario,
    ValidationReport,
    _is_int,
    _is_real,
    validate_scenario_data,
)

__all__ = [
    "ScenarioFormatError",
    "ScenarioValidationError",
    "matrix_to_pairs",
    "matrix_from_pairs",
    "scenario_to_jsonable",
    "dump_scenario",
    "parse_scenario",
    "load_scenario",
    "write_trajectory_csv",
]

_CSV_BLOCK = 2**14  # trajectory table entries formatted at once: 127 rows at dim 8
_TOP_LEVEL_KEYS = {"dim", "hamiltonian", "jump_ops", "ensemble", "pom", "t_p", "t_m", "integrator"}
_REQUIRED_KEYS = _TOP_LEVEL_KEYS - {"integrator"}


class ScenarioFormatError(ValueError):
    """The document is not a structurally well-formed scenario."""


class ScenarioValidationError(ValueError):
    """The document parsed but violates scenario invariants."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(report.lines()))
        self.report = report


def matrix_to_pairs(a) -> list[list[list[float]]]:
    """Complex matrix as nested lists of [re, im] pairs."""
    a = np.asarray(a, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _as_float(x: int | float, where: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ScenarioFormatError(f"{where}: integer is too large for a float") from None


def _entry_from_pair(obj, where: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(_is_real(x) for x in obj):
        raise ScenarioFormatError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(_as_float(obj[0], where), _as_float(obj[1], where))


def matrix_from_pairs(obj, where: str) -> np.ndarray:
    """Parse a nested [re, im] structure into a square complex matrix."""
    if not isinstance(obj, list) or not obj:
        raise ScenarioFormatError(f"{where}: expected a non-empty list of rows")
    dim = len(obj)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioFormatError(f"{where}: row {r} does not have {dim} entries")
        for c, entry in enumerate(row):
            out[r, c] = _entry_from_pair(entry, f"{where}[{r}][{c}]")
    return out


def _require_number(obj, where: str) -> float:
    if not _is_real(obj):
        raise ScenarioFormatError(f"{where}: expected a number, got {obj!r}")
    return _as_float(obj, where)


def _require_int(obj, where: str) -> int:
    if not _is_int(obj):
        raise ScenarioFormatError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _require_str(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise ScenarioFormatError(f"{where}: expected a string, got {obj!r}")
    return obj


def scenario_to_jsonable(scenario: Scenario) -> dict:
    """Plain-data form of a scenario, inverse of parse_scenario."""
    return {
        "dim": scenario.model.dim,
        "hamiltonian": matrix_to_pairs(scenario.model.hamiltonian),
        "jump_ops": [matrix_to_pairs(a) for a in scenario.model.jump_ops],
        "ensemble": [
            {"label": label, "prior": float(prior), "state": matrix_to_pairs(state.op)}
            for label, prior, state in zip(
                scenario.ensemble.labels, scenario.ensemble.priors, scenario.ensemble.states
            )
        ],
        "pom": [
            {"label": label, "element": matrix_to_pairs(element)}
            for label, element in zip(scenario.pom.labels, scenario.pom.elements)
        ],
        "t_p": float(scenario.t_p),
        "t_m": float(scenario.t_m),
        "integrator": {
            "steps_per_unit_time": scenario.integrator.steps_per_unit_time,
            "record_every": scenario.integrator.record_every,
        },
    }


def _is_numeric_tree(obj) -> bool:
    return _is_real(obj) or isinstance(obj, list) and bool(obj) and all(_is_numeric_tree(x) for x in obj)


def _render(obj, indent: int) -> str:
    """JSON text with purely numeric lists (matrices) kept on one line."""
    pad = "  " * indent
    if isinstance(obj, list):
        if _is_numeric_tree(obj):
            return json.dumps(obj)
        inner = ",\n".join(f"{pad}  {_render(x, indent + 1)}" for x in obj)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        inner = ",\n".join(f"{pad}  {json.dumps(k)}: {_render(v, indent + 1)}" for k, v in obj.items())
        return f"{{\n{inner}\n{pad}}}"
    return json.dumps(obj)


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(_render(scenario_to_jsonable(scenario), 0) + "\n")


def _objects(doc: dict, key: str, parsers: dict) -> list[list]:
    """doc[key], a non-empty list of objects with exactly the keys of parsers,
    in their order, parsed as one list per key, each entry by its parser."""
    if not isinstance(doc[key], list) or not doc[key]:
        raise ScenarioFormatError(f"{key}: expected a non-empty list")
    columns = [[] for _ in parsers]
    for i, entry in enumerate(doc[key]):
        if not isinstance(entry, dict) or entry.keys() != parsers.keys():
            raise ScenarioFormatError(f"{key}[{i}]: expected keys {', '.join(parsers)}")
        for column, (name, parse) in zip(columns, parsers.items()):
            column.append(parse(entry[name], f"{key}[{i}].{name}"))
    return columns


def parse_scenario(doc: dict) -> Scenario:
    """Build a validated Scenario from parsed JSON data.

    The constructors are the one validation pass; only when one of them
    rejects the input does validate_scenario_data run, to collect every
    issue into a ScenarioValidationError."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"top level must be an object, got {type(doc).__name__}")
    missing = _REQUIRED_KEYS - doc.keys()
    if missing:
        raise ScenarioFormatError(f"missing required keys: {', '.join(sorted(missing))}")
    unknown = doc.keys() - _TOP_LEVEL_KEYS
    if unknown:
        raise ScenarioFormatError(f"unknown keys: {', '.join(sorted(unknown))}")

    dim = _require_int(doc["dim"], "dim")
    hamiltonian = matrix_from_pairs(doc["hamiltonian"], "hamiltonian")
    if not isinstance(doc["jump_ops"], list):
        raise ScenarioFormatError("jump_ops: expected a list of matrices")
    jump_ops = [matrix_from_pairs(a, f"jump_ops[{q}]") for q, a in enumerate(doc["jump_ops"])]

    state_labels, priors, states = _objects(
        doc, "ensemble", {"label": _require_str, "prior": _require_number, "state": matrix_from_pairs}
    )
    pom_labels, pom_elements = _objects(doc, "pom", {"label": _require_str, "element": matrix_from_pairs})

    t_p = _require_number(doc["t_p"], "t_p")
    t_m = _require_number(doc["t_m"], "t_m")

    integrator_doc = doc.get("integrator", {})
    if not isinstance(integrator_doc, dict):
        raise ScenarioFormatError("integrator: expected an object")
    keys = ("steps_per_unit_time", "record_every")  # each defaults to IntegratorConfig's
    unknown = integrator_doc.keys() - set(keys)
    if unknown:
        raise ScenarioFormatError(f"integrator: unknown keys: {', '.join(sorted(unknown))}")
    steps, record = (_require_int(integrator_doc.get(k, getattr(IntegratorConfig, k)), f"integrator.{k}") for k in keys)

    try:
        return Scenario(
            model=LindbladModel(dim, hamiltonian, tuple(jump_ops)),
            ensemble=PreparationEnsemble(
                tuple(priors), tuple(DensityOperator(s) for s in states), tuple(state_labels)
            ),
            pom=Pom(tuple(pom_elements), tuple(pom_labels)),
            t_p=t_p,
            t_m=t_m,
            integrator=IntegratorConfig(steps, record),
        )
    except ValueError:
        # The constructors stop at the first invalid piece; report them all.
        report = validate_scenario_data(
            dim,
            hamiltonian,
            jump_ops,
            priors,
            states,
            state_labels,
            pom_elements,
            pom_labels,
            t_p,
            t_m,
            steps,
            record,
        )
        if report.ok:
            raise
        raise ScenarioValidationError(report) from None


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ScenarioFormatError(f"{path}: JSON nested too deeply to parse") from None
    return parse_scenario(doc)


def write_trajectory_csv(path: str | Path, trajectory: Trajectory, time_description: str) -> None:
    """Write recorded states as delimited text, one row per time, in blocks of rows, over the file in place:
    a regular file is then cut to the bytes written, never to zero first, which ext4 takes for a replace
    and writes back at close.  Nothing is synced."""
    times, states = trajectory.times, trajectory.states
    rows = max(1, _CSV_BLOCK // (1 + 2 * states[0].size))
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        try:
            out.write(f"# time column: {time_description}\n{_csv_columns(states.shape[-1])}\n".encode())
            for k in range(0, len(times), rows):
                block = np.ascontiguousarray(states[k : k + rows], dtype=np.complex128)
                out.write(_e12_bytes(np.column_stack([times[k : k + rows], block.reshape(len(block), -1).view(float)])))
        finally:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()


@functools.cache
def _csv_columns(dim: int) -> str:
    """The header row for dim x dim states: time, then re_rc and im_rc for
    each entry, row-major, with r and c zero-padded to one width."""
    w = len(str(dim - 1))
    names = (f"{part}_{r:0{w}}{c:0{w}}" for r in range(dim) for c in range(dim) for part in ("re", "im"))
    return ",".join(["time", *names])


@functools.cache
def _e12_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of _e12_bytes, built at its first call: 10^k at
    k + 300 for k = -300..299, each correctly rounded (parsed from "1e{k}";
    10.0 ** k need not be), then four-byte words of ASCII text: "-L.D" for
    the first two digits LD of a mantissa, "DDDD" for 0..9999, "DDDe" for
    0..999 and "+EEE" or "-EEE" at k + 300 for the exponents k."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    pairs = np.column_stack([np.repeat(digit, 10), np.tile(digit, 10)])
    triples = np.column_stack([np.repeat(digit, 100), np.tile(pairs, (10, 1))])
    exponents = np.arange(-300, 300)

    def words(*columns) -> np.ndarray:
        return np.column_stack(columns).astype(np.uint8).view(np.uint32).reshape(-1)

    def char(c: str, n: int) -> np.ndarray:
        return np.full(n, ord(c))

    return (
        np.array([float(f"1e{k}") for k in exponents]),
        words(char("-", 100), pairs[:, 0], char(".", 100), pairs[:, 1]),
        words(np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))),
        words(triples, char("e", 1000)),
        words(np.where(exponents < 0, ord("-"), ord("+")), triples[np.abs(exponents)]),
    )


def _e12_words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text "%.12e" prints for each entry of x, in the first five of six
    four-byte words (see _e12_tables), and where it is proven right: from the
    13 digits q and the exponent e, each array dropped once used.

    An entry |x| = m 10^e with 1 <= m < 10 is scaled by the correctly
    rounded 10^(12 - e), with e from log10|x|.  The scaled value is then
    within about 2.2e-3 of the exact one, so rounding it gives the digits
    whenever it is more than 0.005 from a tie and lands in [1e12, 1e13]
    (1e13 carries into the exponent).  A result of exactly 1e12 is kept
    only if |x| is at least the double nearest 10^e, since below it e may
    be one too high.  Zeros are proven with q = e = 0; every other entry
    (near ties, |e| >= 280, inf and nan) is not, and has q = e = 0."""
    powers, head, quad, tail, exps = _e12_tables()
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    fast = np.abs(e) < 280  # not for zero, inf or nan
    a[~fast], e[~fast] = 1.0, 0.0
    e = e.astype(np.int64)
    scaled = powers[312 - e]
    scaled *= a
    q = np.rint(scaled)
    fast &= (np.abs(scaled - np.floor(scaled) - 0.5) > 0.005) & (q >= 1e12) & (q <= 1e13)
    fast &= (q != 1e12) | (a >= powers[e + 300])
    del a, scaled
    carry = q == 1e13
    q[carry] = 1e12
    e += carry
    q[~fast], e[~fast] = 0.0, 0
    fast |= x == 0.0
    words = np.empty((x.size, 6), dtype=np.uint32)
    words[:, 4] = exps[e + 300]
    hi, q = np.divmod(q.astype(np.int64), 10**11)
    words[:, 0] = head[hi]
    hi, q = np.divmod(q, 10**7)
    words[:, 1] = quad[hi]
    hi, q = np.divmod(q, 10**3)
    words[:, 2] = quad[hi]
    words[:, 3] = tail[q]
    return words, fast


def _e12_bytes(table: np.ndarray) -> np.ndarray:
    """The rows of a 2-D float table as ASCII bytes, each entry exactly as
    "%.12e" prints it, comma-separated, each row ended by a newline.

    Each entry fills six four-byte words: its text from _e12_words, its
    separator and padding; one whose text is not proven is formatted by
    "%.12e" itself.  The bytes an entry does not use (the sign of a positive
    entry, the hundreds digit 0 of a two-digit exponent, the tail of a short
    fallback, the padding) are dropped at the end."""
    x = table.reshape(-1)
    words, fast = _e12_words(x)
    out = words.view(np.uint8)
    out[:, 20] = ord(",")
    out[table.shape[1] - 1 :: table.shape[1], 20] = ord("\n")
    keep = np.zeros(out.shape, dtype=bool)
    keep[:, 1:21] = True
    keep[:, 0] = np.signbit(x)
    keep[:, 17] = out[:, 17] != ord("0")
    slow = np.flatnonzero(~fast)
    if slow.size:
        values = x[slow].tolist()
        field = np.frombuffer((("%-20.12e" * len(values)) % tuple(values)).encode("ascii"), dtype=np.uint8)
        field = field.reshape(-1, 20)
        out[slow, :20] = field
        keep[slow, :20] = field != ord(" ")
    return out[keep]
