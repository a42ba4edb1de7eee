"""Fuzz the CLI input boundary: every subcommand that reads a JSON file or
a list option gets well-formed and malformed input, selftest gets seeds
that are mostly negative, and any of them may get an --out that is a
missing directory, an existing one or empty. Whatever the input, the command
must exit 0, 1, 2 or 3, never end in a traceback, and never print nan;
with an unwritable --out it must print nothing and not exit 0.

Run time stays bounded: well-formed numbers lie in [-1e6, 1e6], laws have
at most five atoms, catalyst gets only malformed files, --n-max is at most
4 and --prob-step at least 0.25.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastat import cli

NUMBER = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
# JSON values where a number belongs that no command may accept
JUNK = st.sampled_from(
    [math.nan, math.inf, -math.inf, "x", "", True, None, [], {}, [1.0], 10**400]
)
JSON_ANY = st.recursive(
    st.none() | st.booleans() | NUMBER | JUNK | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
NOT_JSON = st.sampled_from(["", "{", "[1,", "nul", '{"support": [0, 1], }'])


def _masses(draw, n):
    raw = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    raw[0] = raw[0] or 1
    return [r / sum(raw) for r in raw]


@st.composite
def good_dist(draw):
    support = draw(st.lists(NUMBER, min_size=1, max_size=5))
    return {"support": support, "probs": _masses(draw, len(support))}


@st.composite
def good_measure(draw):
    locs = draw(st.lists(NUMBER | st.sampled_from(["inf", "-inf"]), min_size=1, max_size=4))
    return {"atoms": [{"a": a, "w": w} for a, w in zip(locs, _masses(draw, len(locs)))]}


@st.composite
def good_profile(draw):
    rates = draw(st.lists(NUMBER, min_size=1, max_size=4))
    return {"rates": rates, "weights": _masses(draw, len(rates))}


@st.composite
def good_table(draw):
    pts = draw(st.lists(st.tuples(NUMBER, NUMBER), max_size=4))
    return {"points": [{"x": x, "u": u} for x, u in pts]}


@st.composite
def broken(draw, good):
    """A well-formed object, most often with one defect: a field dropped, a
    value or a list entry replaced by junk, an entry added, masses negated
    or doubled, or the whole object replaced."""
    obj = draw(good)
    key = draw(st.sampled_from(sorted(obj)))
    how = draw(st.sampled_from(["drop", "junk", "entry", "extra", "scale", "any"]))
    if how == "drop":
        del obj[key]
    elif how == "junk":
        obj[key] = draw(JUNK | JSON_ANY)
    elif how == "entry" and obj[key]:
        items = obj[key]
        i = draw(st.integers(0, len(items) - 1))
        if isinstance(items[i], dict):
            field = draw(st.sampled_from(sorted(items[i])))
            items[i][field] = draw(JUNK)
        else:
            items[i] = draw(JUNK)
    elif how == "extra":
        obj[key] = obj[key] + [draw(NUMBER)]
    elif how == "scale":  # negative masses, or masses summing to 2
        factor = draw(st.sampled_from([-1.0, 2.0]))
        obj[key] = [factor * v if isinstance(v, (int, float)) else v for v in obj[key]]
    else:
        return draw(JSON_ANY)
    return obj


def text_of(good):
    """File text: JSON of a well-formed or a broken object, or not JSON."""
    return st.one_of(
        good.map(json.dumps),
        broken(good).map(json.dumps),
        NOT_JSON,
    )


def malformed_text(good):
    return st.one_of(broken(good).map(json.dumps), NOT_JSON)


def option_list():
    """Text for --values and --rates: a few numbers or junk."""
    return st.one_of(
        st.lists(NUMBER, min_size=1, max_size=4).map(lambda v: ",".join(map(repr, v))),
        st.sampled_from(["nan", "1,nan", "inf", "-inf,1", "", ",", "1,,2", "x", "1e400"]),
        st.text(max_size=10),
    )


FLOAT_TEXT = NUMBER.map(repr) | st.sampled_from(["nan", "inf", "-inf", "0"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check(argv, unwritable):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert "nan" not in out.getvalue().lower(), (argv, out.getvalue())
    if unwritable:
        assert code != 0 and out.getvalue() == "", (argv, code)


def _files(draw, workdir, texts):
    paths = []
    for i, text in enumerate(texts):
        path = workdir / f"in{i}.json"
        path.write_text(draw(text))
        paths.append(str(path))
    return paths


def _argv(draw, workdir, command):
    dists, measures = text_of(good_dist()), text_of(good_measure())
    if command == "phi":
        m, d = _files(draw, workdir, [measures, dists])
        return ["phi", "--measure", m, "--dist", d]
    if command == "kprofile":
        (d,) = _files(draw, workdir, [dists])
        return ["kprofile", "--dist", d, "--n-grid", draw(st.sampled_from(["2", "3", "5", "11"]))]
    if command == "classify":
        (m,) = _files(draw, workdir, [measures])
        return ["classify", "--measure", m, "--kind", draw(st.sampled_from(["risk", "betweenness"]))]
    if command == "compare":
        return ["compare", *_files(draw, workdir, [measures, measures])]
    if command == "dominance":
        d1, d2 = _files(draw, workdir, [dists, dists])
        return ["dominance", d1, d2, "--order", draw(st.sampled_from(["1", "2"]))]
    if command == "catalyst":
        bad = malformed_text(good_dist())
        d1, d2 = _files(draw, workdir, [bad, bad])
        return ["catalyst", d1, d2, "--order", draw(st.sampled_from(["1", "2"]))]
    if command == "large-n":
        d1, d2 = _files(draw, workdir, [dists, dists])
        return ["large-n", d1, d2, "--n-max", str(draw(st.integers(0, 4)))]
    if command == "aggregate":
        (p,) = _files(draw, workdir, [text_of(good_profile())])
        return ["aggregate", p]
    if command == "indiff-pair":
        return ["indiff-pair", f"--rates={draw(option_list())}", f"--c={draw(FLOAT_TEXT)}"]
    if command == "time-value":
        d, m, t = _files(draw, workdir, [dists, measures, text_of(good_table())])
        utility = draw(st.sampled_from(["identity", "log", "power:2", "power:400", "power:nan", f"table:{t}"]))
        return ["time-value", "--x", draw(FLOAT_TEXT), "--dist", d, "--rate",
                draw(FLOAT_TEXT), "--measure", m, "--utility", utility]
    if command == "violation-search":
        (m,) = _files(draw, workdir, [measures])
        prefs = st.sampled_from(["mean", "median", "mean-variance:0.5", f"mas:{m}"])
        return ["violation-search", "--pref1", draw(prefs), "--pref2", draw(prefs),
                f"--values={draw(option_list())}",
                "--prob-step", draw(st.sampled_from(["0.25", "0.5", "1"])),
                "--max-points", draw(st.sampled_from(["1", "2"]))]
    if command == "selftest":
        return ["selftest", "--seed", str(draw(st.integers(-2**64, 0)))]
    d1, d2, z = _files(draw, workdir, [dists, dists, dists])
    return ["cdf-csv", d1, d2] + (["--add", z] if draw(st.booleans()) else [])


@pytest.mark.parametrize("command", [
    "phi", "kprofile", "classify", "compare", "dominance", "catalyst", "large-n",
    "aggregate", "indiff-pair", "time-value", "violation-search", "cdf-csv", "selftest",
])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_input_boundary(workdir, command, data):
    argv = _argv(data.draw, workdir, command)
    out = data.draw(st.sampled_from([None, None, "missing", "directory", "empty"]))
    if out is not None:
        where = {"missing": workdir / "missing" / "out.json", "directory": workdir, "empty": ""}
        argv.append(f"--out={where[out]}")
    _check(argv, unwritable=out is not None)
