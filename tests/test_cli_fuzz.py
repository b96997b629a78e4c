"""CLI contract fuzz: hypothesis draws argv for every subcommand except
``selftest``, with small or malformed values and matrix files, and runs
each case in-process through ``cli.main``.

Every case must end in one of three ways: exit 0 with data on stdout
(JSON unless the command prints CSV or a table), exit 1 with a JSON
``{"error": ...}`` as the whole of stderr and nothing on stdout, or
argparse's ``SystemExit(2)``.  No other exception may escape.  Values stay small so
that a valid case runs in milliseconds; the examples are derandomized so
that the suite sees the same cases on every run.  A second fuzz hands
``seifert classify`` and ``seifert iso`` exact unit upper-triangular
matrix files of size up to 5, which reach the exact classification's
cyclotomic split, quadratic orbit polynomials and Jordan chains.  A third
hands ``hor matrix`` and ``hor track`` monic palindromic and
antipalindromic exact coefficient lists of degree up to 6, whose rational
roots of unity the exact cyclotomic split must find.
Contract breaks the fuzz found are pinned in ``FIXED``.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_stokes import cli

INTS = st.sampled_from(["0", "1", "2", "3", "-1", "x", "", "1/2", "2.5", "1e400", "nan"])
RATS = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "1/3", "2/3", "-1/4", "0.5", "-0.3",
                        "1/0", "1/-2", "x", "", "nan", "inf", "1e400", "1e-300", "-0.0",
                        str(10**78), str(10**400)])
SMALL = st.sampled_from(["-1", "0", "1", "x", ""])
LISTS = st.lists(RATS, max_size=4).map(",".join)
EXPONENTS = st.lists(st.sampled_from(["1", "2", "3", "0", "-2", "x", ""]), max_size=3).map(",".join)
ENTRIES = st.one_of(RATS, st.integers(-3, 3), st.sampled_from([0.5, -1.25, 1e300, True, None]))
BROKEN_MATRICES = st.sampled_from([
    "not json", "[]", "{}", "null", '{"entries": []}', '{"entries": "x"}',
    '{"n": 2, "entries": [[1]]}', '{"entries": [[1, 2], [3]]}', '{"n": "1", "entries": [[1]]}',
    '{"entries": [[[1]]]}', '{"entries": [[{}]]}', '{"entries": [[NaN]]}',
])


@st.composite
def matrix_doc(draw, n=None):
    """A JSON matrix document: unit upper-triangular, arbitrary or broken."""
    kind = draw(st.sampled_from(["unit", "unit", "any", "broken"]))
    if kind == "broken" and n is None:
        return draw(BROKEN_MATRICES)
    n = n or draw(st.integers(1, 3))
    rows = [[("1" if i == j else "0") if kind != "any" and j <= i else draw(ENTRIES)
             for j in range(n)] for i in range(n)]
    return json.dumps({"n": n, "entries": rows})


#: small exact entries: rational monodromies whose characteristic
#: polynomials mix cyclotomic factors, rational quadratics and the rest
EXACT_ENTRIES = st.sampled_from(["0", "0", "1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2",
                                 "-1/3", "2/3", "-5/4"])


@st.composite
def exact_matrix_doc(draw):
    """An exact unit upper-triangular matrix document of size 1 to 5."""
    n = draw(st.integers(1, 5))
    rows = [[("1" if i == j else "0") if j <= i else draw(EXACT_ENTRIES) for j in range(n)]
            for i in range(n)]
    return json.dumps({"n": n, "entries": rows})


@st.composite
def symmetric_poly_argv(draw):
    """``hor matrix`` or ``hor track`` on a monic palindromic (k = 1) or
    antipalindromic (k = 2) exact coefficient list of degree 1 to 6: its
    roots of unity go through the exact cyclotomic split, the rest through
    float roots, and its --k is its class or, less often, the other."""
    n, k = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2]))
    sign = 1 if k == 1 else -1
    cs = [sign] + [0] * (n - 1) + [1]
    for j in range(1, n // 2 + 1):
        # c_j = sign c_(n-j); an antipalindromic middle coefficient is 0
        if j < n - j or k == 1:
            cs[j] = Fraction(draw(EXACT_ENTRIES))
            cs[n - j] = sign * cs[j]
    poly = ",".join(map(str, cs))
    kk = draw(st.sampled_from([k, k, 3 - k]))
    if draw(st.booleans()):
        return ["hor", "matrix", f"--poly={poly}"] + draw(st.sampled_from([[], [f"--k={kk}"]]))
    steps = draw(st.sampled_from(["1", "2", "16"]))
    return ["hor", "track", f"--k={kk}", f"--target-poly={poly}", f"--steps={steps}"]


@st.composite
def path_doc(draw):
    """A ``track`` path file: a short path of same-size matrices, or broken."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["[]", "{}", '{"path": 1}', '{"path": []}', '{"path": [1]}',
                                     '{"path": [{"entries": [[1]]}, []]}', "x"]))
    n = draw(st.integers(1, 3))
    docs = draw(st.lists(matrix_doc(n), min_size=1, max_size=3))
    return json.dumps({"path": [json.loads(d) for d in docs]})


def _set(name, values):
    """A ``--name value`` pair that is always there, for options whose
    default would make a valid case take up to seconds."""
    return values.map(lambda v: [f"{name}={v}"])


def _opt(name, values):
    """An optional ``--name value`` pair."""
    return st.one_of(st.just([]), _set(name, values))


def _cmd(*parts):
    """The concatenation of fixed words and drawn argv pieces."""
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts)).map(
        lambda pieces: [w for piece in pieces for w in piece])


MATRIX = "@matrix"      # placeholders replaced by file paths
OTHER = "@other"
PATH = "@path"

COMMANDS = st.one_of(
    _cmd("hor", "spectrum", _opt("--k", INTS), _opt("--beta", LISTS)),
    _cmd("hor", "matrix", _opt("--poly", LISTS), _opt("--k", INTS)),
    _cmd("hor", "verify", _opt("--n", INTS), _set("--samples", INTS)),
    _cmd("hor", "track", _opt("--k", INTS), _opt("--target-poly", LISTS),
         _opt("--steps", st.sampled_from(["1", "2", "16", "0", "x"]))),
    _cmd("seifert", "classify", _opt("--matrix", st.just(MATRIX)), st.sampled_from([[], ["--exact"]]),
         _opt("--gram", st.sampled_from(["gram", "triangular", "x"]))),
    _cmd("seifert", "iso", st.just([MATRIX, OTHER]),
         _opt("--gram", st.sampled_from(["gram", "triangular"]))),
    _cmd("chain", "verify", _opt("--a", EXPONENTS)),
    _cmd("chain", "grid", _set("--a0-max", INTS), _set("--aj-max", INTS), _set("--m-max", INTS)),
    _cmd("chain", "spectrum", _opt("--a", EXPONENTS),
         _opt("--format", st.sampled_from(["json", "csv", "x"]))),
    _cmd("strata3", "classify", _opt("--a", LISTS)),
    _cmd("strata3", "scan", _opt("--step", RATS), _set("--lo", SMALL), _set("--hi", SMALL)),
    _cmd("solve2", _opt("--a", RATS)),
    _cmd("orbit", "explore", _opt("--matrix", st.just(MATRIX)), _set("--depth", INTS),
         _set("--budget", st.sampled_from(["0", "1", "20", "-1", "x"]))),
    _cmd("orbit", "conj16", _set("--n", INTS)),
    _cmd("track", _opt("--path-file", st.just(PATH)),
         _opt("--steps", st.sampled_from(["1", "2", "16", "0", "x"]))),
)

EXACT_COMMANDS = st.one_of(
    _cmd("seifert", "classify", st.just([f"--matrix={MATRIX}"]),
         st.sampled_from([[], ["--exact"]]), _opt("--gram", st.sampled_from(["gram", "triangular"]))),
    _cmd("seifert", "iso", st.just([MATRIX, OTHER]),
         _opt("--gram", st.sampled_from(["gram", "triangular"]))),
)

GLOBALS = _cmd(_opt("--mode", st.sampled_from(["exact", "numeric", "x"])),
               _opt("--output", st.sampled_from(["json", "csv", "table"])),
               _opt("--precision", INTS), _opt("--tol", RATS), _opt("--seed", INTS))


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call; argparse's
    exit becomes ("usage", code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("usage", exc.code)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = _run(argv)
    if isinstance(code, tuple):
        assert code == ("usage", 2), (argv, code, err)
    elif code == 0:
        assert out.strip(), argv
        text = ("--output=csv" in argv or "--output=table" in argv or "scan" in argv
                or "--format=csv" in argv)
        if not text:
            json.loads(out)
    else:
        assert code == 1, (argv, code)
        assert out == "", (argv, out)
        assert "error" in json.loads(err), (argv, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


def _materialise(files, argv, docs):
    """argv with the placeholders replaced by files holding ``docs``."""
    for name, doc in zip((MATRIX, OTHER, PATH), docs):
        path = files / f"{name[1:]}.json"
        path.write_text(doc)
        argv = [w.replace(name, str(path)) for w in argv]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(prefix=GLOBALS, command=COMMANDS, docs=st.tuples(matrix_doc(), matrix_doc(), path_doc()))
def test_cli_contract(files, prefix, command, docs):
    check_contract(_materialise(files, prefix + command, docs))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mode=_opt("--mode", st.sampled_from(["exact", "numeric"])), command=EXACT_COMMANDS,
       docs=st.tuples(exact_matrix_doc(), exact_matrix_doc()))
def test_exact_classify_contract(files, mode, command, docs):
    check_contract(_materialise(files, mode + command, docs))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mode=_opt("--mode", st.sampled_from(["exact", "numeric"])), argv=symmetric_poly_argv())
def test_symmetric_poly_contract(mode, argv):
    check_contract(mode + argv)


# contract breaks the fuzz found, each mended in the package:
# a path file whose "path" is not a list raised TypeError in ``track``
FIXED = [
    (["track", f"--path-file={PATH}"], ("{}", "{}", '{"path": 1}')),
]


@pytest.mark.parametrize("argv, docs", FIXED)
def test_fixed_contract_breaks(files, argv, docs):
    check_contract(_materialise(files, argv, docs))
