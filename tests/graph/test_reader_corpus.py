"""Reader corpus: the NumPy-parse readers held to the per-line readers
they replaced (``tests/graph/oracles.py``), line class by line class.

Each case runs through the edge-list, KONECT and Matrix Market readers
from a file path, an open text handle and an ``io.StringIO``.  Where
the oracle accepts, the new reader must give the same six arrays with
the same dtypes.  Where the oracle rejects, the new reader must raise a
:class:`GraphFormatError` naming the same line (or, for an error that is
about the whole graph rather than one line, carrying the same message).
A case may differ only by rejecting a line the oracle accepted; those
are listed in ``NEWLY_REJECTED`` and in ``read_rows``' docstring.
"""

from __future__ import annotations

import io
import re
import warnings

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.io import read_edgelist
from repro.graph.io_formats import read_konect, read_matrix_market

from tests.graph.oracles import (
    read_edgelist_oracle,
    read_konect_oracle,
    read_matrix_market_oracle,
)

ARRAYS = ("indptr", "adj_vertex", "adj_edge", "edge_u", "edge_v", "edge_sign")

#: Bodies shared by the three formats (ids are 1-based in every row, so
#: KONECT and Matrix Market read them as written).
CASES = {
    # comment lines, and blank lines
    "comments_and_blanks": "# header\n% other\n\n   \n1 2 1\n  # indented\n"
                           "2 3 -1\n\t% tabbed\n3 4 1\n",
    # CRLF line endings, tabs, leading and trailing whitespace
    "crlf_tabs_whitespace": "1\t2\t1\r\n  2 3 -1  \r\n\t3\t4\t1\t\r\n",
    "lone_cr_inside_a_line": "1 2 1\r5 6 1\n2 3 -1\n",
    "unicode_whitespace": "1 2 1\n2\x0b3 -1\n3　4 1\n",
    "no_final_newline": "1 2 1\n2 3 -1",
    # extra columns
    "extra_columns": "1 2 1 17\n2 3 -1 foo bar\n3 4 1 # trailing\n",
    # number forms
    "number_forms": "1 2 +1\n2 3 1e0\n3 4 -1.0\n4 5 -2.5\n5 6 inf\n6 7 -inf\n"
                    "7 8 .5\n8 9 1.\n009 10 -1E2\n",
    "ratings": "1 2 5\n2 3 2\n3 4 3\n4 5 4.5\n5 6 1\n",
    "duplicates": "1 2 1\n2 1 -1\n1 2 -1\n3 4 1\n4 3 1\n5 6 -1\n6 5 -1\n",
    "weightless_rows": "1 2\n2 3\n3 4 -1\n",
    "zeros_and_self_loops": "1 1 1\n1 2 0\n2 3 1\n",
    "zero_id": "0 1 1\n1 2 -1\n",
    "negative_id": "1 2 1\n-3 2 1\n",
    # too few columns, non-numeric tokens and float ids
    "one_column": "1 2 1\n3\n",
    "non_numeric": "1 2 1\na b c\n",
    "float_id": "1 2 1\n2.0 3 1\n",
    "fraction_id": "1 2 1\n1.5 3 1\n",
    "exponent_id": "1 2 1\n1e0 3 1\n",
    "id_beyond_int64": "1 2 1\n2 99999999999999999999 1\n",
    # `1_0`, `nan` and `inf`
    "underscore_id": "1 2 1\n2 1_0 1\n",
    "underscore_weight": "1 2 1\n2 3 1_0\n",
    "nan_weight": "1 2 1\n2 3 nan\n",
    "inf_weights": "1 2 inf\n2 3 -inf\n3 4 Infinity\n",
    "non_ascii_digit": "1 2 1\n2 ٣ 1\n",
    # `#` or `%` in the middle of a line
    "percent_glued_to_weight": "1 2 1\n2 3 -1%\n",
    "hash_glued_to_id": "1 2 1\n2# 3 1\n",
    "hash_as_extra_column": "1 2 1 #c\n2 3 -1 %c\n",
    # an empty file, a file with only a header
    "empty": "",
    "header_only": "# nothing but a header\n",
    "whitespace_only": "\n  \n\t\n",
}

#: (case, reader) pairs the oracle accepted and the new reader rejects,
#: with the line it names: Python's ``int``/``float`` take ``_``
#: separators, non-ASCII digits and ``nan``, NumPy's parser does not
#: (a NaN weight became a garbage sign); and Matrix Market now reads a
#: diagonal entry's value before dropping the entry.
NEWLY_REJECTED = {
    ("underscore_id", "edgelist"): 2, ("underscore_id", "konect"): 2,
    ("underscore_id", "mtx"): 2,
    ("underscore_weight", "edgelist"): 2, ("underscore_weight", "konect"): 2,
    ("underscore_weight", "mtx"): 2,
    ("nan_weight", "edgelist"): 2, ("nan_weight", "konect"): 2,
    ("nan_weight", "mtx"): 2,
    ("non_ascii_digit", "edgelist"): 2, ("non_ascii_digit", "konect"): 2,
    ("non_ascii_digit", "mtx"): 2,
    ("mtx_diagonal_without_value", "mtx"): 2,
    ("mtx_diagonal_bad_value", "mtx"): 2,
}

#: Rejections the oracle raised without a line (a bare ValueError,
#: IndexError or OverflowError); the new reader names this line.
UNNUMBERED = {
    ("id_beyond_int64", "edgelist"): 2, ("id_beyond_int64", "konect"): 2,
    ("id_beyond_int64", "mtx"): 2,
    ("one_column", "mtx"): 2, ("non_numeric", "mtx"): 2,
    ("float_id", "mtx"): 2, ("fraction_id", "mtx"): 2,
    ("exponent_id", "mtx"): 2, ("percent_glued_to_weight", "mtx"): 2,
    ("hash_glued_to_id", "mtx"): 2, ("weightless_rows", "mtx"): 1,
    ("comments_and_blanks", "mtx"): 1, ("mtx_hash_line", "mtx"): 2,
    ("header_only", "mtx"): 1,
}

#: Matrix Market bodies that only make sense there.
MTX_CASES = {
    "mtx_hash_line": "1 2 1\n# not a comment here\n",
    "mtx_diagonal_without_value": "1 2 1\n3 3\n",
    "mtx_diagonal_bad_value": "1 2 1\n3 3 x\n",
    "mtx_percent_comments": "% c\n1 2 1\n  % indented\n\n2 3 -1\n",
}

MTX_HEADER = ("%%MatrixMarket matrix coordinate real general\n"
              "% a comment\n12 12 9\n")


def _readers():
    return {
        "edgelist": (read_edgelist, read_edgelist_oracle, ""),
        "konect": (read_konect, read_konect_oracle, ""),
        "mtx": (read_matrix_market, read_matrix_market_oracle, MTX_HEADER),
    }


def _run(reader, text, source, tmp_path, **kwargs):
    """Call *reader* on *text* from one kind of source; returns the
    graph or the exception it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NaN casts
            if source == "stringio":
                return reader(io.StringIO(text), **kwargs)
            path = tmp_path / "graph.txt"
            path.write_bytes(text.encode("utf-8"))
            if source == "path":
                return reader(path, **kwargs)
            with open(path, "r", encoding="utf-8") as fh:
                return reader(fh, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the oracle raises anything
        return exc


def _line(exc) -> int | None:
    found = re.match(r"line (\d+):", str(exc))
    return int(found.group(1)) if found else None


def _assert_same_graph(new, old):
    for name in ARRAYS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _check(kind, case, body, source, tmp_path, **kwargs):
    reader, oracle, header = _readers()[kind]
    text = header + body
    offset = header.count("\n")
    new = _run(reader, text, source, tmp_path, **kwargs)
    old = _run(oracle, text, source, tmp_path, **kwargs)
    if (case, kind) in NEWLY_REJECTED:
        assert not isinstance(old, Exception), old
        assert isinstance(new, GraphFormatError), new
        assert _line(new) == offset + NEWLY_REJECTED[case, kind]
    elif not isinstance(old, Exception):
        assert not isinstance(new, Exception), new
        _assert_same_graph(new, old)
    else:
        assert isinstance(new, GraphFormatError), (old, new)
        if isinstance(old, GraphFormatError):
            if _line(old) is not None:
                assert _line(new) == _line(old)
            else:
                assert str(new) == str(old)
        else:
            assert _line(new) == offset + UNNUMBERED[case, kind]


SOURCES = ("path", "handle", "stringio")


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kind", ("edgelist", "konect", "mtx"))
@pytest.mark.parametrize("case", sorted(CASES))
def test_corpus_case(case, kind, source, tmp_path):
    _check(kind, case, CASES[case], source, tmp_path)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("case", sorted(MTX_CASES))
def test_matrix_market_case(case, source, tmp_path):
    _check("mtx", case, MTX_CASES[case], source, tmp_path)


@pytest.mark.parametrize("dedup", ("product", "first", "last", "sum"))
@pytest.mark.parametrize("kind", ("edgelist", "konect", "mtx"))
def test_dedup_modes(kind, dedup, tmp_path):
    _check(kind, "duplicates", CASES["duplicates"], "path", tmp_path,
           dedup=dedup)


@pytest.mark.parametrize("case", ("ratings", "number_forms", "nan_weight"))
def test_rating_threshold(case, tmp_path):
    _check("edgelist", case, CASES[case], "path", tmp_path,
           rating_threshold=3)


@pytest.mark.parametrize("field", ("pattern", "integer"))
def test_matrix_market_fields(field, tmp_path):
    header = MTX_HEADER.replace("real", field)
    for body in (CASES["extra_columns"], CASES["weightless_rows"],
                 "1 2 x\n3 3 y\n"):
        new = _run(read_matrix_market, header + body, "path", tmp_path)
        old = _run(read_matrix_market_oracle, header + body, "path", tmp_path)
        if isinstance(old, Exception):
            assert isinstance(new, GraphFormatError), (old, new)
            assert _line(new) == 4
        else:
            _assert_same_graph(new, old)


def test_every_newly_rejected_case_exists():
    names = set(CASES) | set(MTX_CASES)
    assert {case for case, _ in NEWLY_REJECTED} <= names
    assert {case for case, _ in UNNUMBERED} <= names


def test_first_bad_line_of_many(tmp_path):
    """The line search halves a long text: the first bad line wins."""
    rows = [f"{i} {i + 1} {1 if i % 3 else -1}" for i in range(1, 2000)]
    rows[1234] = "1235 x 1"
    rows[1500] = "1501"
    text = "# header\n" + "\n".join(rows) + "\n"
    with pytest.raises(GraphFormatError, match=r"^line 1236: "):
        read_edgelist(io.StringIO(text))
    with pytest.raises(GraphFormatError, match=r"line 1236"):
        read_edgelist_oracle(io.StringIO(text))


@pytest.mark.parametrize("text", [
    "",
    "1 2 1\n",
    "%%MatrixMarket matrix array real general\n2 2\n",
    "%%MatrixMarket matrix coordinate complex general\n2 2 1\n",
    "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n",
    "%%MatrixMarket matrix coordinate real general\n% c\n2 2\n1 2 1\n",
    "%%MatrixMarket matrix coordinate real general\n% a b c",
    "%%MatrixMarket matrix coordinate real general\n% a b c\n",
    "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1\n",
    "%%MatrixMarket matrix coordinate real general\nx y z\n1 2 1\n",
    "%%MATRIXMARKET MATRIX COORDINATE REAL SYMMETRIC\r\n%\r\n3 3 1\r\n",
    "%%MatrixMarket matrix coordinate pattern general\n%\n%\n3 3 2",
])
@pytest.mark.parametrize("source", SOURCES)
def test_matrix_market_headers(text, source, tmp_path):
    """Header and size-line errors carry the oracle's exception type and
    message; the rest read the same graph."""
    new = _run(read_matrix_market, text, source, tmp_path)
    old = _run(read_matrix_market_oracle, text, source, tmp_path)
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (old, new)
    else:
        _assert_same_graph(new, old)
