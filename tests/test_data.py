"""SVMlight parsing, serialization round-trips, synthetic generation."""

from unittest import mock

import numpy as np
import pytest
from helpers import parse_svmlight_line_by_line, serialize_svmlight_fstring
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrlab import data
from ultrlab.data import (
    Dataset,
    ParseError,
    generate_synthetic,
    parse_svmlight,
    serialize_svmlight,
)


def _query_rows(ds, q):
    return slice(ds.offsets[q], ds.offsets[q + 1])


def test_single_line_parse():
    ds = parse_svmlight("2 qid:7 1:0.5 3:1.0")
    assert ds.n_queries == 1
    assert list(ds.query_ids) == ["7"]
    assert list(ds.offsets) == [0, 1]
    assert ds.labels.tolist() == [2]
    assert np.array_equal(ds.features, np.array([[0.5, 0.0, 1.0]]))
    assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
    assert ds.feature_dim == 3


def test_empty_stream():
    ds = parse_svmlight("")
    assert ds.n_queries == 0
    assert ds.feature_dim == 0


def test_lines_group_by_qid():
    ds = parse_svmlight("0 qid:1 1:1.0\n4 qid:1 1:2.0")
    assert ds.n_queries == 1
    assert np.array_equal(ds.labels[_query_rows(ds, 0)], np.array([0, 4]))


def test_interleaved_qids_group_in_first_appearance_order():
    text = "1 qid:b 1:1.0\n2 qid:a 1:2.0\n3 qid:b 1:3.0"
    ds = parse_svmlight(text)
    assert list(ds.query_ids) == ["b", "a"]
    assert list(ds.offsets) == [0, 2, 3]
    assert np.array_equal(ds.labels, np.array([1, 3, 2]))
    assert np.array_equal(ds.features[:, 0], np.array([1.0, 3.0, 2.0]))
    assert list(ds.doc_ids) == ["qb_d0", "qb_d1", "qa_d0"]


def test_comment_becomes_doc_id_and_default_ids_count_up():
    ds = parse_svmlight("1 qid:3 1:0.1 # doc-alpha\n2 qid:3 1:0.2")
    assert list(ds.doc_ids) == ["doc-alpha", "q3_d1"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_svmlight("1 qid:1 1:0.5\nnot-a-label qid:1 1:0.5")
    assert info.value.line_no == 2
    with pytest.raises(ParseError):
        parse_svmlight("1 noqid 1:0.5")
    with pytest.raises(ParseError):
        parse_svmlight("1 qid:1 0:0.5")
    with pytest.raises(ParseError):
        parse_svmlight("1 qid:1 1=0.5")
    with pytest.raises(ParseError):
        parse_svmlight("# floating comment")
    with pytest.raises(ParseError, match="line 2: feature id 1 given twice"):
        parse_svmlight("0 qid:1 1:0.1\n1 qid:1 1:0.5 1:0.7")


def test_label_out_of_range_is_a_parse_error_naming_the_range():
    with pytest.raises(ParseError, match=r"^line 1: label 5 outside \[0, 4\]$"):
        parse_svmlight("5 qid:1 1:0.5")
    with pytest.raises(ParseError, match=r"^line 2: label -1 outside \[0, 4\]$"):
        parse_svmlight("0 qid:1 1:0.5\n-1 qid:1 1:0.5")


def test_duplicate_doc_ids_rejected():
    with pytest.raises(ValueError):
        parse_svmlight("1 qid:1 1:0.5 # same\n2 qid:1 1:0.6 # same")
    # The same id in two different queries is fine.
    ds = parse_svmlight("1 qid:1 1:0.5 # same\n2 qid:2 1:0.6 # same")
    assert ds.n_queries == 2


def _valid_arrays(**overrides):
    arrays = dict(features=np.zeros((3, 2)), labels=[0, 4, 1], doc_ids=["a", "b", "a"],
                  query_ids=["q", "r"], offsets=[0, 2, 3])
    arrays.update(overrides)
    return arrays


def test_dataset_validates_its_arrays():
    ds = Dataset(**_valid_arrays())
    assert ds.n_queries == 2 and ds.feature_dim == 2
    bad = [
        dict(features=np.zeros((2, 2))),                   # a row short
        dict(features=np.zeros(3)),                        # not (n_docs, d)
        dict(features=np.array([[0.0, np.inf], [0, 0], [0, 0]])),
        dict(labels=[0, 5, 1]),
        dict(labels=[0, -1, 1]),
        dict(doc_ids=["a", "a", "b"]),                     # duplicate within query q
        dict(offsets=[0, 0, 3]),                           # empty query
        dict(offsets=[0, 2]),                              # one offset short
        dict(offsets=[0, 2, 4]),                           # past the last row
    ]
    for override in bad:
        with pytest.raises(ValueError):
            Dataset(**_valid_arrays(**override))


def test_groups_view_matches_the_arrays():
    ds = parse_svmlight("1 qid:b 1:1.0 # x\n2 qid:a 2:2.0\n3 qid:b 1:3.0")
    groups = ds.groups
    assert [g.query_id for g in groups] == ["b", "a"]
    assert [[d.doc_id for d in g.docs] for g in groups] == [["x", "qb_d1"], ["qa_d0"]]
    assert np.array_equal(groups[0].labels, np.array([1, 3]))
    assert [d.relevance for d in groups[0].docs] == [1, 3]
    assert np.array_equal(groups[1].docs[0].features, np.array([0.0, 2.0]))


def _dataset_strategy():
    feature = st.floats(-100, 100, allow_nan=False, width=64)
    doc = st.tuples(st.integers(0, 4), st.lists(feature, min_size=3, max_size=3))
    group = st.lists(doc, min_size=1, max_size=4)
    return st.lists(group, min_size=0, max_size=5)


@settings(max_examples=40, deadline=None)
@given(_dataset_strategy())
def test_serialize_parse_round_trip(raw_groups):
    docs = [(qi, di, lab, feats) for qi, group in enumerate(raw_groups)
            for di, (lab, feats) in enumerate(group)]
    ds = Dataset(
        features=np.array([d[3] for d in docs]).reshape(len(docs), 3 if docs else 0),
        labels=[d[2] for d in docs],
        doc_ids=[f"q{qi}_d{di}" for qi, di, _, _ in docs],
        query_ids=[str(qi) for qi in range(len(raw_groups))],
        offsets=np.cumsum([0] + [len(g) for g in raw_groups]),
    )
    back = parse_svmlight(serialize_svmlight(ds))
    assert back.n_queries == ds.n_queries
    assert np.array_equal(back.query_ids, ds.query_ids)
    assert np.array_equal(back.offsets, ds.offsets)
    assert np.array_equal(back.doc_ids, ds.doc_ids)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.features.view(np.uint64), ds.features.view(np.uint64))


# Pieces of SVMlight lines, valid ones listed more often than faults.
_LABELS = ["0", "1", "2", "3", "4", "+2", "02"] * 3 + ["5", "-1", "x", "2.0", "", "1_0"]
_QIDS = ["qid:1", "qid:2", "qid:a"] * 4 + ["qid:", "qid", "q:1", "1:0.5"]
_IDS = ["1", "2", "3", "4", "+2", "02", "1_0"]
_VALUES = ["0.5", "-0.0", "5e-324", "1e-05", "1e16", "1.7976931348623157e308", "1_0", ".5",
           "+1", "3"]
_BAD_TOKENS = ["1=0.5", ":5", "1:", "1:2:3", "a:1", "1:abc", "0:1", "-3:1", ":", "1::2", "5",
               "nan:1", "1:nan", "2:inf"]
_SEPARATORS = [" "] * 4 + ["  ", "\t", " \t "]
_ENDINGS = ["\n"] * 4 + ["\r\n", "\r"]
_COMMENTS = [""] * 3 + [" # d1", " # d2", "#d3", " #", " # ", "# %s"]


@st.composite
def _svmlight_lines(draw):
    """One line of a random SVMlight text, valid more often than not."""
    kind = draw(st.sampled_from(["doc"] * 8 + ["blank", "comment-only", "short"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment-only":
        return "# only a comment"
    tokens = [draw(st.sampled_from(_LABELS))]
    if kind == "doc":
        tokens.append(draw(st.sampled_from(_QIDS)))
        n_feats = draw(st.integers(0, 5))
        ids = draw(st.one_of(st.just([str(i) for i in range(1, n_feats + 1)]),
                             st.lists(st.sampled_from(_IDS), min_size=n_feats,
                                      max_size=n_feats)))
        for fid in ids:
            value = draw(st.one_of(st.sampled_from(_VALUES),
                                   st.floats(allow_nan=False, allow_infinity=False).map(repr)))
            tokens.append(f"{fid}:{value}")
        for _ in range(draw(st.sampled_from([0] * 6 + [1, 1, 2]))):
            tokens.insert(draw(st.integers(2, len(tokens))), draw(st.sampled_from(_BAD_TOKENS)))
    sep = draw(st.sampled_from(_SEPARATORS))
    return sep.join(tokens) + draw(st.sampled_from(_COMMENTS))


def _parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the arrays, feature bits included, or the refusal."""
    try:
        ds = parse(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)
    return (ds.features.shape, ds.features.view(np.uint64).tolist(), ds.labels.tolist(),
            ds.doc_ids.tolist(), ds.query_ids.tolist(), ds.offsets.tolist())


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(_svmlight_lines(), st.sampled_from(_ENDINGS)), max_size=12),
       block_lines=st.integers(1, 5))
def test_parse_matches_the_line_by_line_oracle(lines, block_lines):
    """Block-wise conversion parses as the line-by-line oracle does, bit for bit,
    and refuses with its message and line, whatever the block size."""
    text = "".join(line + end for line, end in lines)
    want = _parse_outcome(parse_svmlight_line_by_line, text)
    with mock.patch.object(data, "BLOCK_LINES", block_lines):
        assert _parse_outcome(parse_svmlight, text) == want


_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def _edge_datasets(draw):
    """Small datasets of 0-4 features holding edge floats, with '%' in their ids."""
    d = draw(st.integers(0, 4))
    value = st.one_of(st.sampled_from(_EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    doc = st.tuples(st.integers(0, 4), st.lists(value, min_size=d, max_size=d))
    groups = draw(st.lists(st.lists(doc, min_size=1, max_size=3), max_size=4))
    docs = [doc for group in groups for doc in group]
    return Dataset(features=np.array([feats for _, feats in docs]).reshape(len(docs), d),
                   labels=[label for label, _ in docs],
                   doc_ids=[f"%d{i} %s" for i in range(len(docs))],
                   query_ids=[f"q%{q}" for q in range(len(groups))],
                   offsets=np.cumsum([0] + [len(group) for group in groups]))


@settings(max_examples=60, deadline=None)
@given(_edge_datasets())
def test_serialize_matches_the_fstring_oracle(ds):
    """One template renders every row as the f-string oracle does, byte for byte,
    and the text parses back to the same bits."""
    text = serialize_svmlight(ds)
    assert text == serialize_svmlight_fstring(ds)
    if ds.feature_dim and ds.n_queries:
        back = parse_svmlight(text)
        assert np.array_equal(back.features.view(np.uint64), ds.features.view(np.uint64))


def _valid_lines(n):
    return [f"{i % 5} qid:{i // 10} 1:{i / 7!r} 2:0.25 # d{i}" for i in range(n)]


@pytest.mark.parametrize("lines, want", [
    # A feature fault on line 2 comes before a label fault on line 4.
    (["1 qid:1 1:0.5", "1 qid:1 1:bad", "1 qid:1 2:0.1", "x qid:1 1:0.5"],
     "line 2: bad feature token '1:bad'"),
    # ... and before a qid fault, an empty qid and a comment-only line.
    (["1 qid:1 2:0.5 2:0.1", "1 noqid 1:0.5"], "line 1: feature id 2 given twice"),
    (["1 qid:1 0:0.5", "1 qid: 1:0.5"], "line 1: feature ids are 1-based, got 0"),
    (["1 qid:1 1:0.5", "1 qid:1 1=2", "# stray"], "line 2: bad feature token '1=2'"),
    # Two faults on one line: the label before any feature, then token order.
    (["x qid:1 1:bad"], "line 1: bad label 'x'"),
    (["1 qid:1 0:1 1:bad"], "line 1: feature ids are 1-based, got 0"),
    (["1 qid:1 1:bad 0:1"], "line 1: bad feature token '1:bad'"),
    (["1 qid:1 3:1 3:bad"], "line 1: bad feature token '3:bad'"),
    # Two colons in one token and none in the next still split into two fields each.
    (["1 qid:1 1:2:3 5"], "line 1: bad feature token '1:2:3'"),
    (["1 qid:1 1:2:3", "1 qid:1 5"], "line 1: bad feature token '1:2:3'"),
])
def test_the_first_fault_in_file_order_is_reported(lines, want):
    text = "\n".join(lines)
    for parse in (parse_svmlight, parse_svmlight_line_by_line):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == want


@pytest.mark.parametrize("faults", [
    {511: "1 qid:1 1:0.5 1:0.5"}, {512: "1 qid:1 0:0.5"}, {513: "1 qid:1 1:x"},
    {1500: "9 qid:1 1:0.5"}, {512: "1 qid:1 1:x", 513: "x qid:1"},
    {511: "1 qid:1 1=0", 513: "1 qid:1 1:x"}, {513: "1 qid:1 1:x", 1500: "x qid:1"},
    {1025: "1 qid:1 4:1 2:1 2:3"},
])
def test_late_faults_on_both_sides_of_a_block_boundary(faults):
    """With BLOCK_LINES at 512, faults at and around the block edges are found
    where the oracle finds them."""
    assert data.BLOCK_LINES == 512
    lines = _valid_lines(1600)
    for line_no, line in faults.items():
        lines[line_no - 1] = line
    text = "\n".join(lines)
    want = _parse_outcome(parse_svmlight_line_by_line, text)
    assert want[2] == min(faults)
    assert _parse_outcome(parse_svmlight, text) == want


def test_many_blocks_parse_as_the_oracle_does():
    text = "\r\n".join(_valid_lines(1600)[::-1] + ["2 qid:x 3:1.0 1:2.0 # out of order"])
    want = _parse_outcome(parse_svmlight_line_by_line, text)
    assert want[0] == (1601, 3)
    assert _parse_outcome(parse_svmlight, text) == want


def test_a_feature_id_past_int64_is_refused_as_the_oracle_refuses_it():
    for text in ("1 qid:1 99999999999999999999:1", "1 qid:1 99999999999999999999:1\nx qid:1"):
        want = _parse_outcome(parse_svmlight_line_by_line, text)
        assert want[0] in ("ValueError", "ParseError")
        assert _parse_outcome(parse_svmlight, text) == want


@pytest.mark.parametrize("fid", [10**12, 10**20], ids=["past-memory", "past-int64"])
def test_a_width_no_array_can_hold_is_refused_on_the_first_line_with_that_id(fid):
    lines = _valid_lines(1200)
    lines[99] = "1 qid:z 7:1.0"
    lines[549] = f"1 qid:x 1:0.5 {fid}:1.0"
    lines[1099] = f"1 qid:y {fid}:2.0"
    text = "\n".join(lines)
    want = _parse_outcome(parse_svmlight_line_by_line, text)
    assert want == ("ParseError", f"line 550: feature id {fid} needs a 1200 x {fid} "
                    "feature matrix, too large to allocate", 550)
    assert _parse_outcome(parse_svmlight, text) == want


def test_round_trip_of_generated_data():
    ds = generate_synthetic(5, 4, 6, seed=3)
    back = parse_svmlight(serialize_svmlight(ds))
    assert back.feature_dim == ds.feature_dim
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.doc_ids, ds.doc_ids)


def test_generate_minimal_dataset():
    ds = generate_synthetic(1, 1, 4, seed=42)
    assert ds.n_queries == 1
    assert list(ds.offsets) == [0, 1]
    assert 0 <= ds.labels[0] <= 4


def test_generate_is_deterministic():
    a = generate_synthetic(8, 5, 6, seed=9)
    b = generate_synthetic(8, 5, 6, seed=9)
    assert serialize_svmlight(a) == serialize_svmlight(b)


def test_generate_differs_across_seeds():
    a = generate_synthetic(8, 5, 6, seed=9)
    b = generate_synthetic(8, 5, 6, seed=10)
    assert serialize_svmlight(a) != serialize_svmlight(b)


def test_generated_grades_cover_all_five_levels():
    ds = generate_synthetic(500, 10, 16, seed=1)
    assert set(ds.labels.tolist()) == {0, 1, 2, 3, 4}


def test_generated_grades_stay_in_range():
    ds = generate_synthetic(50, 8, 5, seed=2)
    assert ds.labels.min() >= 0 and ds.labels.max() <= 4


def test_shared_teacher_separates_features_from_labeling():
    base = generate_synthetic(20, 5, 6, seed=1, teacher_seed=77)
    same_teacher = generate_synthetic(20, 5, 6, seed=2, teacher_seed=77)
    own_teacher = generate_synthetic(20, 5, 6, seed=2)
    assert serialize_svmlight(base) != serialize_svmlight(same_teacher)
    assert not np.array_equal(same_teacher.labels, own_teacher.labels)


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 6, seed=1)
    with pytest.raises(ValueError):
        generate_synthetic(5, 0, 6, seed=1)
    with pytest.raises(ValueError):
        generate_synthetic(5, 5, 3, seed=1)
