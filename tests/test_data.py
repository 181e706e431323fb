"""SVMlight parsing, serialization round-trips, synthetic generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
