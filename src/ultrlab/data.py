"""Query-grouped learning-to-rank datasets: SVMlight parsing, synthetic generation, serialization.

Documents carry dense float64 feature vectors and integer relevance grades in
``[0, Y_MAX]`` (``Y_MAX = 4``, the five-grade convention of the large LETOR
benchmarks). ``Y_MAX`` is the one top grade of the package: the click model's
gain map and the ranking metrics read it too. Sparse SVMlight feature ids are
densified on parse.
"""

from collections import namedtuple
from dataclasses import dataclass
from typing import List

import numpy as np

from .seeding import rng_for

Y_MAX = 4

QueryView = namedtuple("QueryView", "query_id labels docs")
DocView = namedtuple("DocView", "doc_id features relevance")


class ParseError(ValueError):
    """A malformed SVMlight line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Dataset:
    """Query-grouped documents as flat arrays, one row per document.

    Query ``q`` owns rows ``offsets[q]:offsets[q + 1]`` of ``features``,
    ``labels`` and ``doc_ids``, in file (or generation) order.
    """

    features: np.ndarray   # (n_docs, feature_dim) float64
    labels: np.ndarray     # (n_docs,) int64 grades in [0, Y_MAX]
    doc_ids: np.ndarray    # (n_docs,) str, unique within a query
    query_ids: np.ndarray  # (n_queries,) str
    offsets: np.ndarray    # (n_queries + 1,) int64, from 0 to n_docs

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.doc_ids = np.asarray(self.doc_ids, dtype=str)
        self.query_ids = np.asarray(self.query_ids, dtype=str)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        n = self.labels.shape[0] if self.labels.ndim == 1 else -1
        if self.features.ndim != 2 or self.features.shape[0] != n or self.doc_ids.shape != (n,):
            raise ValueError("features must be (n_docs, d) with one label and doc id per row")
        if (self.query_ids.ndim != 1 or self.offsets.shape != (self.n_queries + 1,)
                or self.offsets[0] != 0 or self.offsets[-1] != n):
            raise ValueError("offsets must run from 0 to n_docs, one entry per query plus one")
        lengths = np.diff(self.offsets)
        if np.any(lengths <= 0):
            raise ValueError(f"query {self.query_ids[np.argmax(lengths <= 0)]}: empty document list")
        for bad, what in ((~np.isfinite(self.features).all(axis=1), "non-finite feature value"),
                          ((self.labels < 0) | (self.labels > Y_MAX),
                           f"relevance outside [0, {Y_MAX}]")):
            if bad.any():
                raise ValueError(f"doc {self.doc_ids[np.argmax(bad)]}: {what}")
        owner = np.repeat(np.arange(self.n_queries), lengths)
        order = np.lexsort((self.doc_ids, owner))
        ids, owner = self.doc_ids[order], owner[order]
        dup = (ids[1:] == ids[:-1]) & (owner[1:] == owner[:-1])
        if dup.any():
            raise ValueError(f"query {self.query_ids[owner[np.argmax(dup)]]}: duplicate doc ids")

    @property
    def n_queries(self) -> int:
        return self.query_ids.size

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def groups(self) -> List[QueryView]:
        """Per-query views of the arrays, built on each access."""
        out = []
        for qid, a, b in zip(self.query_ids, self.offsets[:-1], self.offsets[1:]):
            docs = [DocView(self.doc_ids[i], self.features[i], self.labels[i]) for i in range(a, b)]
            out.append(QueryView(qid, self.labels[a:b], docs))
        return out


def parse_svmlight(text: str) -> Dataset:
    """Parse SVMlight/LETOR lines ``<label> qid:<id> <fid>:<val> ... [# comment]``.

    Feature ids are 1-based; ids absent from a line are filled with 0.0.
    Documents are grouped by qid in first-appearance order, and feature_dim is
    the maximum feature id seen anywhere in the stream. A trailing comment, if
    present, becomes the document id; otherwise ids are assigned per group.
    """
    qids, labels, comments = [], [], []
    cells_row, cells_fid, cells_val = [], [], []
    max_fid = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        comment = comment.strip()
        line = line.strip()
        if not line:
            if comment:
                raise ParseError(line_no, "comment-only line has no label")
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(line_no, "expected '<label> qid:<id> ...'")
        try:
            label = int(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label {tokens[0]!r}") from None
        if not 0 <= label <= Y_MAX:
            raise ParseError(line_no, f"label {label} outside [0, {Y_MAX}]")
        if not tokens[1].startswith("qid:"):
            raise ParseError(line_no, f"expected qid:<id>, got {tokens[1]!r}")
        qid = tokens[1][len("qid:"):]
        if not qid:
            raise ParseError(line_no, "empty qid")
        feats = {}
        for tok in tokens[2:]:
            fid_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(line_no, f"bad feature token {tok!r}")
            try:
                fid = int(fid_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"bad feature token {tok!r}") from None
            if fid < 1:
                raise ParseError(line_no, f"feature ids are 1-based, got {fid}")
            if fid in feats:
                raise ParseError(line_no, f"feature id {fid} given twice")
            feats[fid] = val
            max_fid = max(max_fid, fid)
        cells_row.extend([len(qids)] * len(feats))
        cells_fid.extend(feats)
        cells_val.extend(feats.values())
        qids.append(qid)
        labels.append(label)
        comments.append(comment)

    features = np.zeros((len(qids), max_fid), dtype=np.float64)
    features[np.array(cells_row, dtype=np.int64),
             np.array(cells_fid, dtype=np.int64) - 1] = cells_val
    # Group lines by qid in first-appearance order, keeping line order within a group.
    first: dict = {}
    owner = np.array([first.setdefault(qid, len(first)) for qid in qids], dtype=np.int64)
    order = np.argsort(owner, kind="stable")
    offsets = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=len(first)), out=offsets[1:])
    slot = np.arange(len(qids)) - offsets[owner[order]]
    doc_ids = [comments[i] or f"q{qids[i]}_d{j}" for i, j in zip(order.tolist(), slot.tolist())]
    return Dataset(features=features[order], labels=np.array(labels, dtype=np.int64)[order],
                   doc_ids=doc_ids, query_ids=list(first), offsets=offsets)


def serialize_svmlight(dataset: Dataset) -> str:
    """Render a Dataset back to SVMlight text; reparsing recovers it value-for-value."""
    qids = np.repeat(dataset.query_ids, np.diff(dataset.offsets))
    lines = []
    for qid, label, doc_id, vec in zip(qids.tolist(), dataset.labels.tolist(),
                                       dataset.doc_ids.tolist(), dataset.features.tolist()):
        feats = " ".join(f"{fid}:{val!r}" for fid, val in enumerate(vec, start=1))
        lines.append(f"{label} qid:{qid} {feats} # {doc_id}")
    return "\n".join(lines) + ("\n" if lines else "")


def generate_synthetic(
    n_queries: int, docs_per_query: int, feature_dim: int, seed: int,
    teacher_seed: int = None
) -> Dataset:
    """Generate a synthetic split with uniform [0,1] features and quantile-bucketed grades.

    A hidden teacher score ``t(x) = w.x + 0.5*x0*x1`` is bucketed into five
    grades by within-split quantiles, so every grade occurs whenever the
    split is large enough. ``w`` is drawn from ``teacher_seed`` (defaulting
    to ``seed``): give two splits the same teacher_seed and different seeds
    to make them samples of one task. Pure function of its arguments.
    """
    if n_queries <= 0 or docs_per_query <= 0:
        raise ValueError("n_queries and docs_per_query must be positive")
    if feature_dim < 4:
        raise ValueError("feature_dim must be >= 4")
    w_rng = rng_for(seed if teacher_seed is None else teacher_seed, "synthetic-teacher")
    w = w_rng.normal(0.0, 1.0, size=feature_dim)
    rng = rng_for(seed, "synthetic-features")
    X = rng.uniform(0.0, 1.0, size=(n_queries * docs_per_query, feature_dim))
    t = X @ w + 0.5 * X[:, 0] * X[:, 1]
    edges = np.quantile(t, [0.2, 0.4, 0.6, 0.8])
    grades = np.searchsorted(edges, t, side="right")

    return Dataset(
        features=X,
        labels=grades,
        doc_ids=[f"q{q}_d{d}" for q in range(n_queries) for d in range(docs_per_query)],
        query_ids=[str(q) for q in range(n_queries)],
        offsets=np.arange(n_queries + 1) * docs_per_query,
    )
