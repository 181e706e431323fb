"""Query-grouped learning-to-rank datasets: SVMlight parsing, synthetic generation, serialization.

Documents carry dense float64 feature vectors and integer relevance grades in
``[0, Y_MAX]`` (``Y_MAX = 4``, the five-grade convention of the large LETOR
benchmarks). ``Y_MAX`` is the one top grade of the package: the click model's
gain map and the ranking metrics read it too. Sparse SVMlight feature ids are
densified on parse.

The SVMlight round trip is bulk work. ``serialize_svmlight`` renders every
row through one ``%`` template per dataset, writing values as ``repr``
floats, so reparsing gives back the same bits. ``parse_svmlight`` checks
each line's label and qid as it reads it and converts feature tokens
BLOCK_LINES lines at a time; a block that fails a bulk check is walked token
by token, so a text with several faults reports the first in file order.
"""

import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice, repeat
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


# Lines whose feature tokens are converted together. A block bounds the token
# strings held at once; the whole stream in one block costs peak memory.
BLOCK_LINES = 512


def _line_head(tokens):
    """A line's label and qid; a fault raises ValueError with its message."""
    if len(tokens) < 2:
        raise ValueError("expected '<label> qid:<id> ...'")
    try:
        label = int(tokens[0])
    except ValueError:
        raise ValueError(f"bad label {tokens[0]!r}") from None
    if not 0 <= label <= Y_MAX:
        raise ValueError(f"label {label} outside [0, {Y_MAX}]")
    if not tokens[1].startswith("qid:"):
        raise ValueError(f"expected qid:<id>, got {tokens[1]!r}")
    if tokens[1] == "qid:":
        raise ValueError("empty qid")
    return label, tokens[1][len("qid:"):]


class _FeatureCells:
    """The ``<fid>:<val>`` tokens of the lines read so far, as (row, id, value) cells.

    Tokens wait in a block of up to BLOCK_LINES lines and are then converted
    in bulk: one split of the joined block, then Python's ``int`` and
    ``float`` over the id and value columns. A block that fails a bulk check
    is walked token by token instead, which raises its first fault in file
    order or converts what the bulk route would not take (ids out of order,
    ids past int64).
    """

    def __init__(self):
        self.tokens, self.counts, self.line_nos = [], [], []
        self.rows, self.ids, self.vals = [], [], []
        self.n_rows = 0
        self.max_fid = self.max_line = 0

    def add(self, line_no: int, tokens: List[str]) -> None:
        self.tokens += tokens
        self.counts.append(len(tokens))
        self.line_nos.append(line_no)
        if len(self.counts) == BLOCK_LINES:
            self.flush()

    def flush(self) -> None:
        """Convert the pending block, or raise the first fault in it."""
        if not self.counts:
            return
        n = len(self.tokens)
        joined = " ".join(self.tokens)
        fields = joined.replace(":", " ").split()
        rows = np.repeat(np.arange(self.n_rows, self.n_rows + len(self.counts)), self.counts)
        try:
            # One ':' in every token. A token with no text on one side of it
            # leaves the value column short, which fromiter's count refuses.
            if joined.count(":") != n or not all(map(operator.contains, self.tokens, repeat(":"))):
                raise ValueError
            ids = np.fromiter(map(int, fields[0::2]), np.int64, n)
            vals = np.fromiter(map(float, fields[1::2]), np.float64, n)
            # Ids rising along each line are 1-based and given once.
            if (ids < 1).any() or ((rows[1:] == rows[:-1]) & (ids[1:] <= ids[:-1])).any():
                raise ValueError
            top = int(ids.max(initial=0))
            at = int(ids.argmax()) if n else 0
        except (ValueError, OverflowError):
            ids, vals = self._walk()
            top = max(ids, default=0)
            at = ids.index(top) if ids else 0
        if top > self.max_fid:
            self.max_fid, self.max_line = top, self.line_nos[rows[at] - self.n_rows]
        if top > np.iinfo(np.int64).max:  # no int64 holds it; dense() refuses the width
            ids, vals, rows = [], [], rows[:0]
        self.rows.append(rows)
        self.ids.append(np.asarray(ids, dtype=np.int64))
        self.vals.append(np.asarray(vals, dtype=np.float64))
        self.n_rows += len(self.counts)
        self.tokens, self.counts, self.line_nos = [], [], []

    def _walk(self):
        """The pending block token by token: its first fault, or its ids and values."""
        ids, vals, tokens = [], [], iter(self.tokens)
        for line_no, count in zip(self.line_nos, self.counts):
            seen = set()
            for tok in islice(tokens, count):
                fid_s, _, val_s = tok.partition(":")
                try:
                    fid = int(fid_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(line_no, f"bad feature token {tok!r}") from None
                if fid < 1:
                    raise ParseError(line_no, f"feature ids are 1-based, got {fid}")
                if fid in seen:
                    raise ParseError(line_no, f"feature id {fid} given twice")
                seen.add(fid)
                ids.append(fid)
                vals.append(val)
        return ids, vals

    def dense(self) -> np.ndarray:
        """The (rows, max feature id) matrix of every converted line, 0.0 where absent.

        A width numpy cannot allocate is refused on the line holding the largest id."""
        self.flush()
        try:
            features = np.zeros((self.n_rows, self.max_fid), dtype=np.float64)
        except (MemoryError, ValueError):
            raise ParseError(self.max_line, f"feature id {self.max_fid} needs a {self.n_rows} x "
                             f"{self.max_fid} feature matrix, too large to allocate") from None
        if self.rows:
            rows, ids = np.concatenate(self.rows), np.concatenate(self.ids)
            features[rows, ids - 1] = np.concatenate(self.vals)
        return features


def parse_svmlight(text: str) -> Dataset:
    """Parse SVMlight/LETOR lines ``<label> qid:<id> <fid>:<val> ... [# comment]``.

    Feature ids are 1-based; ids absent from a line are filled with 0.0.
    Documents are grouped by qid in first-appearance order, and feature_dim is
    the maximum feature id seen anywhere in the stream. A trailing comment, if
    present, becomes the document id; otherwise ids are assigned per group.
    A stream with several faults reports the first in file order.
    """
    qids, labels, comments = [], [], []
    cells = _FeatureCells()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        comment = comment.strip()
        tokens = line.split()
        try:
            if not tokens:
                if comment:
                    raise ValueError("comment-only line has no label")
                continue
            label, qid = _line_head(tokens)
        except ValueError as exc:
            cells.flush()  # a feature fault on an earlier line comes first
            raise ParseError(line_no, str(exc)) from None
        cells.add(line_no, tokens[2:])
        qids.append(qid)
        labels.append(label)
        comments.append(comment)

    features = cells.dense()
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
    """Render a Dataset as SVMlight text, every value a ``repr`` float, so reparsing
    recovers each bit. All rows go through one ``%`` template."""
    fids = range(1, dataset.feature_dim + 1)
    template = "%d qid:%s " + " ".join(f"{fid}:%r" for fid in fids) + " # %s\n"
    qids = np.repeat(dataset.query_ids, np.diff(dataset.offsets))
    rows = zip(dataset.labels.tolist(), qids.tolist(), *dataset.features.T.tolist(),
               dataset.doc_ids.tolist())
    return "".join(map(template.__mod__, rows))


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
