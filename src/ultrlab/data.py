"""Query-grouped learning-to-rank datasets: SVMlight parsing, synthetic generation, serialization.

Documents carry dense float64 feature vectors and integer relevance grades in
``[0, Y_MAX]`` (``Y_MAX = 4``, the five-grade convention of the large LETOR
benchmarks). ``Y_MAX`` is the one top grade of the package: the click model's
gain map and the ranking metrics read it too. Sparse SVMlight feature ids are
densified on parse. A ``Dataset`` is padded (queries, docs) arrays, each
query's documents in doc-id order, so LETOR lists of unequal length fit it.

The SVMlight round trip is bulk work done a block at a time, so the Python
objects held at once stay one block's however long the split.
``serialize_svmlight`` copies out the documents BLOCK_LINES at a time and
renders each block through one ``%`` template per dataset, writing values as
``repr`` floats, so reparsing gives back the same bits. ``parse_svmlight``
converts one chunk of whole lines, about CHUNK_CHARS characters, at a time,
however wide the rows; a chunk that fails a bulk check is walked line by
line and token by token, so a text with several faults reports the first in
file order. A parse holds at once the text, one chunk of lines and tokens,
16 bytes per feature cell read so far (an int64 id and a float64 value),
each line's grade, comment and cell index, and the output: each chunk's
cells are scattered straight into their query's row of the padded array, so
no line is copied twice.
"""

import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
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
    """Query-grouped documents as padded (queries, docs) arrays.

    Row ``q`` holds query ``q``'s documents, sorted by doc id so that a stable
    argsort of scores breaks ties by doc id, then padding: the empty doc id,
    zero features and grade 0."""

    features: np.ndarray   # (n_queries, max_docs, feature_dim) float64
    labels: np.ndarray     # (n_queries, max_docs) int64 grades in [0, Y_MAX]
    doc_ids: np.ndarray    # (n_queries, max_docs) str, unique within a row; "" pads
    query_ids: np.ndarray  # (n_queries,) str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.doc_ids = np.asarray(self.doc_ids, dtype=str)
        self.query_ids = np.asarray(self.query_ids, dtype=str)
        shape = self.labels.shape
        if (len(shape) != 2 or self.features.ndim != 3 or self.features.shape[:2] != shape
                or self.doc_ids.shape != shape or self.query_ids.shape != shape[:1]):
            raise ValueError("features must be (n_queries, max_docs, d) with one label and doc "
                             "id per document and one query id per row")
        real = self.doc_ids != ""
        lengths = real.sum(axis=1)
        if (lengths.min(initial=1) == 0 or lengths.max(initial=0) != shape[1]
                or (real[:, 1:] > real[:, :-1]).any()):
            raise ValueError("each row must hold documents, then padding (the empty doc id), "
                             "and the longest row no padding")
        order = np.lexsort((self.doc_ids, ~real), axis=1)
        if (order != np.arange(shape[1])).any():
            self.features = np.take_along_axis(self.features, order[..., None], axis=1)
            self.labels = np.take_along_axis(self.labels, order, axis=1)
            self.doc_ids = np.take_along_axis(self.doc_ids, order, axis=1)
        # Zero padding first, so the checks below can fault only real documents.
        pad = ~real
        bad = (self.features[pad] != 0.0).any(axis=1) | (self.labels[pad] != 0)
        if bad.any():
            raise ValueError(f"query {self.query_ids[np.nonzero(pad)[0][bad][0]]}: padding "
                             "must hold zero features and grade 0")
        for bad, what in ((~np.isfinite(self.features).all(axis=2), "non-finite feature value"),
                          ((self.labels < 0) | (self.labels > Y_MAX),
                           f"relevance outside [0, {Y_MAX}]")):
            if bad.any():
                raise ValueError(f"doc {self.doc_ids[bad][0]}: {what}")
        dup = (self.doc_ids[:, 1:] == self.doc_ids[:, :-1]) & real[:, 1:]
        if dup.any():
            raise ValueError(f"query {self.query_ids[dup.any(axis=1).argmax()]}: duplicate doc ids")

    @property
    def n_queries(self) -> int:
        return self.query_ids.size

    @property
    def feature_dim(self) -> int:
        return self.features.shape[2]

    @property
    def lengths(self) -> np.ndarray:
        """Each query's document count: the cells before its row's padding."""
        return (self.doc_ids != "").sum(axis=1)

    @property
    def groups(self) -> List[QueryView]:
        """Per-query views of the arrays' documents, built on each access."""
        out = []
        for q, (qid, n) in enumerate(zip(self.query_ids, self.lengths.tolist())):
            docs = list(map(DocView, self.doc_ids[q, :n], self.features[q, :n], self.labels[q, :n]))
            out.append(QueryView(qid, self.labels[q, :n], docs))
        return out


# Rows rendered together. A block bounds the floats and line strings held at
# once; the whole split in one block costs peak memory.
BLOCK_LINES = 512

# Characters of text parsed at a time, bounding the line and token strings
# held at once however long or wide the split; a chunk runs on to the next
# line boundary.
CHUNK_CHARS = 1 << 16

# Every line boundary of str.splitlines, a CR LF pair as one.
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _chunks(text: str):
    """The lines of ``text.splitlines()``, one list per chunk. Each chunk ends
    just after the first line boundary from its CHUNK_CHARS-th character on, a
    CR LF pair whole, so no line spans two chunks; a text with no boundary
    there is one chunk."""
    start = 0
    while start < len(text):
        cut = _LINE_END.search(text, start + CHUNK_CHARS - 1)
        end = cut.end() if cut else len(text)
        yield text[start:end].splitlines()
        start = end


def _convert(lines: List[str], line_no: int):
    """A chunk's documents in bulk, as ``_walk`` returns them: the heads by
    list comprehension, the feature tokens by one split of their joined text
    into id and value columns for Python's ``int`` and ``float``. A chunk that
    fails any check raises ValueError or OverflowError instead."""
    docs = [(n, body.split(None, 2), comment.strip()) for n, (body, _, comment)
            in enumerate(map(operator.methodcaller("partition", "#"), lines), line_no)]
    docs = [doc for doc in docs if doc[1] or doc[2]]  # a blank line holds no document
    if not all(len(head) > 1 and head[1].startswith("qid:") and head[1] != "qid:"
               for _, head, _ in docs):
        raise ValueError
    labels = [int(head[0]) for _, head, _ in docs]
    if not 0 <= min(labels, default=0) <= max(labels, default=0) <= Y_MAX:
        raise ValueError
    feats = [head[2] if len(head) > 2 else "" for _, head, _ in docs]
    joined = " ".join(feats)
    tokens = joined.split()
    n = len(tokens)
    # One ':' in every token. A token with no text on one side of it leaves
    # the value column short, which fromiter's count refuses.
    if joined.count(":") != n or not all(map(operator.contains, tokens, repeat(":"))):
        raise ValueError
    fields = joined.replace(":", " ").split()
    ints = {s: int(s) for s in dict.fromkeys(fields[0::2])}  # ids repeat: convert each once
    ids = np.fromiter(map(ints.__getitem__, fields[0::2]), np.int64, n)
    vals = np.fromiter(map(float, fields[1::2]), np.float64, n)
    counts = np.fromiter(map(operator.methodcaller("count", ":"), feats), np.int64, len(docs))
    rows = np.repeat(np.arange(len(docs)), counts)  # each cell's document
    # Ids rising along each line are 1-based and given once.
    if (ids < 1).any() or ((rows[1:] == rows[:-1]) & (ids[1:] <= ids[:-1])).any():
        raise ValueError
    return (labels, [head[1][len("qid:"):] for _, head, _ in docs], [c for _, _, c in docs],
            counts, ids, vals, int(ids.max(initial=0)), docs[rows[ids.argmax()]][0] if n else 0)


def _walk(lines: List[str], line_no: int):
    """A chunk line by line and token by token: raises its first fault in file
    order, or returns each document's label, qid and comment, its cells'
    count, their ids and values, and the largest id with its line. It takes
    what ``_convert`` will not: ids out of order and ids past int64."""
    labels, qids, comments, counts, ids, vals = [], [], [], [], [], []
    top = top_line = 0
    for n, line in enumerate(lines, line_no):
        body, _, comment = line.partition("#")
        tokens, comment = body.split(), comment.strip()
        if not tokens:
            if comment:
                raise ParseError(n, "comment-only line has no label")
            continue
        if len(tokens) < 2:
            raise ParseError(n, "expected '<label> qid:<id> ...'")
        try:
            label = int(tokens[0])
        except ValueError:
            raise ParseError(n, f"bad label {tokens[0]!r}") from None
        if not 0 <= label <= Y_MAX:
            raise ParseError(n, f"label {label} outside [0, {Y_MAX}]")
        if not tokens[1].startswith("qid:"):
            raise ParseError(n, f"expected qid:<id>, got {tokens[1]!r}")
        if tokens[1] == "qid:":
            raise ParseError(n, "empty qid")
        cells = {}
        for tok in tokens[2:]:
            fid_s, _, val_s = tok.partition(":")
            try:
                fid, val = int(fid_s), float(val_s)
            except ValueError:
                raise ParseError(n, f"bad feature token {tok!r}") from None
            if fid < 1:
                raise ParseError(n, f"feature ids are 1-based, got {fid}")
            if fid in cells:
                raise ParseError(n, f"feature id {fid} given twice")
            cells[fid] = val
            if fid > top:
                top, top_line = fid, n
        labels.append(label)
        qids.append(tokens[1][len("qid:"):])
        comments.append(comment)
        counts.append(len(cells))
        ids += cells
        vals += cells.values()
    return labels, qids, comments, counts, ids, vals, top, top_line


def parse_svmlight(text: str) -> Dataset:
    """Parse SVMlight/LETOR lines ``<label> qid:<id> <fid>:<val> ... [# comment]``.

    Feature ids are 1-based; ids absent from a line are filled with 0.0.
    Documents are grouped by qid in first-appearance order, and feature_dim is
    the maximum feature id seen anywhere in the stream. A trailing comment, if
    present, becomes the document id; otherwise ids are assigned per group.
    A stream with several faults reports the first in file order.
    """
    first: dict = {}  # qid -> its row, by first appearance
    cell, labels, comments, cells = [], [], [], []
    max_fid = max_line = 0
    line_no = 1
    for lines in _chunks(text):
        try:
            chunk = _convert(lines, line_no)
        except (ValueError, OverflowError):
            chunk = _walk(lines, line_no)
        line_no += len(lines)
        chunk_labels, qids, chunk_comments, counts, ids, vals, top, top_line = chunk
        cell += [first.setdefault(qid, len(first)) for qid in qids]
        labels += chunk_labels
        comments += chunk_comments
        if top > max_fid:
            max_fid, max_line = top, top_line
        if top <= np.iinfo(np.int64).max:  # else no int64 holds it, and the width is refused
            cells.append((np.asarray(counts, dtype=np.int64), np.asarray(ids, dtype=np.int64),
                          np.asarray(vals, dtype=np.float64)))

    # Line i fills cell[i] of the flat (queries, docs) grid: its query's row,
    # after the earlier lines with its qid.
    cell = np.array(cell, dtype=np.int64)  # each line's row, until it becomes its cell
    counts = np.bincount(cell, minlength=len(first))
    shape = (len(first), int(counts.max(initial=0)))
    cell[np.argsort(cell, kind="stable")] = np.arange(cell.size) + np.repeat(
        np.arange(shape[0]) * shape[1] - np.cumsum(counts) + counts, counts)
    try:
        features = np.zeros((shape[0] * shape[1], max_fid), dtype=np.float64)
    except (MemoryError, ValueError):
        raise ParseError(max_line, f"feature id {max_fid} needs a {cell.size} x {max_fid} "
                         "feature matrix, too large to allocate") from None
    # Each chunk's cells go straight to their rows and are then dropped.
    end = cell.size
    while cells:
        counts, ids, vals = cells.pop()
        end -= counts.size
        features[cell[end:end + counts.size].repeat(counts), ids - 1] = vals
    owner, slot = np.divmod(cell, max(shape[1], 1))
    names = list(first)
    ids = np.array([c or f"q{names[q]}_d{j}"
                    for c, q, j in zip(comments, owner.tolist(), slot.tolist())])
    grades, doc_ids = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=ids.dtype)
    grades.reshape(-1)[cell], doc_ids.reshape(-1)[cell] = labels, ids
    return Dataset(features=features.reshape(*shape, max_fid), labels=grades, doc_ids=doc_ids,
                   query_ids=names)


def serialize_svmlight(dataset: Dataset) -> str:
    """Render a Dataset as SVMlight text, every value a ``repr`` float, so reparsing
    recovers each bit. All rows go through one ``%`` template, BLOCK_LINES rows
    at a time, so the Python floats and line strings held at once stay one block's."""
    fids = range(1, dataset.feature_dim + 1)
    template = "%d qid:%s " + " ".join(f"{fid}:%r" for fid in fids) + " # %s\n"
    cells = np.nonzero(dataset.doc_ids != "")  # each document's row and slot, row by row
    blocks = []
    for start in range(0, cells[0].size, BLOCK_LINES):
        q, i = (c[start:start + BLOCK_LINES] for c in cells)
        rows = zip(dataset.labels[q, i].tolist(), dataset.query_ids[q].tolist(),
                   *dataset.features[q, i].T.tolist(), dataset.doc_ids[q, i].tolist())
        blocks.append("".join(map(template.__mod__, rows)))
    return "".join(blocks)


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
        features=X.reshape(n_queries, docs_per_query, feature_dim),
        labels=grades.reshape(n_queries, docs_per_query),
        doc_ids=[[f"q{q}_d{d}" for d in range(docs_per_query)] for q in range(n_queries)],
        query_ids=[str(q) for q in range(n_queries)],
    )
