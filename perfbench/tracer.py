"""Span tracing of ultrlab's public calls, installed from outside the package.

The tracer replaces public functions and methods of the ultrlab modules with
wrappers that record one span per call: a name, a start and end time from
``time.perf_counter_ns`` and the index of the enclosing span. Spans stay in
memory and are written out once, after the traced repeat ends. Counters are
updated at the same boundaries. Nothing in ``src/`` is edited: names are
replaced in the module or class namespace the caller looks them up in, which
is why a name that ``training`` or ``cli`` imported with ``from ... import``
is wrapped in the importing module, not only where it is defined.

A layer's self time is the summed duration of its spans minus the time their
direct child spans cover, as in the choosing-metrics guide. Spans nest
strictly in this single-threaded program, so the covered time is the sum of
the child durations.
"""

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (owner path, attribute, span name). An owner path is a module name or
# "module:Class". Each span name maps to one layer below.
TARGETS = (
    ("ultrlab.cli", "main", "cli.main"),
    ("ultrlab.cli", "run_experiment", "training.run"),
    ("ultrlab.cli", "generate_synthetic", "data.generate"),
    ("ultrlab.cli", "serialize_svmlight", "data.serialize"),
    ("ultrlab.cli", "parse_svmlight", "data.parse"),
    ("ultrlab.data", "generate_synthetic", "data.generate"),
    ("ultrlab.data", "serialize_svmlight", "data.serialize"),
    ("ultrlab.data", "parse_svmlight", "data.parse"),
    ("ultrlab.training", "train_weak_policy", "training.weak_policy"),
    ("ultrlab.training", "evaluate_ranker", "training.eval"),
    ("ultrlab.training:DatasetView", "__init__", "training.view"),
    ("ultrlab.training:LoggingPolicy", "displayed", "training.display"),
    ("ultrlab.training:LoggingPolicy", "from_ranker", "training.refresh"),
    ("ultrlab.training:UPELearner", "step", "training.step"),
    ("ultrlab.training:DLALearner", "step", "training.step"),
    ("ultrlab.training", "sample_click_matrix", "clicks.sample"),
    ("ultrlab.training", "ranking_metrics", "metrics.ranking_metrics"),
    ("ultrlab.training", "backdoor_estimate", "propensity.backdoor"),
    ("ultrlab.training", "confounding_effect_step", "propensity.confounding"),
    ("ultrlab.training", "joint_propensity_step", "propensity.joint"),
    ("ultrlab.training", "irw_propensity_loss", "propensity.irw_loss"),
    ("ultrlab.training", "ipw_ranking_loss", "ranker.ipw_loss"),
    ("ultrlab.ranker:RankerMLP", "forward", "ranker.forward"),
    ("ultrlab.autodiff:Tensor", "backward", "autodiff.backward"),
    ("ultrlab.autodiff:Tensor", "elu", "autodiff.elu"),
    ("ultrlab.autodiff:Tensor", "matmul", "autodiff.matmul"),
    ("ultrlab.autodiff:Tensor", "log_softmax", "autodiff.log_softmax"),
    ("ultrlab.autodiff:AdaGrad", "step", "autodiff.adagrad"),
)

# Self-time metrics and the span names each one sums.
SELF_TIME = {
    "propensity.backdoor_s": ("propensity.backdoor",),
    "propensity.confounding_s": ("propensity.confounding",),
    "propensity.joint_s": ("propensity.joint",),
    "propensity.irw_loss_s": ("propensity.irw_loss",),
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.elu_s": ("autodiff.elu",),
    "autodiff.matmul_s": ("autodiff.matmul",),
    "autodiff.log_softmax_s": ("autodiff.log_softmax",),
    "autodiff.adagrad_s": ("autodiff.adagrad",),
    "ranker.forward_s": ("ranker.forward",),
    "ranker.ipw_loss_s": ("ranker.ipw_loss",),
    "training.self_s": ("training.run", "training.step"),
    "training.display_s": ("training.display",),
    "training.refresh_s": ("training.refresh",),
    "training.weak_policy_s": ("training.weak_policy",),
    "training.view_s": ("training.view",),
    "training.eval_s": ("training.eval",),
    "clicks.sample_s": ("clicks.sample",),
    "metrics.ranking_metrics_s": ("metrics.ranking_metrics",),
    "data.generate_s": ("data.generate",),
    "data.serialize_s": ("data.serialize",),
    "data.parse_s": ("data.parse",),
    "cli.self_s": ("cli.main",),
}

CALL_COUNTS = {
    "propensity.backdoor_calls": "propensity.backdoor",
    "autodiff.backward_calls": "autodiff.backward",
    "autodiff.elu_calls": "autodiff.elu",
    "autodiff.matmul_calls": "autodiff.matmul",
    "training.display_calls": "training.display",
    "training.refresh_calls": "training.refresh",
    "training.eval_calls": "training.eval",
    "metrics.lists_scored": "metrics.ranking_metrics",
}

# Counters the hooks below keep, with their units. clicks.clicked_sessions
# is kept too, only to form clicks.clicked_session_share.
COUNTERS = {
    "propensity.backdoor_rows": "count",
    "autodiff.tensors_created": "count",
    "ranker.forward_rows": "count",
    "clicks.sessions": "count",
    "data.lines_parsed": "count",
    "data.bytes_parsed": "bytes",
}

def _backdoor_rows(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["features"]
    return (("propensity.backdoor_rows", len(features) * len(result)),)


def _forward_rows(args, kwargs, result):
    return (("ranker.forward_rows", result.data.shape[0]),)


def _parse_size(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return (("data.lines_parsed", text.count("\n")),
            ("data.bytes_parsed", len(text.encode())))


def _sessions(args, kwargs, result):
    clicked = int(np.count_nonzero(result.any(axis=1)))
    return (("clicks.sessions", result.shape[0]),
            ("clicks.clicked_sessions", clicked))


COUNT_HOOKS = {
    "propensity.backdoor": _backdoor_rows,
    "ranker.forward": _forward_rows,
    "data.parse": _parse_size,
    "clicks.sample": _sessions,
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALL_COUNTS},
    **COUNTERS,
    "clicks.clicked_session_share": "ratio",
    "cli.output_bytes": "bytes",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Holds spans and counters; install() wraps the targets in place."""

    def __init__(self):
        self.names = []          # span name per span
        self.starts = []         # perf_counter_ns at entry
        self.ends = []           # perf_counter_ns at exit
        self.parents = []        # index of the enclosing span, or -1
        self.counters = defaultdict(int)
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, result):
                    counters[key] += value
            return result
        return wrapper

    def install(self):
        """Wrap every target; each replaced attribute is restored by uninstall()."""
        for owner_path, attr, name in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(name, raw.__func__))
            else:
                wrapped = self._span(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

        from ultrlab.autodiff import Tensor
        init = Tensor.__init__
        counters = self.counters

        @functools.wraps(init)
        def counting_init(tensor, *args, **kwargs):
            counters["autodiff.tensors_created"] += 1
            init(tensor, *args, **kwargs)
        self._saved.append((Tensor, "__init__", init))
        Tensor.__init__ = counting_init

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the block untraced, e.g. the benchmark's own checks between chunks."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def self_times_ns(self):
        """Self time per span name, in nanoseconds."""
        duration = np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)
        child_cover = np.zeros_like(duration)
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        np.add.at(child_cover, parents[nested], duration[nested])
        out = defaultdict(int)
        calls = defaultdict(int)
        for name, own in zip(self.names, (duration - child_cover).tolist()):
            out[name] += own
            calls[name] += 1
        return out, calls

    def layer_metrics(self):
        """Every per-layer metric except the run-level ones the caller adds."""
        self_ns, calls = self.self_times_ns()
        metrics = {}
        for metric, span_names in SELF_TIME.items():
            metrics[metric] = sum(self_ns.get(n, 0) for n in span_names) / 1e9
        for metric, span_name in CALL_COUNTS.items():
            metrics[metric] = calls.get(span_name, 0)
        for key in COUNTERS:
            metrics[key] = self.counters.get(key, 0)
        sessions = self.counters.get("clicks.sessions", 0)
        metrics["clicks.clicked_session_share"] = (
            self.counters.get("clicks.clicked_sessions", 0) / sessions if sessions else 0.0)
        metrics["trace.spans"] = len(self.names)
        return metrics

    def write(self, path):
        """All spans as one JSON document: parallel arrays plus the counters."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "start_ns": self.starts, "end_ns": self.ends,
                       "parent": self.parents, "counters": dict(self.counters)}, fh)
