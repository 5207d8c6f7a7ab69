"""In-memory span tracer that wraps hisparse's public functions at their call sites.

Each wrapped call records one span: name, start, end, parent span, the request
and trial it belongs to, and the thread that ran it. A span's parent is the
innermost wrapped call still open on the same thread; a call on a pool worker
with nothing open on its own thread is parented to the innermost open span of
the thread that started the request (``cli.main`` for the sweep). The trial id
is the id of the enclosing ``simulate.run_trial`` span, if any.

Names are patched where their caller looks them up (``hisparse.recovery.hi_threshold``,
``hisparse.simulate.solve``, ...), so the program itself is not edited. Patches are
installed only around traced requests and removed afterwards.
"""

from __future__ import annotations

from collections import Counter, defaultdict
import contextlib
import functools
import itertools
import json
import threading
import time

import numpy as np

import hisparse.cli
import hisparse.operators
import hisparse.recovery
import hisparse.ripcheck
import hisparse.simulate

_OP = hisparse.operators.KroneckerSensingOperator

# (owner, attribute, span name). Counted-only sites record no span.
SPAN_SITES = (
    (_OP, "__init__", "operators.init"),
    (_OP, "forward", "operators.forward"),
    (_OP, "adjoint_values", "operators.adjoint"),
    (hisparse.recovery, "hi_threshold", "blocks.hi_threshold"),
    (np.linalg, "lstsq", "recovery.lstsq"),
    (hisparse.simulate, "solve", "recovery.solve"),
    (hisparse.simulate, "gen_ongrid", "channel.gen"),
    (hisparse.simulate, "gen_offgrid", "channel.gen"),
    (hisparse.simulate, "superpose_transfer", "channel.synth"),
    (hisparse.simulate, "transfer_from_delay_angular", "channel.synth"),
    (hisparse.simulate, "observed_matrix", "simulate.observed_matrix"),
    (hisparse.simulate, "make_design", "design.make_design"),
    (hisparse.simulate, "run_trial", "simulate.run_trial"),
    (hisparse.simulate, "write_csv", "simulate.write_out"),
    (hisparse.simulate, "run_manifest", "simulate.write_out"),
    (hisparse.cli, "main", "cli.main"),
    (hisparse.ripcheck, "hirip_constant", "ripcheck.hirip_constant"),
    (hisparse.ripcheck, "rip_constant", "ripcheck.rip_constant"),
)
# ~47 us per call and ~10^4 calls per request: count, do not span.
COUNT_SITES = (
    (np.linalg, "eigvalsh", "ripcheck.eigvalsh"),
)


class Tracer:
    """Collects spans and counters for the requests run inside ``request()``."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, request, trial, thread)
        self.counts: Counter = Counter()
        self.solves: list[tuple[int, bool]] = []   # (iterations, hit max_iters)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._driver_stack: list | None = None
        self._request = -1
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent, trial = stack[-1]
        elif self._driver_stack:
            parent, trial = self._driver_stack[-1]
        else:
            parent, trial = None, None
        sid = next(self._ids)
        if name == "simulate.run_trial":
            trial = sid
        stack.append((sid, trial))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self._request, trial,
                               threading.get_ident()))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if name == "recovery.solve":
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                with self._lock:
                    self.solves.append((result.iterations, result.iterations >= cfg.max_iters))
            elif name.startswith("ripcheck."):
                with self._lock:
                    self.counts["ripcheck.supports"] += result.supports_checked
            return result
        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        for sites, wrap in ((SPAN_SITES, self._wrap), (COUNT_SITES, self._count)):
            for owner, attr, name in sites:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def request(self, index: int):
        """Trace the calls made inside the block as request ``index``."""
        self._request = index
        self._driver_stack = self._stack()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self._driver_stack = None

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        keys = ("id", "name", "start", "end", "parent", "request", "trial", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": header, "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(tracer: Tracer, requests: int, pool_threads: int) -> dict[str, float]:
    """Per-request layer figures from the spans of ``requests`` traced requests."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))

    def calls(name):
        return len(by_name[name]) / requests

    def ms(name):
        return 1e3 * sum(s[3] - s[2] for s in by_name[name]) / requests

    def self_ms(name):
        total = 0.0
        for s in by_name[name]:
            kids = [(max(a, s[2]), min(b, s[3])) for a, b in children[s[0]]]
            total += (s[3] - s[2]) - _union_length(k for k in kids if k[1] > k[0])
        return 1e3 * total / requests

    solves = tracer.solves
    supports = tracer.counts["ripcheck.supports"] / requests
    rip_ms = ms("ripcheck.hirip_constant") + ms("ripcheck.rip_constant")
    main_s = sum(s[3] - s[2] for s in by_name["cli.main"])
    trial_s = sum(s[3] - s[2] for s in by_name["simulate.run_trial"])
    return {
        "operators.forward.calls": calls("operators.forward"),
        "operators.forward.ms": ms("operators.forward"),
        "operators.adjoint.calls": calls("operators.adjoint"),
        "operators.adjoint.ms": ms("operators.adjoint"),
        "operators.init.ms": ms("operators.init"),
        "blocks.hi_threshold.calls": calls("blocks.hi_threshold"),
        "blocks.hi_threshold.ms": ms("blocks.hi_threshold"),
        "recovery.solve.ms": ms("recovery.solve"),
        "recovery.solve.self_ms": self_ms("recovery.solve"),
        "recovery.lstsq.calls": calls("recovery.lstsq"),
        "recovery.lstsq.ms": ms("recovery.lstsq"),
        "recovery.iterations.mean": (sum(it for it, _ in solves) / len(solves)) if solves else 0.0,
        "recovery.max_iters_frac": (sum(hit for _, hit in solves) / len(solves)) if solves else 0.0,
        "channel.gen.ms": ms("channel.gen"),
        "channel.synth.calls": calls("channel.synth"),
        "channel.synth.ms": ms("channel.synth"),
        "simulate.observed_matrix.ms": ms("simulate.observed_matrix"),
        "design.make_design.ms": ms("design.make_design"),
        "simulate.run_trial.self_ms": self_ms("simulate.run_trial"),
        "simulate.pool.busy_frac": trial_s / (pool_threads * main_s) if main_s else 0.0,
        "simulate.write_out.ms": ms("simulate.write_out"),
        "cli.main.self_ms": self_ms("cli.main"),
        "ripcheck.hirip_constant.ms": ms("ripcheck.hirip_constant"),
        "ripcheck.rip_constant.ms": ms("ripcheck.rip_constant"),
        "ripcheck.supports": supports,
        "ripcheck.eigvalsh.calls": tracer.counts["ripcheck.eigvalsh"] / requests,
        "ripcheck.us_per_support": 1e3 * rip_ms / supports if supports else 0.0,
    }


def trial_threads(tracer: Tracer) -> dict[int, int]:
    """Number of distinct threads that ran ``simulate.run_trial`` in each request."""
    seen: dict[int, set] = defaultdict(set)
    for span in tracer.spans:
        if span[1] == "simulate.run_trial":
            seen[span[5]].add(span[7])
    return {req: len(threads) for req, threads in seen.items()}
