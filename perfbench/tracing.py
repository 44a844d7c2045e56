"""Span tracing from outside the package.

`install` rebinds the public functions and methods named in `TARGETS` to
timing wrappers, in their defining module or class and in every
`datamarket` module that imported the function by name. Each call records a
span (name, start, end, parent) in flat arrays that stay in memory until
`write` dumps them; per-name call counts, inclusive time and self time
(span time minus the time of its direct child spans) are kept as running
totals. The process is single-threaded, so one stack suffices.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# (span name, module, attribute path inside the module). Span names follow
# `<module>.<function>`; `Ledger` methods drop the class name.
TARGETS = [
    ("crypto.sign", "crypto", "sign"),
    ("crypto.verify", "crypto", "verify"),
    ("crypto.encrypt_for", "crypto", "encrypt_for"),
    ("crypto.decrypt", "crypto", "decrypt"),
    ("crypto.generate_keypair", "crypto", "generate_keypair"),
    ("messages.decode", "messages", "decode"),
    ("messages.DataResponse.digest", "messages", "DataResponse.digest"),
    ("messages.DataResponse.signing_bytes", "messages", "DataResponse.signing_bytes"),
    ("messages.validate_response", "messages", "validate_response"),
    ("ledger.register_order", "ledger", "Ledger.register_order"),
    ("ledger.select_sellers", "ledger", "Ledger.select_sellers"),
    ("ledger.close_response", "ledger", "Ledger.close_response"),
    ("ledger.close_order", "ledger", "Ledger.close_order"),
    ("ledger.conservation_holds", "ledger", "Ledger.conservation_holds"),
    ("ledger.open_orders", "ledger", "Ledger.open_orders"),
    ("ledger.replay", "ledger", "replay"),
    ("ledger.verify_journal", "ledger", "verify_journal"),
    ("ledger.journal_bytes", "ledger", "journal_bytes"),
    ("transport.Network.send", "transport", "Network.send"),
    ("transport.Network.tick", "transport", "Network.tick"),
    ("actors.Seller.step", "actors", "Seller.step"),
    ("actors.Buyer.step", "actors", "Buyer.step"),
    ("actors.Buyer.handle", "actors", "Buyer.handle"),
    ("actors.Buyer.start_order", "actors", "Buyer.start_order"),
    ("actors.Notary.handle", "actors", "Notary.handle"),
    ("runner.run_scenario", "runner", "run_scenario"),
    ("runner.build_report", "runner", "build_report"),
    ("runner.run_invariants", "runner", "run_invariants"),
    ("scenario.random_scenario", "scenario", "random_scenario"),
    ("scenario.Scenario.validate", "scenario", "Scenario.validate"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, child time in ns]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, total, self_ = self.calls, self.total_ns, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                dur = end - start
                calls[nid] += 1
                total[nid] += dur
                self_[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def stats(self) -> dict:
        """name -> {calls, total_s, self_s}."""
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_ns[i] / 1e9,
                "self_s": self.self_ns[i] / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def child_spans(self, parent_name: str) -> list[list[tuple[str, int, int]]]:
        """For each span called `parent_name`, in order: the (name, start,
        end) of its direct children."""
        pid = self.names.index(parent_name)
        roots = {i: [] for i, n in enumerate(self.span_name) if n == pid}
        for i, parent in enumerate(self.span_parent):
            if parent in roots:
                roots[parent].append(
                    (self.names[self.span_name[i]], self.span_start[i], self.span_end[i])
                )
        return [roots[i] for i in sorted(roots)]

    def write(self, path) -> int:
        """Write every span as gzipped `index,parent,name,start_ns,end_ns`
        lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )
        return len(self.span_name)


def difference(later: dict, earlier: dict) -> dict:
    """Per-name stats accumulated between two `Tracer.stats` snapshots."""
    return {
        name: {key: value - earlier[name][key] for key, value in stats.items()}
        for name, stats in later.items()
    }


def install(tracer: Tracer) -> None:
    """Rebind every target to a traced wrapper. Call after importing
    `datamarket` and before generating or running any scenario."""
    package = [m for n, m in sys.modules.items() if n == "datamarket" or n.startswith("datamarket.")]
    for span_name, module_name, path in TARGETS:
        owner = sys.modules[f"datamarket.{module_name}"]
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        traced = tracer.wrap(span_name, original)
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
