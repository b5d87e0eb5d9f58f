"""Spans around the package's public functions, installed from outside.

A name bound with ``from .x import y`` is looked up in the importing module,
so a wrapper replaces every module attribute that holds the original.
Spans nest: a span's self time is its duration minus the durations of the
spans it opened.  Spans are aggregated per name as they close, not kept.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

PACKAGE = "discordqkd"
LAYERS = ("symplectic", "states", "channel", "keyrate", "sweeps", "cli")

#: Layer -> the functions wrapped in it.
TRACED = {
    "symplectic": ("symplectic_spectrum", "symplectic_spectrum_oracle",
                   "ppt_min_eigenvalue", "entropy_g"),
    "states": ("gaussian_discord", "e_min"),
    "channel": ("apply_entangling_cloner", "condition_on_homodyne", "condition_on_heterodyne"),
    "keyrate": ("secret_key_rate",),
    "sweeps": ("evaluate_point", "run_sweep", "figure_table", "threshold_on_t",
               "threshold_on_discord", "rows_to_csv", "rows_to_json", "table_to_csv",
               "write_text_atomic"),
    "cli": ("main",),
}

SEARCHES = ("sweeps.threshold_on_t", "sweeps.threshold_on_discord")
SERIALISERS = ("sweeps.rows_to_csv", "sweeps.rows_to_json", "sweeps.table_to_csv",
               "sweeps.write_text_atomic")


def _source_key(sigma):
    """Identity of a two-mode source by its (alpha, beta, gamma) entries."""
    try:
        return float(sigma.a[0, 0]), float(sigma.b[0, 0]), float(sigma.c[0, 0])
    except (AttributeError, IndexError, TypeError):
        return repr(sigma)


class Tracer:
    """Counts calls and self/total time per wrapped function while installed."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.sources = set()
        self.search_evals = 0
        self._open = []  # child-time accumulator of each open span
        self._searching = 0
        self._patches = []

    def _wrap(self, name, fn):
        counts_source = name == "states.gaussian_discord"
        is_search = name in SEARCHES
        is_eval = name == "sweeps.evaluate_point"
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if counts_source and args:
                self.sources.add(_source_key(args[0]))
            if is_eval and self._searching:
                self.search_evals += 1
            if is_search:
                self._searching += 1
            children = [0]
            self._open.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._open.pop()
                if is_search:
                    self._searching -= 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - children[0]
                if self._open:
                    self._open[-1][0] += duration

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round values of the per-layer metrics gathered so far."""
        def calls(name):
            return self.calls[name] / rounds

        def self_ms(*names):
            return sum(self.self_ns[n] for n in names) / 1e6 / rounds

        def total_ms(*names):
            return sum(self.total_ns[n] for n in names) / 1e6 / rounds

        searches = sum(self.calls[n] for n in SEARCHES)
        conditions = ("channel.condition_on_homodyne", "channel.condition_on_heterodyne")
        return {
            "symplectic.symplectic_spectrum.calls": calls("symplectic.symplectic_spectrum"),
            "symplectic.symplectic_spectrum.self_ms": self_ms("symplectic.symplectic_spectrum"),
            "symplectic.oracle_retries": calls("symplectic.symplectic_spectrum_oracle"),
            "symplectic.ppt_min_eigenvalue.self_ms": self_ms("symplectic.ppt_min_eigenvalue"),
            "symplectic.entropy_g.calls": calls("symplectic.entropy_g"),
            "states.gaussian_discord.calls": calls("states.gaussian_discord"),
            "states.gaussian_discord.self_ms": self_ms("states.gaussian_discord"),
            "states.e_min.self_ms": self_ms("states.e_min"),
            "states.discord_calls_per_source":
                calls("states.gaussian_discord") / max(1, len(self.sources)),
            "channel.apply_entangling_cloner.self_ms": self_ms("channel.apply_entangling_cloner"),
            "channel.condition.calls": sum(self.calls[n] for n in conditions) / rounds,
            "channel.condition.self_ms": self_ms(*conditions),
            "keyrate.secret_key_rate.calls": calls("keyrate.secret_key_rate"),
            "keyrate.secret_key_rate.self_ms": self_ms("keyrate.secret_key_rate"),
            "sweeps.evaluate_point.calls": calls("sweeps.evaluate_point"),
            "sweeps.evaluate_point.self_ms": self_ms("sweeps.evaluate_point"),
            "sweeps.evals_per_search": self.search_evals / max(1, searches),
            "sweeps.serialize_ms": total_ms(*SERIALISERS),
            "cli.main_ms": total_ms("cli.main"),
        }
