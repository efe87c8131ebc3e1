"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the durations of its child spans.
A layer's self time is the sum over its spans; ``cli.self_s`` is the part of
each command's wall time that no span covers (argument parsing, case and
config construction, the CLI's own loops).  The speed sampler's ``probe``
spans belong to no layer and are taken out of the wall times and of every
inclusive time.  All times are at reference CPU speed (see
``worker.SpeedSampler``).  The layer self times plus ``cli.self_s`` add up
to the traced wall time of every command by construction of
``cli.self_s``; what ``Spans.check`` tests is that no self time is
negative.  Inclusive times ("time in X") count a span together with its
children, and count a span nested in another span of the same group only
once.
"""

from __future__ import annotations

import json

import numpy as np

from tracer import LAYERS

RESIDUALS = ("reflection.nre_residual", "reflection.compact_form_residual",
             "reflection.symmetry_relation_residual", "reflection.equivalence_residual",
             "reflection.n_unitarity")
MATMUL_DIMS = (4, 8, 9, 27)
RESIDUE_L = (2, 3, 4)
CYC_MUL = ("scalars.Cyclotomic.__mul__", "scalars.Cyclotomic.__rmul__")
CYC_ADDSUB = ("scalars.Cyclotomic.__add__", "scalars.Cyclotomic.__radd__",
              "scalars.Cyclotomic.__sub__", "scalars.Cyclotomic.__rsub__")
RATFUN_MUL = ("ratfun.Poly.__mul__", "ratfun.Poly.__rmul__",
              "ratfun.RatFun.__mul__", "ratfun.RatFun.__rmul__")
RATFUN_RESIDUE = ("ratfun.RatFun.residue", "ratfun.RatFun.residue_at_infinity")
SPIN_MUL = ("spinalg.SpinPoly.__mul__", "spinalg.SpinPoly.__rmul__")
STRUCTURAL = ("gaudin.rbb_residual", "gaudin.lax_residual", "gaudin.mk_residual",
              "gaudin.trB_bracket_residual")
COMPILE = ("dynamics.vector_field_callables", "dynamics.compile_spinpoly")
RENDER = ("reporting.residual_entry", "reporting.build_report", "reporting.dumps",
          "reporting.render_sample")

# (name, unit); the order in which they are printed.
METRICS = (
    [("sampling.draws", "count"), ("sampling.rejects", "count"), ("sampling.accept_ratio", "ratio"),
     ("sampling.reject_s", "s"),
     ("reflection.residual_calls", "count"), ("reflection.residual_s", "s"),
     ("reflection.rbar_calls", "count"), ("reflection.rbar_s", "s"),
     ("rmatrix.cybe_calls", "count"), ("rmatrix.cybe_s", "s"),
     ("linalg.matmul_calls", "count")]
    + [(f"linalg.matmul_us.d{d}", "us") for d in MATMUL_DIMS]
    + [("linalg.inverse_calls", "count"), ("linalg.inverse_s", "s"), ("linalg.embed_s", "s"),
       ("linalg.max_bits", "bits"),
       ("scalars.cyc_mul_calls", "count"), ("scalars.cyc_mul_us", "us"),
       ("scalars.cyc_addsub_calls", "count"), ("scalars.cyc_addsub_us", "us"),
       ("scalars.cyc_inv_calls", "count"), ("scalars.cyc_inv_us", "us"), ("scalars.cyc_s", "s"),
       ("ratfun.mul_calls", "count"), ("ratfun.mul_s", "s"),
       ("ratfun.residue_calls", "count"), ("ratfun.residue_s", "s"),
       ("spinalg.mul_calls", "count"), ("spinalg.mul_s", "s"),
       ("spinalg.bracket_calls", "count"), ("spinalg.bracket_s", "s"), ("spinalg.max_terms", "count")]
    + [(f"gaudin.residue_H_ms.L{L}", "ms") for L in RESIDUE_L]
    + [("gaudin.structural_s", "s"), ("gaudin.bigB_calls", "count"), ("gaudin.explicit_H_s", "s"),
       ("dynamics.steps", "count"), ("dynamics.step_us", "us"), ("dynamics.compile_s", "s"),
       ("dynamics.logged_rows", "count"), ("dynamics.csv_s", "s"),
       ("reporting.render_s", "s"), ("reporting.bytes", "bytes")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("cli.self_s", "s"), ("traced_wall_s", "s"), ("trace_overhead", "ratio")]
)
UNITS = dict(METRICS)
COUNTS = frozenset(name for name, unit in METRICS if unit in ("count", "bits", "bytes"))


class Spans:
    """The spans of one traced pass, with per-span self times."""

    def __init__(self, path: str):
        with np.load(path + ".npz") as data:
            self.start, self.end = data["start"], data["end"]
            self.parent, self.name, self.cmd = data["parent"], data["name"], data["cmd"]
        with open(path + ".json") as handle:
            meta = json.load(handle)
        self.names = meta["names"]
        self.counters = meta["counters"]
        # every time at reference CPU speed, scaled per command; the walls
        # already exclude the speed sampler's probes
        scale = np.asarray(meta["command_speeds"], dtype=np.float64)
        self.walls = np.asarray(meta["command_walls"], dtype=np.float64) * scale
        self.dur = (self.end - self.start) * scale[self.cmd]
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested], minlength=len(self.dur))
        self.self_time = self.dur - child
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.probe = self.name == self._ids.get("probe", -1)
        # per span: the time of the probes anywhere below it
        self.probes_below = np.zeros(len(self.dur))
        probes = np.flatnonzero(self.probe)
        up, weight = self.parent[probes], self.dur[probes]
        while len(up):
            inside = up >= 0
            up, weight = up[inside], weight[inside]
            np.add.at(self.probes_below, up, weight)
            up = self.parent[up]

    def mask(self, names) -> np.ndarray:
        return np.isin(self.name, [self._ids[n] for n in names if n in self._ids])

    def starting(self, prefix: str) -> list:
        return [n for n in self.names if n.startswith(prefix)]

    def count(self, names) -> int:
        return int(self.mask(names).sum())

    def self_s(self, names) -> float:
        return float(self.self_time[self.mask(names)].sum())

    def mean_self_us(self, names) -> float:
        m = self.mask(names)
        return float(self.self_time[m].mean() * 1e6) if m.any() else 0.0

    def inclusive_s(self, names) -> float:
        """Time inside any span of the group, nested members counted once,
        probes excluded."""
        m = self.mask(names)
        total = 0.0
        for idx in np.flatnonzero(m):
            p = self.parent[idx]
            while p >= 0 and not m[p]:
                p = self.parent[p]
            if p < 0:
                total += float(self.dur[idx] - self.probes_below[idx])
        return total

    def layer_self(self) -> dict:
        layer_of = [n.split(".", 1)[0] for n in self.names]
        sums = np.bincount(self.name, weights=self.self_time, minlength=len(self.names))
        out = {layer: 0.0 for layer in LAYERS}
        for i, total in enumerate(sums):
            if layer_of[i] in out:
                out[layer_of[i]] += float(total)
        return out

    def _per_command(self, mask) -> np.ndarray:
        return np.bincount(self.cmd[mask], weights=self.dur[mask], minlength=len(self.walls))[: len(self.walls)]

    def cli_self(self) -> np.ndarray:
        """Per command: wall time (probes excluded) that no top-level span
        covers."""
        covered = self._per_command(self.parent < 0) - self._per_command(self.probe)
        return self.walls - covered

    def check(self) -> list:
        """Violations of the span invariants (empty when consistent)."""
        found = []
        if (self.cmd < 0).any():
            found.append("spans recorded outside any command")
        if (self.end < self.start).any():
            found.append("a span ends before it starts")
        if (self.self_time < -1e-9).any():
            found.append("a span is shorter than its children")
        cli = self.cli_self()
        if (cli < -1e-9).any():
            found.append(f"negative cli self time {cli.min():.3g} s")
        return found


def metrics(spans: Spans) -> dict:
    """Every per-layer metric except ``trace_overhead`` (needs an untraced pass)."""
    c = spans.counters
    draws = c["sampling.draws"]
    steps = c["dynamics.steps"]
    out = {
        "sampling.draws": draws,
        "sampling.rejects": c["sampling.rejects"],
        "sampling.accept_ratio": (draws - c["sampling.rejects"]) / draws if draws else 0.0,
        "sampling.reject_s": spans.inclusive_s(["sampling.reject"]),
        "reflection.residual_calls": spans.count(RESIDUALS),
        "reflection.residual_s": spans.self_s(RESIDUALS),
        "reflection.rbar_calls": spans.count(["reflection.rbar_matrix"]),
        "reflection.rbar_s": spans.self_s(["reflection.rbar_matrix"]),
        "rmatrix.cybe_calls": spans.count(["rmatrix.cybe_residual"]),
        "rmatrix.cybe_s": spans.self_s(["rmatrix.cybe_residual"]),
        "linalg.matmul_calls": spans.count(spans.starting("linalg.Matrix.__mul__[d")),
        "linalg.inverse_calls": spans.count(["linalg.Matrix.inverse"]),
        "linalg.inverse_s": spans.self_s(["linalg.Matrix.inverse"]),
        "linalg.embed_s": spans.self_s(["linalg.embed_pair", "linalg.tensor_pair"]),
        "linalg.max_bits": c["linalg.max_bits"],
        "scalars.cyc_mul_calls": spans.count(CYC_MUL),
        "scalars.cyc_mul_us": spans.mean_self_us(CYC_MUL),
        "scalars.cyc_addsub_calls": spans.count(CYC_ADDSUB),
        "scalars.cyc_addsub_us": spans.mean_self_us(CYC_ADDSUB),
        "scalars.cyc_inv_calls": spans.count(["scalars.Cyclotomic.inverse"]),
        "scalars.cyc_inv_us": spans.mean_self_us(["scalars.Cyclotomic.inverse"]),
        "scalars.cyc_s": spans.self_s(spans.starting("scalars.Cyclotomic.")),
        "ratfun.mul_calls": spans.count(RATFUN_MUL),
        "ratfun.mul_s": spans.self_s(RATFUN_MUL),
        "ratfun.residue_calls": spans.count(RATFUN_RESIDUE),
        "ratfun.residue_s": spans.inclusive_s(RATFUN_RESIDUE),
        "spinalg.mul_calls": spans.count(SPIN_MUL),
        "spinalg.mul_s": spans.self_s(SPIN_MUL),
        "spinalg.bracket_calls": spans.count(["spinalg.poisson_bracket"]),
        "spinalg.bracket_s": spans.inclusive_s(["spinalg.poisson_bracket"]),
        "spinalg.max_terms": c["spinalg.max_terms"],
        "gaudin.structural_s": spans.inclusive_s(STRUCTURAL),
        "gaudin.bigB_calls": spans.count(["gaudin.big_B_at"]),
        "gaudin.explicit_H_s": spans.inclusive_s(["gaudin.hamiltonian_explicit"]),
        "dynamics.steps": steps,
        "dynamics.step_us": spans.self_s(["dynamics.rk4_simulate"]) / steps * 1e6 if steps else 0.0,
        "dynamics.compile_s": spans.inclusive_s(COMPILE),
        "dynamics.logged_rows": c["dynamics.logged_rows"],
        "dynamics.csv_s": spans.inclusive_s(["dynamics.write_csv"]),
        "reporting.render_s": spans.inclusive_s(RENDER),
        "reporting.bytes": c["reporting.bytes"],
        "cli.self_s": float(spans.cli_self().sum()),
        "traced_wall_s": float(spans.walls.sum()),
    }
    for d in MATMUL_DIMS:
        out[f"linalg.matmul_us.d{d}"] = spans.mean_self_us([f"linalg.Matrix.__mul__[d{d}]"])
    for L in RESIDUE_L:
        name = f"gaudin.hamiltonian_residue[L{L}]"
        calls = spans.count([name])
        out[f"gaudin.residue_H_ms.L{L}"] = spans.inclusive_s([name]) / calls * 1e3 if calls else 0.0
    for layer, total in spans.layer_self().items():
        out[f"{layer}.self_s"] = total
    return out
