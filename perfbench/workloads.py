"""Seeded inputs for the three workloads.

A workload is one *round*: a fixed list of CLI invocations.  The seed
draws the parameter values, the energy-file contents, the stress points and
the oracle seeds; the structure of the round (which energy kinds, which
subcommands, in which order) never depends on it, so every run attempts the
same mix of operations.

Each energy carries what theory says about it (``theory``: the verdicts an
exact decision may return) and what structural classification should find
(``kind``).  The reasons are stated next to each entry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

import reference

N_ANGLES = 48  # the CLI's default direction grid, passed explicitly

R1C = "RankOneConvex"
NOT = "NotRankOneConvex"
INC = "Inconclusive"


@dataclass
class Case:
    """One energy as the program sees it, plus its theory."""

    label: str
    catalog_id: Optional[str]  # None for an --energy-file energy
    params: dict               # decimal strings, exactly as passed
    theory: frozenset          # admissible overall verdicts
    kind: str                  # expected classify_structure kind
    sources: Optional[Tuple[str, str]] = None  # (h, f) of an energy file
    path: Optional[str] = None  # energy file, written at set-up

    def energy_args(self) -> List[str]:
        if self.catalog_id is None:
            return ["--energy-file", self.path]
        args = ["--catalog", self.catalog_id]
        for k, v in self.params.items():
            args += [f"--{k}", v]
        return args

    def key(self) -> tuple:
        """What defines the energy; equal keys mean equal references."""
        return (self.catalog_id, tuple(sorted(self.params.items())), self.sources)

    def reference(self) -> reference.RefEnergy:
        if self.catalog_id is None:
            return reference.from_sources(*self.sources, self.params)
        return reference.from_catalog(self.catalog_id, self.params)

    def write(self, directory: str) -> None:
        if self.catalog_id is not None:
            return
        self.path = os.path.join(directory, self.label + ".energy")
        lines = [f"name = {self.label}", f"h = {self.sources[0]}",
                 f"f = {self.sources[1]}"]
        lines += [f"{k} = {v}" for k, v in self.params.items()]
        with open(self.path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class Op:
    """One CLI invocation of the round."""

    sub: str
    case: Case
    extra: List[str] = field(default_factory=list)
    out_csv: Optional[str] = None
    out_svg: Optional[str] = None

    def argv(self) -> List[str]:
        args = [self.sub] + self.case.energy_args() + ["--report", "json"]
        args += self.extra
        if self.out_csv:
            args += ["--out-csv", self.out_csv, "--out-svg", self.out_svg]
        return args


def _draw(rng, lo, hi, digits=3) -> str:
    return f"{rng.uniform(lo, hi):.{digits}f}"


# ---------------------------------------------------------------------------
# energies


# Verdicts theory fixes for the catalog at its default parameters.
_CATALOG_THEORY = {
    # the paper's two worked examples are rank-one convex
    "example1": ({R1C}, "general"),
    "example2": ({R1C}, "general"),
    # Hadamard type mu*K(t) + f(z): rank-one convex iff f convex (f = 0 here)
    "k_energy": ({R1C}, "hadamard_k"),
    "hadamard_k": ({R1C}, "hadamard_k"),
    # t^2 h''(t) = mu (1 - log t) -> -inf, so h0 is unbounded; same shape
    "hencky": ({NOT}, "idealized_same_h"),
    # Neff-Ghiba-Lankeit: rank-one convex iff k >= 1/4 and khat >= 1/8;
    # the default k = 1/4 sits on the boundary (h0 = 0 at t = e^2)
    "exp_hencky": ({R1C, INC}, "general"),
    # h0 < 0 = -f0 (resp. < -f0) when k < 1/8: condition h0 + f0 >= 0 fails
    "exp_hencky_iso": ({NOT}, "general"),
    "exp_hencky_coupled": ({NOT}, "general"),
    # mu (K(t) - 1) + kappa/2 (K(z) - 1): Hadamard type with convex f
    "idealized": ({R1C}, "hadamard_k"),
    # W = f(det F) is rank-one convex iff f is convex; the double well is not
    "double_well_vol": ({NOT}, "general"),
}


def catalog_case(cid: str) -> Case:
    theory, kind = _CATALOG_THEORY[cid]
    return Case(cid, cid, {}, frozenset(theory), kind)


def hadamard_k(rng) -> Case:
    p = {"mu": _draw(rng, 0.5, 5.0), "kappa": _draw(rng, 0.5, 5.0)}
    return Case("hadamard_k_seeded", "hadamard_k", p, frozenset({R1C}), "hadamard_k")


def idealized(rng) -> Case:
    p = {"mu": _draw(rng, 0.5, 5.0), "kappa": _draw(rng, 0.5, 5.0)}
    return Case("idealized_seeded", "idealized", p, frozenset({R1C}), "hadamard_k")


def exp_hencky(rng) -> Case:
    """Strictly inside the Neff-Ghiba-Lankeit range.  khat > k/2, so f and
    h never share their shape.  k, khat <= 1/2 keep exp(k log^2) below
    e^100 on the infimum domain [1e-6, 1e6]."""
    p = {"mu": _draw(rng, 0.5, 3.0), "kappa": _draw(rng, 0.5, 3.0),
         "k": _draw(rng, 0.3, 0.5), "khat": _draw(rng, 0.26, 0.5)}
    return Case("exp_hencky_seeded", "exp_hencky", p, frozenset({R1C}), "general")


def exp_hencky_same_shape(rng) -> Case:
    """khat = k/2 makes f a multiple of h: the same-shape family, rank-one
    convex iff h is convex, i.e. iff k >= 1/4."""
    khat = round(rng.uniform(0.15, 0.25), 3)
    p = {"mu": _draw(rng, 0.5, 3.0), "kappa": _draw(rng, 0.5, 3.0),
         "k": f"{2 * khat:.3f}", "khat": f"{khat:.3f}"}
    return Case("exp_hencky_same_shape", "exp_hencky", p, frozenset({R1C}),
                "idealized_same_h")


def hencky(rng) -> Case:
    p = {"mu": _draw(rng, 0.5, 3.0), "kappa": _draw(rng, 0.5, 3.0)}
    return Case("hencky_seeded", "hencky", p, frozenset({NOT}), "idealized_same_h")


def exp_hencky_iso(rng) -> Case:
    """k < 1/8 makes t^2 h'' negative somewhere while f = 0."""
    p = {"mu": _draw(rng, 0.5, 3.0), "k": _draw(rng, 0.05, 0.11)}
    return Case("exp_hencky_iso_seeded", "exp_hencky_iso", p, frozenset({NOT}), "general")


def double_well(rng) -> Case:
    p = {"scale": _draw(rng, 0.5, 3.0)}
    return Case("double_well_seeded", "double_well_vol", p, frozenset({NOT}), "general")


_HADAMARD_H = "mu*((t + 1/t)/2 - 1)"


def file_convex(rng) -> Case:
    """Hadamard type with f'' = kappa/z^2 > 0: rank-one convex."""
    p = {"mu": _draw(rng, 0.5, 5.0), "kappa": _draw(rng, 0.5, 5.0)}
    return Case("file_hadamard_convex", None, p, frozenset({R1C}), "hadamard_k",
                sources=(_HADAMARD_H, "kappa*(z - log(z) - 1)"))


def file_nonconvex(rng) -> Case:
    """Hadamard type with f = kappa log^2 z, not convex for z > e."""
    p = {"mu": _draw(rng, 0.5, 5.0), "kappa": _draw(rng, 0.5, 5.0)}
    return Case("file_hadamard_nonconvex", None, p, frozenset({NOT}), "hadamard_k",
                sources=(_HADAMARD_H, "kappa*log(z)^2/2"))


# ---------------------------------------------------------------------------
# rounds


def _stress_report_crashes(case: Case) -> bool:
    """``stress --report json`` dies on a numpy bool whenever f'(1) comes
    out of exp or log (a fault of the CLI, see CHANGES.md)."""
    if case.catalog_id is None:
        return "log(" in case.sources[1] or "exp(" in case.sources[1]
    return case.catalog_id in ("hencky", "exp_hencky")


def _certify(rng, tmp) -> List[Op]:
    cases = [catalog_case(cid) for cid in _CATALOG_THEORY]
    cases += [hadamard_k(rng), idealized(rng), exp_hencky(rng),
              exp_hencky_same_shape(rng), file_convex(rng), file_nonconvex(rng)]
    ops = []
    for case in cases:
        l1, l2 = sorted(np.exp(rng.uniform(-1.0, 1.0, 2)), reverse=True)
        ops.append(Op("classify", case))
        ops.append(Op("check", case))
        if case.label == "hencky":
            # kept on fixed inputs: fails every time, counted in `failed`
            ops.append(Op("stress", case, ["--at", "2.0", "0.5"]))
        elif not _stress_report_crashes(case):
            ops.append(Op("stress", case, ["--at", f"{l1:.6f}", f"{l2:.6f}"]))
    return ops


def _search(rng, tmp) -> List[Op]:
    cases = [catalog_case("example1"), catalog_case("example2"), hencky(rng),
             exp_hencky_iso(rng), double_well(rng), hadamard_k(rng),
             exp_hencky(rng), file_nonconvex(rng)]
    ops = []
    for case in cases:
        for seed in rng.choice(10**6, size=2, replace=False):
            ops.append(Op("oracle", case, ["--seed", str(int(seed))]))
    return ops


def _map(rng, tmp) -> List[Op]:
    cases = [hadamard_k(rng), idealized(rng), hencky(rng), exp_hencky_iso(rng)]
    hi = _draw(rng, 8.0, 15.0, 2)
    ops = []
    for i, case in enumerate(cases):
        for spacing in ("log", "linear"):
            extra = ["--grid", "128", "--spacing", spacing,
                     "--angles", str(N_ANGLES)]
            if spacing == "linear":
                extra += ["--lambda-min", "0.05", "--lambda-max", hi]
            stem = os.path.join(tmp, f"map{i}_{spacing}")
            ops.append(Op("scan", case, extra, out_csv=stem + ".csv",
                          out_svg=stem + ".svg"))
    return ops


WORKLOADS = {"certify": _certify, "search": _search, "map": _map}


def generate(workload: str, seed: int, tmp: str) -> List[Op]:
    """The round of ``workload`` for ``seed``; energy files go to ``tmp``."""
    rng = np.random.default_rng(seed & (2**64 - 1))  # any int, negative too
    ops = WORKLOADS[workload](rng, tmp)
    for case in {id(op.case): op.case for op in ops}.values():
        case.write(tmp)
    return ops
