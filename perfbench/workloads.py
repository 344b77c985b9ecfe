"""The four benchmark workloads: which hosts, which operations, and how
each operation's output is checked.

Operations:
  solve    solve(G, n, SolverParams.desk(n))
  certify  decompose, Decomposition.to_json, from_json, verify_decomposition:
           what `cuberamsey decompose --cert-out` does, followed by a reader
           re-checking the certificate
  sweep    exhaustive_ramsey(n, N, mode)
  absence  contains_red_cube on a bridged lower-bound host
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil
from typing import Optional

import hosts as H

WORKLOADS = ("snake-route", "dense-route", "exact-search", "oracle-sweep")

# Per-operation budget, in reference seconds (see calibration.py), so
# that a slow spell of the machine does not push an operation over it.
# On the two route workloads every operation is expected to succeed and
# the slowest takes 10 to 16 s, so the budget is a safety net well above
# it.  On the other two it is above the slowest expected success (under
# 3 s: a bipartite n=4 solve, a canonical N=8 sweep) and cuts the known
# stalls: bipartite n=5, greedy n=6 and n=7, absence n=4.
BUDGET_S = {
    "snake-route": 30.0,
    "dense-route": 30.0,
    "exact-search": 5.0,
    "oracle-sweep": 5.0,
}

# Bipartite n=4 solves take 0.2 to over 5 s depending on the host (and
# on its labelling: shuffled labels make them all fast), so these hosts
# are a fixed corpus of five that does not change with the seed; the
# seed varies every other host of the workload.  Indices 0-4, not picked.
BIPARTITE_N4_HOSTS = 5


@dataclass(frozen=True)
class Op:
    kind: str
    n: int
    host: Optional[H.Host] = None
    N: int = 0
    mode: str = ""

    @property
    def label(self) -> str:
        if self.kind == "sweep":
            return f"sweep n={self.n} N={self.N} {self.mode}"
        return f"{self.kind} {self.host.label}"


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    # one stream per host, so adding a host never changes another
    return random.Random(f"{workload}/{seed}/{tag}")


def _corpus_rng(workload: str, tag: str) -> random.Random:
    return random.Random(f"{workload}/corpus/{tag}")


def _greedy(w, seed, n, edges_per_vertex):
    N = 1 << (n + 2)
    e = max(1, int(N * edges_per_vertex))
    return H.triangle_free_greedy(n, N, e, _rng(w, seed, f"greedy{n}"))


def _both(hosts_and_n):
    return [Op(k, n, h) for h, n in hosts_and_n for k in ("solve", "certify")]


def build(workload: str, seed: int, smoke: bool = False) -> tuple[list[Op], Op]:
    """The operations of a run, in order, and the warm-up operation."""
    w = workload
    if w == "snake-route":
        # two red cliques linked by a planted biclique, and all-red hosts:
        # every solve goes down the snake route
        tc = (4, 5) if smoke else (10, 11, 12)
        ar = (5,) if smoke else (13, 14)
        pairs = [(H.two_clique_shuffled(n, _rng(w, seed, f"tc{n}")), n) for n in tc]
        pairs += [(H.all_red(n), n) for n in ar]
        warm = Op("solve", 3, H.two_clique_shuffled(3, _rng(w, seed, "warm")))
        return _both(pairs), warm
    if w == "dense-route":
        # sparse greedy hosts, N/8 blue edges: every solve goes dense
        ns = (6, 7) if smoke else (12, 13, 14)
        pairs = [(_greedy(w, seed, n, 1 / 8), n) for n in ns]
        warm = Op("solve", 5, _greedy(w, seed, 5, 1 / 8))
        return _both(pairs), warm
    if w == "exact-search":
        # hosts that reach the exponential exact searches and the
        # dense-route coverage defect
        if smoke:
            ops = [
                Op("solve", 3, H.bipartite_blue(3, 32, 0.05, _rng(w, seed, "bip3"))),
                Op("solve", 4, _greedy(w, seed, 4, 2)),
            ]
        else:
            ops = [
                Op("solve", 4, H.bipartite_blue(4, 64, 0.05, _corpus_rng(w, f"bip4-{i}"), i))
                for i in range(BIPARTITE_N4_HOSTS)
            ]
            ops.append(Op("solve", 5, H.bipartite_blue(5, 128, 0.05, _rng(w, seed, "bip5"))))
            ops += [Op("solve", n, _greedy(w, seed, n, 2)) for n in (5, 6, 7)]
        warm = Op("solve", 3, _greedy(w, seed, 3, 1 / 8))
        return ops, warm
    if w == "oracle-sweep":
        sweeps = [(2, 6, "plain"), (2, 6, "canonical")] if smoke else [
            (2, 7, "plain"), (2, 8, "canonical"), (3, 8, "canonical")]
        ops = [Op("sweep", n, None, N, mode) for n, N, mode in sweeps]
        ops += [
            Op("absence", n, H.bridged_lower_bound(n, _rng(w, seed, f"lb{n}")))
            for n in ((2, 3) if smoke else (3, 4))
        ]
        return ops, Op("sweep", 2, None, 5, "plain")
    raise ValueError(f"unknown workload {workload!r}")


def hypothesis_error(op: Op) -> Optional[str]:
    """Why the host does not qualify for its operation, or None."""
    if op.kind == "sweep":
        if expected_verdict(op.n, op.N) is None:
            return f"no known verdict for n={op.n}, N={op.N}"
        return None
    bad = H.blue_triangle(op.host.blue)
    if bad:
        return bad
    need = ceil(1.25 * (1 << (op.n + 1)))
    if op.kind == "solve" and op.host.N < need:
        return f"{op.host.N} vertices, solve needs {need}"
    return None


def expected_verdict(n: int, N: int) -> Optional[bool]:
    """Does every colouring of K_N hold a blue triangle or a red Q_n?

    False up to 2^(n+1) - 2 vertices (two red (2^n - 1)-cliques, blue
    across); true for n = 2 from 7 vertices on, since r(K_3, C_4) = 7.
    """
    if N <= (1 << (n + 1)) - 2:
        return False
    if n == 2 and N >= 7:
        return True
    return None


def run(op: Op, pkg, graph):
    """The timed part of an operation."""
    if op.kind == "solve":
        return pkg.solver.solve(graph, op.n, pkg.solver.SolverParams.desk(op.n))
    if op.kind == "certify":
        dm = pkg.decomposition
        dec = dm.decompose(graph, dm.DecompositionParams.desk(op.n))
        back = dm.Decomposition.from_json(dec.to_json())
        return dec, back, dm.verify_decomposition(graph, back)
    if op.kind == "sweep":
        return pkg.oracle.exhaustive_ramsey(op.n, op.N, op.mode)
    if op.kind == "absence":
        return pkg.oracle.contains_red_cube(graph, op.n)
    raise ValueError(op.kind)


def output_error(op: Op, result) -> Optional[str]:
    """Why the output is wrong, or None; runs outside the timed region."""
    if op.kind == "solve":
        return H.embedding_error(op.host.blue, op.n, result)
    if op.kind == "certify":
        dec, back, verdict = result
        if not verdict:
            return "verify_decomposition rejected the certificate"
        if back != dec:
            return "the certificate did not survive the JSON round trip"
        return None
    if op.kind == "sweep":
        want = expected_verdict(op.n, op.N)
        if result.holds != want:
            return f"verdict {result.holds}, known value {want}"
        if not want:
            wit = result.witness
            if wit is None or wit.n_vertices != op.N:
                return "no witness colouring on N vertices"
            blue = list(wit.blue)
            if H.blue_triangle(blue):
                return "witness has a blue triangle"
            if H.has_red_cube(blue, op.n):
                return "witness holds a red cube"
        return None
    if op.kind == "absence":
        if result.found:
            return "found a red cube where none exists"
        return None
    raise ValueError(op.kind)
