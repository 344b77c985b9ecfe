"""Partitioning a triangle-free-blue colouring into a sparse part and snakes.

The blue graph must be triangle free.  Round by round, a family of
disjoint red m-cliques is pulled out of the active set, taken until no
blue star of m is left in what remains of it, and a threshold s is
chosen inside a gap of the pair link weights, so that every pair is
either strongly linked (weight at least s) or clearly not (weight below
s divided by lambda).  A weight is the side of a balanced red biclique
that two prefix walks find, recorded as min(w, s): a linked pair is
proved by its red K_{s,s} witness, and an unlinked weight is only a
lower bound on the largest such biclique.  The component of the first
clique becomes a snake and leaves the active set, together with the
vertices blue-attached to it.  The one consequence of the gap that later
stages read, that no attached vertex is also attached to a clique
outside the snake, is checked vertex by vertex.
What survives every round is sparse in blue: no vertex has m blue
neighbours in it, and that is the point of the whole exercise.

The certificate stores each round and nothing else: its cliques, pair
weights, s, the witnesses of its snake's links and the vertices it
attached.  The snakes, the sparse set and the s values are read off the
rounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import ceil, comb, floor

from .bits import bit, bits_list, iter_bits, mask_of
from .colored_graph import (
    ColouredGraph,
    Verdict,
    heaviest_blue_star,
    max_balanced_biclique,
    max_disjoint_red_cliques,
)
from .errors import StageFailure
from .snake_embedding import LinkWitness, Snake, link_tree
from .snake_embedding import range_errors, validate_snake


@dataclass(frozen=True)
class DecompositionParams:
    """Clique size, threshold window, and the two slack ratios.

    ``lam`` widens the gap interval below each candidate threshold and
    ``mu`` caps how blue the surviving active set may look towards a
    freshly removed snake.
    """

    m: int
    s_lo: int
    s_hi: int
    lam: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.m < 1:
            raise ValueError(f"clique size must be positive, got {self.m}")
        if not 1 <= self.s_lo <= self.s_hi:
            raise ValueError(
                f"need 1 <= s_lo <= s_hi, got {self.s_lo}, {self.s_hi}"
            )
        if self.lam <= 1:
            raise ValueError(f"lambda must exceed 1, got {self.lam}")
        if self.mu < 1:
            raise ValueError(f"mu must be at least 1, got {self.mu}")

    @classmethod
    def desk(cls, n: int) -> "DecompositionParams":
        """Hand-tuned constants that behave at small n.

        The clique size 2^(n+1) makes a graph on 2^(n+2) vertices resolve
        into at most two cliques, so a round weighs at most one clique
        pair on the instance families this package ships.  The paper's
        own choices (m = 2^(n-d) with d about log log log n, s between
        2^n / n^(1/3) and 2^n / n^(1/4)) satisfy the snake walk's
        worst-case conditions only beyond n of about 1660, so they are
        not offered.
        """
        if n < 1:
            raise ValueError("dimension must be positive")
        return cls(
            m=1 << (n + 1),
            s_lo=2 * comb(n, n // 2),
            s_hi=1 << (n + 1),
            lam=Fraction(2),
            mu=Fraction(2),
        )


def select_gap_threshold(weights, params: DecompositionParams) -> int:
    """The smallest geometric grid point whose gap interval is weight-free.

    Grid points are ceil(s_lo * lam^i) for i = 0, 1, ...; a point x
    qualifies when no weight lies in [x/lam, x).  Comparisons are exact:
    the interval test is lam*w >= x and w < x.
    """
    ws = sorted(set(int(w) for w in weights))
    lam = params.lam
    grid, i = [], 0
    while (x := ceil(params.s_lo * lam**i)) <= params.s_hi:
        if not grid or x > grid[-1]:
            grid.append(x)
        i += 1
    for x in grid:
        if not any(w < x and lam * w >= x for w in ws):
            return x
    raise StageFailure(
        "gap-selection",
        f"every grid point in [{params.s_lo}, {params.s_hi}] has a weight "
        f"in its gap interval",
        data={"weights": ws, "grid": grid},
    )


def _snake_component(k: int, weights, s: int) -> tuple[int, ...]:
    """A round's snake among its k cliques: the link component of clique
    0, sorted, where the pairs (i, j, w) of weight w >= s are linked."""
    linked = [(i, j) for i, j, w in weights if w >= s]
    return tuple(sorted(link_tree(k, linked)))


@dataclass(frozen=True)
class RoundRecord:
    """One removal round: its red cliques, the weight min(w, s) of every
    clique pair, the threshold s, a red K_{s,s} witness per linked pair
    (indices into the round's snake), and the vertices attached to the
    snake."""

    cliques: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[int, int, int], ...]
    s: int
    witnesses: tuple[LinkWitness, ...]
    sparse_added: tuple[int, ...]

    @cached_property
    def snake_indices(self) -> tuple[int, ...]:
        return _snake_component(len(self.cliques), self.weights, self.s)


@dataclass(frozen=True)
class Decomposition:
    """The rounds of a partition into a sparse set C and snakes S_1..S_r.

    Only the rounds are stored.  Snake i is read off round i (its
    snake's cliques, witnesses and s), and C is every vertex in no snake.
    ``decompose`` hands over the snakes it built, clique masks included,
    so a solve masks each clique once.
    """

    n_vertices: int
    params: DecompositionParams
    rounds: tuple[RoundRecord, ...]

    @cached_property
    def snakes(self) -> tuple[Snake, ...]:
        return tuple(
            Snake(tuple(r.cliques[c] for c in r.snake_indices), r.witnesses, r.s)
            for r in self.rounds
        )

    @cached_property
    def s_values(self) -> tuple[int, ...]:
        return tuple(r.s for r in self.rounds)

    @property
    def r(self) -> int:
        return len(self.rounds)

    @cached_property
    def sparse_mask(self) -> int:
        covered = 0
        for sn in self.snakes:
            covered |= sn.mask
        return ((1 << self.n_vertices) - 1) & ~covered

    def to_json(self) -> str:
        # json writes a tuple as an array
        p = self.params
        return json.dumps({
            "n_vertices": self.n_vertices,
            "params": {
                "m": p.m,
                "s_lo": p.s_lo,
                "s_hi": p.s_hi,
                "lam": [p.lam.numerator, p.lam.denominator],
                "mu": [p.mu.numerator, p.mu.denominator],
            },
            "rounds": [
                {
                    "cliques": r.cliques,
                    "weights": r.weights,
                    "s": r.s,
                    "witnesses": [
                        {"i": w.i, "j": w.j, "X": w.X, "Y": w.Y}
                        for w in r.witnesses
                    ],
                    "sparse_added": r.sparse_added,
                }
                for r in self.rounds
            ],
        })

    @classmethod
    def from_json(cls, text: str) -> "Decomposition":
        """The certificate written by ``to_json``.  A missing key, a
        value that is not a JSON object or list where one belongs, a
        weight that is not three integers, and a parameter, vertex, index,
        weight, s or vertex count that is not a JSON integer (true and
        false included) raise ValueError naming the field, and its round
        if it has one; so does a zero denominator of lam or mu."""
        data = json.loads(text)
        p = _field(data, "params", "")
        m, s_lo, s_hi = (_field(p, k, "params", _int) for k in ("m", "s_lo", "s_hi"))
        lam, mu = (_field(p, k, "params", _ratio) for k in ("lam", "mu"))
        params = DecompositionParams(m, s_lo, s_hi, lam, mu)
        rounds = []
        for i, r in enumerate(_field(data, "rounds", "", _list)):
            at, wat = f"round {i}", f"round {i} witness"
            rounds.append(RoundRecord(
                cliques=tuple(
                    _ints(c, f"{at} clique") for c in _field(r, "cliques", at, _list)
                ),
                weights=tuple(
                    _ints(w, f"{at} weight", 3) for w in _field(r, "weights", at, _list)
                ),
                s=_field(r, "s", at, _int),
                witnesses=tuple(
                    LinkWitness(
                        _field(w, "i", wat, _int), _field(w, "j", wat, _int),
                        _field(w, "X", wat, _ints), _field(w, "Y", wat, _ints),
                    )
                    for w in _field(r, "witnesses", at, _list)
                ),
                sparse_added=_field(r, "sparse_added", at, _ints),
            ))
        n_vertices = _field(data, "n_vertices", "", _int)
        return cls(n_vertices, params, tuple(rounds))


def _field(obj, key: str, at: str, read=None):
    """The value at key of the JSON object obj, passed through
    read(value, name) if given, where name is the field's name, at then
    key; an obj that is not an object, or a missing key, raises
    ValueError naming the field."""
    name = f"{at} {key}".lstrip()
    if type(obj) is not dict:
        raise ValueError(f"{at or 'certificate'}: {obj!r} is not an object")
    if key not in obj:
        raise ValueError(f"{name}: missing")
    return obj[key] if read is None else read(obj[key], name)


def _int(x, field: str) -> int:
    """x if it is an int and not a bool, else a ValueError naming the field."""
    return _ints([x], field)[0]


def _list(values, field: str) -> list:
    """values if it is a JSON list, else a ValueError naming the field."""
    if type(values) is not list:
        raise ValueError(f"{field}: {values!r} is not a list")
    return values


def _ints(values, field: str, size: int | None = None) -> tuple[int, ...]:
    """A JSON list of ints, each an int and not a bool, of the given size
    if one is given, as a tuple, else a ValueError naming the field."""
    vs = tuple(_list(values, field))
    for x in vs:
        if type(x) is not int:
            raise ValueError(f"{field}: {x!r} is not an integer")
    if size is not None and len(vs) != size:
        raise ValueError(f"{field}: {values!r} is not {size} integers")
    return vs


def _ratio(values, field: str) -> Fraction:
    """A [numerator, denominator] pair of ints as a Fraction, else a
    ValueError naming the field."""
    num, den = _ints(values, field, 2)
    if den == 0:
        raise ValueError(f"{field}: zero denominator")
    return Fraction(num, den)


def _attached_clique(G: ColouredGraph, v: int, masks, t: int):
    """The first (i, d) of the (i, clique mask) pairs in masks such that
    v has blue degree d >= t into the clique, or None."""
    for i, mask in masks:
        if (d := (G.blue[v] & mask).bit_count()) >= t:
            return i, d
    return None


def decompose(G: ColouredGraph, params: DecompositionParams) -> Decomposition:
    """Strip snakes off the graph until a round finds no red m-clique.

    The blue graph must be triangle free (``solve`` checks it first):
    each round's clique family stops once no vertex has m blue neighbours
    in what it leaves, and only on such a graph does that make every blue
    degree inside the final sparse remainder fall below m.

    Each round removes the snake through the first extracted clique and
    the vertices blue-attached to any of its cliques beyond s/lambda.
    Three conditions are enforced as the rounds go: surviving active
    vertices have blue degree at most s/mu into the removed snake, each
    removed attached vertex keeps blue degree at most 2m into what
    survives, and none is attached to a clique outside the snake.
    Violations are structured failures, not silent repairs.  Each round
    works its thresholds out once, as integers: a vertex is attached at
    ceil(s/lambda) blue neighbours in a clique, survives with at most
    floor(s/mu) in the snake, and is attached with at most 2m in what
    survives; each rule reads ``blue_into``.  The snakes are not
    validated here, as they are built valid; ``verify_decomposition``
    validates them and re-checks all but the 2m rule.
    """
    A = G.full_mask
    rounds: list[RoundRecord] = []
    snakes: list[Snake] = []
    t_2m = 2 * params.m + 1

    for round_index in range(1, G.n_vertices + 2):
        cliques = max_disjoint_red_cliques(G, A, params.m)
        if not cliques:
            break
        # clip weights at the grid point under test: those below it are
        # final, settle every point up to it and lie in no later gap, so
        # the selection returns the cap or the next grid point to try
        cap = params.s_lo
        while True:
            # min(w, cap) with a red witness of that size, per clique pair
            # in sorted order; a weight below the cap is final
            weights = {
                (i, j): max_balanced_biclique(G, cliques[i], cliques[j], cap)
                for i in range(len(cliques)) for j in range(i + 1, len(cliques))
            }
            ws = [w for w, _, _ in weights.values()]
            try:
                s = select_gap_threshold([w for w in ws if w < cap], params)
            except StageFailure as e:
                e.data.update(weights=sorted(set(ws)), cap=cap)
                raise
            if s <= cap:
                break
            cap = s
        recorded = tuple((i, j, w) for (i, j), (w, _, _) in weights.items())
        comp = _snake_component(len(cliques), recorded, s)
        pos = {ci: idx for idx, ci in enumerate(comp)}
        # comp is sorted, so pos keeps the order of each linked pair
        witnesses = tuple(
            LinkWitness(pos[i], pos[j], X, Y)
            for (i, j), (w, X, Y) in weights.items()
            if w >= s and i in pos
        )

        # the round's snake, as ``Decomposition.snakes`` reads it off the
        # record; its clique masks are built here, once
        snake = Snake(tuple(cliques[ci] for ci in comp), witnesses, s)
        S_mask = snake.mask
        # lam * d >= s and mu * d > s, for an integer degree d
        t_attach, t_mu = ceil(s / params.lam), floor(s / params.mu) + 1
        rest = A & ~S_mask
        sparse_new = 0
        for mask in snake.clique_masks:
            sparse_new |= mask_of(
                v for v, _ in G.blue_into(rest & ~sparse_new, mask, t_attach)
            )
        A_next = rest & ~sparse_new

        for v, d in G.blue_into(A_next, S_mask, t_mu):
            raise StageFailure(
                "residual-attachment",
                f"vertex {v} keeps blue degree {d} into the removed "
                f"snake, above s/mu = {Fraction(s) / params.mu}",
                data={"round": round_index, "vertex": v, "degree": d},
            )
        for v, d in G.blue_into(sparse_new, A_next | sparse_new, t_2m):
            raise StageFailure(
                "sparse-attachment",
                f"attached vertex {v} keeps blue degree {d} into the "
                f"surviving vertices, above 2m = {2 * params.m}",
                data={"round": round_index, "vertex": v, "degree": d},
            )
        # a vertex attached to the snake and to an outside clique has blue
        # stars in both, a red biclique of side at least s/lambda between
        # the two cliques; the gap puts that pair's weight below s/lambda,
        # but a recorded weight below s is only a lower bound
        out = [(ci, mask_of(c)) for ci, c in enumerate(cliques) if ci not in pos]
        for v in iter_bits(sparse_new):
            if hit := _attached_clique(G, v, out, t_attach):
                ci, d = hit
                raise StageFailure(
                    "outside-attachment",
                    f"attached vertex {v} has blue degree {d} into "
                    f"clique {ci}, outside the snake, at least "
                    f"s/lambda = {Fraction(s) / params.lam}",
                    data={"round": round_index, "vertex": v,
                          "clique": ci, "degree": d},
                )

        rounds.append(RoundRecord(
            tuple(cliques), recorded, s, witnesses, tuple(bits_list(sparse_new))
        ))
        snakes.append(snake)
        A = A_next
    else:
        raise AssertionError("decomposition failed to terminate")

    # the last clique family came back empty, which on a triangle-free
    # graph means no blue star of m is left in the remainder
    if star := heaviest_blue_star(G, A, params.m):
        raise AssertionError(
            f"vertex {star[0]} keeps {star[1]} blue neighbours in the "
            f"sparse remainder, not below m = {params.m}"
        )
    dec = Decomposition(G.n_vertices, params, tuple(rounds))
    dec.__dict__["snakes"] = tuple(snakes)
    return dec


def verify_decomposition(G: ColouredGraph, dec: Decomposition) -> Verdict:
    """Re-check a decomposition from scratch against its graph.

    Each round must have cliques of m vertices and record one weight
    (not re-searched) per pair of them, none above s, with s the first
    grid point whose gap is weight-free.  Its snake, the link component
    of clique 0, must validate with the round's witnesses; snakes must
    be disjoint, and vertices of later snakes only weakly blue-attached
    to every earlier snake.  Each vertex a round attaches must lie in G,
    in no snake, and be lambda-attached to a clique of that round's
    snake; no vertex may have m blue neighbours in the remainder, the
    vertices in no snake less the attached ones (the 2m rule is trusted
    to ``decompose``).  A round that lacks a weight for some clique pair
    or has a clique of other than m vertices, or a snake vertex outside
    G, fails the certificate before any other test.  Nothing checks that
    a round's clique family was maximal: a certificate with a round
    dropped still verifies when its vertices, joining the remainder,
    leave no blue m-star there.  That changes only the route a solve
    takes, never a map, which is verified edge by edge.
    """
    errors = []
    if dec.n_vertices != G.n_vertices:
        errors.append(
            f"the certificate is for {dec.n_vertices} vertices, not {G.n_vertices}"
        )
    for i, rec in enumerate(dec.rounds):
        k = len(rec.cliques)
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        if k == 0 or sorted(tuple(w[:2]) for w in rec.weights) != pairs:
            errors.append(f"round {i} does not record one weight per clique pair")
        for j, c in enumerate(rec.cliques):
            if len(c) != dec.params.m:
                errors.append(f"round {i} clique {j} has {len(c)} vertices, "
                              f"not m = {dec.params.m}")
    if errors:
        return Verdict(errors)
    for i, sn in enumerate(dec.snakes):
        errors += [f"snake {i} invalid: {e}" for e in range_errors(G.n_vertices, sn)]
    if errors:
        return Verdict(errors)
    masks = [sn.mask for sn in dec.snakes]
    total = 0
    for i, m in enumerate(masks):
        if total & m:
            errors.append(f"snake {i} overlaps earlier snakes")
        total |= m

    C = remainder = G.full_mask & ~total  # the vertices in no snake
    for i, rec in enumerate(dec.rounds):
        snake = list(zip(rec.snake_indices, dec.snakes[i].clique_masks))
        t_attach = ceil(rec.s / dec.params.lam)
        for v in rec.sparse_added:
            if not 0 <= v < G.n_vertices:
                why = "outside the graph"
            elif not (C >> v) & 1:
                why = "which lies in a snake"
            elif not _attached_clique(G, v, snake, t_attach):
                why = "not lambda-attached to its snake"
            else:
                remainder &= ~bit(v)
                continue
            errors.append(f"round {i} attaches vertex {v}, {why}")
    if star := heaviest_blue_star(G, remainder, dec.params.m):
        errors.append("vertex {} has {} blue neighbours in the sparse remainder, "
                      "not below m = {}".format(*star, dec.params.m))

    for i, sn in enumerate(dec.snakes):
        check = validate_snake(G, sn)
        if not check:
            errors.append(f"snake {i} invalid: " + "; ".join(check.errors))

    for i, rec in enumerate(dec.rounds):
        ws = [w for _, _, w in rec.weights]
        try:
            chosen = select_gap_threshold(ws, dec.params)
        except StageFailure:
            chosen = None
        if chosen != rec.s or max(ws, default=0) > rec.s:
            errors.append(f"round {i} records s={rec.s} against its weights {ws}")

    for i, si in enumerate(dec.s_values):
        t_mu = floor(si / dec.params.mu) + 1
        for j in range(i + 1, dec.r):
            for v, d in G.blue_into(masks[j], masks[i], t_mu):
                errors.append(
                    f"vertex {v} of snake {j} has blue degree {d} "
                    f"into snake {i}, above s_i/mu"
                )
    return Verdict(errors)
