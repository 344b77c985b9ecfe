"""Command line front end.

Subcommands generate colourings, inspect them, run the decomposition,
run the full cube search, and expose the exhaustive small-case oracles.
Graphs travel as text: first line the vertex count, then one blue edge
"u v" per line with u < v.  Embeddings travel as lines "w v" where w is
the cube vertex written as its coordinates y_1..y_n left to right and v
is the graph vertex.

Exit codes: 0 success, 1 ``check`` rejects the embedding, 2 a hypothesis
of the method fails, 3 a stage of the construction failed, 4 unreadable
input.  Failures print a single JSON line on stdout describing them.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager

from .colored_graph import (
    ColouredGraph,
    is_blue_triangle_free,
    lower_bound_coloring,
    random_bipartite_blue,
    random_triangle_free_greedy,
    require_blue_triangle_free,
    verify_red_embedding,
)
from .decomposition import DecompositionParams, decompose, verify_decomposition
from .errors import CubeRamseyError, GraphParseError, HypothesisError, StageFailure
from .hypercube import bandwidth_bound, bandwidth_order
from .oracle import contains_red_cube, exhaustive_ramsey
from .solver import SolverParams, solve

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_HYPOTHESIS = 2
EXIT_STAGE = 3
EXIT_PARSE = 4


def format_cube_vertex(z: int, n: int) -> str:
    """Coordinates y_1..y_n left to right; y_i is bit i-1 of the word."""
    return "".join("1" if (z >> i) & 1 else "0" for i in range(n))


def parse_cube_vertex(s: str) -> tuple[int, int]:
    """Inverse of ``format_cube_vertex``; returns (vertex, dimension)."""
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"cube vertex must be a 0/1 string, got {s!r}")
    return sum(1 << i for i, ch in enumerate(s) if ch == "1"), len(s)


def write_embedding(phi: dict[int, int], n: int, stream):
    for z in sorted(phi):
        stream.write(f"{format_cube_vertex(z, n)} {phi[z]}\n")


def read_embedding(stream, n: int) -> dict[int, int]:
    phi: dict[int, int] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"embedding line needs 'cube-vertex graph-vertex', got {line!r}",
                line=lineno,
            )
        try:
            z, dim = parse_cube_vertex(parts[0])
            v = int(parts[1])
        except ValueError as e:
            raise GraphParseError(str(e), line=lineno) from None
        if dim != n:
            raise GraphParseError(
                f"cube vertex {parts[0]} has {dim} coordinates, expected {n}",
                line=lineno,
            )
        if z in phi:
            raise GraphParseError(
                f"cube vertex {parts[0]} embedded twice", line=lineno
            )
        phi[z] = v
    # every key is a distinct cube vertex below 2^n, so len(phi) of them
    # leave 2^n - len(phi) out, the first among 0..len(phi)
    if len(phi) < 1 << n:
        first = next(z for z in range(len(phi) + 1) if z not in phi)
        raise GraphParseError(
            f"embedding misses {(1 << n) - len(phi)} of the {1 << n} cube "
            f"vertices, first {format_cube_vertex(first, n)}"
        )
    return phi


@contextmanager
def _open_in(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r") as f:
            yield f


@contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as f:
            yield f


def _load_graph(path: str) -> ColouredGraph:
    with _open_in(path) as f:
        return ColouredGraph.from_text(f)


def _emit(payload: dict):
    print(json.dumps(payload, default=str))


def _failure(e: CubeRamseyError) -> tuple[dict, int]:
    """The JSON payload and the exit code that report the error."""
    if isinstance(e, HypothesisError):
        return {
            "status": "hypothesis-failure",
            "hypothesis": e.hypothesis,
            "details": e.details,
            "witness": e.witness,
        }, EXIT_HYPOTHESIS
    if isinstance(e, StageFailure):
        return {
            "status": "stage-failure",
            "stage": e.stage,
            "details": e.details,
            "data": e.data,
        }, EXIT_STAGE
    return {"status": "parse-error", "message": e.message, "line": e.line}, EXIT_PARSE


def _cmd_gen_lower_bound(args) -> int:
    G = lower_bound_coloring(args.n)
    with _open_out(args.out) as f:
        G.to_text(f)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    rng = random.Random(args.seed)
    vertices = args.vertices if args.vertices is not None else 1 << (args.n + 2)
    # each model has its own flag; the other model's is misuse
    if args.blue_model == "bipartite":
        if args.blue_edges is not None:
            args.misuse("argument --blue-edges: not for --blue-model bipartite")
        G = random_bipartite_blue(vertices, 0.5 if args.p is None else args.p, rng)
    else:
        if args.p is not None:
            args.misuse("argument --p: not for --blue-model triangle-free-greedy")
        target = (
            args.blue_edges if args.blue_edges is not None else vertices // 8
        )
        G = random_triangle_free_greedy(vertices, target, rng)
    with _open_out(args.out) as f:
        G.to_text(f)
    return EXIT_OK


def _cmd_check(args) -> int:
    G = _load_graph(args.infile)
    ok, triangle = is_blue_triangle_free(G)
    payload = {
        "status": "ok",
        "vertices": G.n_vertices,
        "blue_edges": G.blue_edge_count(),
        "max_blue_degree": max(G.blue_degrees(), default=0),
        "triangle_free": ok,
    }
    if not ok:
        payload["blue_triangle"] = list(triangle)
    if args.embedding is not None:
        if args.n is None:
            raise GraphParseError("--embedding requires --n")
        with _open_in(args.embedding) as f:
            phi = read_embedding(f, args.n)
        verdict = verify_red_embedding(G, args.n, phi)
        payload["embedding_valid"] = verdict.ok
        if not verdict.ok:
            payload["embedding_errors"] = verdict.errors[:10]
    _emit(payload)
    return EXIT_OK if payload.get("embedding_valid", True) else EXIT_REJECTED


def _cmd_decompose(args) -> int:
    G = _load_graph(args.infile)
    require_blue_triangle_free(G)
    dec = decompose(G, DecompositionParams.desk(args.n))
    verdict = verify_decomposition(G, dec)
    if not verdict:
        raise StageFailure(
            "decomposition-verification",
            "; ".join(verdict.errors[:5]),
            data={"errors": verdict.errors},
        )
    if args.cert_out is not None:
        with _open_out(args.cert_out) as f:
            f.write(dec.to_json())
            f.write("\n")
    _emit(
        {
            "status": "ok",
            "rounds": dec.r,
            "snake_sizes": [sn.mask.bit_count() for sn in dec.snakes],
            "s_values": list(dec.s_values),
            "sparse_vertices": dec.sparse_mask.bit_count(),
        }
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    G = _load_graph(args.infile)
    try:
        phi = solve(G, args.n, SolverParams.desk(args.n))
    except (HypothesisError, StageFailure) as e:
        payload, code = _failure(e)
        # on desk-sized inputs an exhaustive search can tell a failed
        # construction apart from a genuinely cube-free colouring
        if G.n_vertices <= 64 and args.n <= 4:
            if not contains_red_cube(G, args.n).found:
                payload["definitive"] = (
                    f"no red Q_{args.n} exists in this graph"
                )
        _emit(payload)
        return code
    if args.embedding_out is not None:
        with _open_out(args.embedding_out) as f:
            write_embedding(phi, args.n, f)
        _emit({"status": "ok", "n": args.n, "graph_vertices": G.n_vertices})
    else:
        write_embedding(phi, args.n, sys.stdout)
    return EXIT_OK


def _cmd_oracle_ramsey(args) -> int:
    try:
        verdict = exhaustive_ramsey(args.n, args.N, mode=args.mode)
    except ValueError as e:
        _emit({"status": "refused", "message": str(e)})
        return EXIT_PARSE
    payload = {
        "status": "ok",
        "n": verdict.n,
        "N": verdict.N,
        "holds": verdict.holds,
        "checked": verdict.checked,
        "mode": verdict.mode,
    }
    if verdict.witness is not None:
        payload["witness_blue_edges"] = [
            [u, v]
            for u in range(verdict.witness.n_vertices)
            for v in range(u + 1, verdict.witness.n_vertices)
            if verdict.witness.is_blue(u, v)
        ]
    _emit(payload)
    return EXIT_OK


def _cmd_oracle_contains_cube(args) -> int:
    G = _load_graph(args.infile)
    res = contains_red_cube(G, args.n)
    payload = {"status": "ok", "found": res.found, "nodes": res.nodes}
    if res.embedding is not None:
        payload["embedding"] = {
            format_cube_vertex(z, args.n): v for z, v in res.embedding.items()
        }
    _emit(payload)
    return EXIT_OK


def _cmd_bandwidth_check(args) -> int:
    n = args.n
    order = bandwidth_order(range(1 << n))
    pos = {z: i for i, z in enumerate(order)}
    max_gap = 0
    for z in range(1 << n):
        for p in range(n):
            w = z ^ (1 << p)
            if w > z:
                max_gap = max(max_gap, abs(pos[z] - pos[w]))
    bound = bandwidth_bound(n)
    if max_gap > bound:
        raise StageFailure(
            "bandwidth-check",
            f"edge gap {max_gap} exceeds the bound {bound} at n={n}",
            data={"max_gap": max_gap, "bound": bound},
        )
    _emit({"status": "ok", "n": n, "max_gap": max_gap, "bound": bound})
    return EXIT_OK


def _at_least(low: int):
    """An argparse type: an int of at least ``low``, else misuse."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def _probability(text: str) -> float:
    """The argparse type of ``--p``: a float in [0, 1], else misuse."""
    if not 0 <= float(text) <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return float(text)


class _Parser(argparse.ArgumentParser):
    # command line misuse is an input problem, same exit code as a bad file
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuberamsey",
        description=(
            "Red hypercubes in blue-triangle-free colourings: generators, "
            "decomposition, embedding, and exhaustive small-case oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen-lower-bound",
        help="two red cliques of size 2^n - 1 joined completely in blue",
    )
    p.add_argument("--n", type=_at_least(0), required=True, help="cube dimension")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen_lower_bound)

    p = sub.add_parser("gen-random", help="random triangle-free-blue colouring")
    p.add_argument("--n", type=_at_least(0), required=True, help="cube dimension")
    p.add_argument(
        "--vertices", type=_at_least(0), help="number of vertices (default 2^(n+2))"
    )
    p.add_argument(
        "--blue-model",
        choices=["bipartite", "triangle-free-greedy"],
        required=True,
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--p", type=_probability, help="bipartite blue edge probability (default 0.5)"
    )
    p.add_argument(
        "--blue-edges",
        type=_at_least(0),
        help="target blue edge count for the greedy model (default vertices/8)",
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen_random, misuse=p.error)

    p = sub.add_parser("check", help="inspect a colouring, optionally an embedding")
    p.add_argument("--in", dest="infile", required=True, help="graph file, - for stdin")
    p.add_argument("--embedding", help="embedding file to verify against the graph")
    p.add_argument("--n", type=_at_least(0), help="cube dimension of the embedding")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="split into a sparse part and snakes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=_at_least(1), required=True, help="target cube dimension")
    p.add_argument("--cert-out", help="write the decomposition as JSON")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("solve", help="embed a red n-cube")
    p.add_argument("--in", dest="infile", required=True)
    # SolverParams.desk has no dense-route schedule below n = 2
    p.add_argument("--n", type=_at_least(2), required=True)
    p.add_argument(
        "--embedding-out",
        help="write the embedding here; without it the lines go to stdout",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive small-case searches")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("ramsey", help="sweep all colourings of K_N")
    q.add_argument("--n", type=_at_least(1), required=True, help="cube dimension")
    q.add_argument("--N", type=int, required=True, help="complete graph size")
    q.add_argument(
        "--mode", choices=["auto", "plain", "canonical"], default="auto"
    )
    q.set_defaults(func=_cmd_oracle_ramsey)

    q = osub.add_parser("contains-cube", help="search one graph for a red cube")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--n", type=_at_least(0), required=True)
    q.set_defaults(func=_cmd_oracle_contains_cube)

    p = sub.add_parser(
        "bandwidth-check",
        help="largest index gap across a cube edge in the embedding order",
    )
    p.add_argument("--n", type=_at_least(0), required=True)
    p.set_defaults(func=_cmd_bandwidth_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CubeRamseyError as e:
        payload, code = _failure(e)
        _emit(payload)
        return code
    except OSError as e:
        _emit({"status": "io-error", "message": str(e)})
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
