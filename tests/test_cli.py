import io
import json
import random

import pytest

from helpers import all_red_graph
from cuberamsey import cli
from cuberamsey.cli import (
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REJECTED,
    EXIT_STAGE,
    format_cube_vertex,
    main,
    parse_cube_vertex,
    read_embedding,
)
from cuberamsey.colored_graph import (
    ColouredGraph,
    Verdict,
    is_blue_triangle_free,
    random_bipartite_blue,
)
from cuberamsey.decomposition import Decomposition, verify_decomposition
from cuberamsey.colored_graph import verify_red_embedding
from cuberamsey.oracle import contains_red_cube


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_cube_vertex_format_round_trip():
    for n in range(1, 7):
        for z in range(1 << n):
            s = format_cube_vertex(z, n)
            assert len(s) == n
            assert parse_cube_vertex(s) == (z, n)
    # leftmost character is the first coordinate
    assert format_cube_vertex(1, 3) == "100"


def test_gen_lower_bound_and_check(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _ = _run(capsys, "gen-lower-bound", "--n", "3", "--out", str(path))
    assert code == EXIT_OK
    code, out = _run(capsys, "check", "--in", str(path))
    assert code == EXIT_OK
    payload = _last_json(out)
    assert payload["status"] == "ok"
    assert payload["vertices"] == (1 << 4) - 2
    assert payload["triangle_free"] is True


def test_gen_random_is_seeded(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen-random", "--n", "4", "--blue-model", "bipartite",
            "--seed", "7", "--p", "0.3"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_text() == b.read_text()
    assert main(["gen-random", "--n", "4", "--blue-model", "bipartite",
                 "--seed", "8", "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_text() != b.read_text()
    # without --p the bipartite model draws at probability 0.5
    assert main(["gen-random", "--n", "4", "--blue-model", "bipartite",
                 "--seed", "8", "--p", "0.5", "--out", str(a)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("n", [0, 1])
def test_gen_random_greedy_without_a_pair(capsys, n):
    # no pair to draw is no error: the edgeless host is printed, exit 0
    code, out = _run(capsys, "gen-random", "--n", "2", "--blue-model",
                     "triangle-free-greedy", "--seed", "0",
                     "--vertices", str(n), "--blue-edges", "1")
    assert (code, out) == (EXIT_OK, f"{n}\n")


def test_solve_round_trip_through_files(tmp_path, capsys):
    g = tmp_path / "g.txt"
    emb = tmp_path / "phi.txt"
    assert main(["gen-random", "--n", "6", "--blue-model",
                 "triangle-free-greedy", "--seed", "3",
                 "--out", str(g)]) == EXIT_OK
    capsys.readouterr()
    code, out = _run(capsys, "solve", "--in", str(g), "--n", "6",
                     "--embedding-out", str(emb))
    assert code == EXIT_OK
    assert _last_json(out)["status"] == "ok"
    code, out = _run(capsys, "check", "--in", str(g),
                     "--embedding", str(emb), "--n", "6")
    assert code == EXIT_OK
    assert _last_json(out)["embedding_valid"] is True


def test_solve_writes_embedding_to_stdout(tmp_path, capsys):
    g = tmp_path / "g.txt"
    G = all_red_graph(160)
    with open(g, "w") as f:
        G.to_text(f)
    code, out = _run(capsys, "solve", "--in", str(g), "--n", "6")
    assert code == EXIT_OK
    phi = read_embedding(io.StringIO(out), 6)
    assert verify_red_embedding(G, 6, phi).ok


def test_solve_reports_definitive_absence(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert main(["gen-lower-bound", "--n", "2", "--out", str(g)]) == EXIT_OK
    capsys.readouterr()
    code, out = _run(capsys, "solve", "--in", str(g), "--n", "2")
    assert code == EXIT_HYPOTHESIS
    payload = _last_json(out)
    assert payload["status"] == "hypothesis-failure"
    assert payload["definitive"] == "no red Q_2 exists in this graph"


def test_solve_settles_bridged_lower_bound_at_n4(tmp_path, capsys):
    # two red 15-cliques joined by one red edge, blue across otherwise,
    # labels shuffled: the 30-vertex host is below the solver's order
    # bound, and the oracle settles it by splitting at the bridge instead
    # of walking every partial Q_4 in both cliques
    rng = random.Random(4)
    half = 15
    u, v = rng.randrange(half), half + rng.randrange(half)
    perm = list(range(2 * half))
    rng.shuffle(perm)
    G = ColouredGraph.from_blue_edges(2 * half, [
        (perm[a], perm[b])
        for a in range(half) for b in range(half, 2 * half) if (a, b) != (u, v)
    ])
    g = tmp_path / "g.txt"
    with open(g, "w") as f:
        G.to_text(f)
    code, out = _run(capsys, "solve", "--in", str(g), "--n", "4")
    assert code == EXIT_HYPOTHESIS
    payload = _last_json(out)
    assert payload["status"] == "hypothesis-failure"
    assert payload["definitive"] == "no red Q_4 exists in this graph"


def test_solve_starved_dense_route_is_stage_failure(tmp_path, capsys):
    # complete bipartite blue on 160 vertices qualifies for n=6, but the
    # dense route is left too few vertices: exit 3, not the input's exit 2
    g = tmp_path / "g.txt"
    with open(g, "w") as f:
        random_bipartite_blue(160, 1.0, random.Random(0)).to_text(f)
    code, out = _run(capsys, "solve", "--in", str(g), "--n", "6")
    assert code == EXIT_STAGE
    payload = _last_json(out)
    assert payload["status"] == "stage-failure"
    assert payload["stage"] == "dense-material"
    assert payload["data"]["hypothesis"] == "order"


def test_decompose_certificate(tmp_path, capsys):
    g = tmp_path / "g.txt"
    cert = tmp_path / "dec.json"
    assert main(["gen-random", "--n", "4", "--blue-model", "bipartite",
                 "--seed", "1", "--p", "0.05", "--out", str(g)]) == EXIT_OK
    capsys.readouterr()
    code, out = _run(capsys, "decompose", "--in", str(g), "--n", "4",
                     "--cert-out", str(cert))
    assert code == EXIT_OK
    summary = _last_json(out)
    assert summary["status"] == "ok"
    dec = Decomposition.from_json(cert.read_text())
    assert dec.r == summary["rounds"]
    with open(g) as f:
        G = ColouredGraph.from_text(f)
    assert verify_decomposition(G, dec).ok


def test_decompose_rejects_blue_triangle(tmp_path, capsys):
    # blue K5: the triangle is reported with its witness, exit 2 as for
    # solve, and no certificate is written
    G = ColouredGraph.from_blue_edges(5, [(u, v) for u in range(5) for v in range(u)])
    g = tmp_path / "g.txt"
    cert = tmp_path / "dec.json"
    with open(g, "w") as f:
        G.to_text(f)
    code, out = _run(capsys, "decompose", "--in", str(g), "--n", "1",
                     "--cert-out", str(cert))
    assert code == EXIT_HYPOTHESIS
    payload = _last_json(out)
    assert payload["status"] == "hypothesis-failure"
    assert payload["hypothesis"] == "triangle-free"
    a, b, c = payload["witness"]
    assert G.is_blue(a, b) and G.is_blue(a, c) and G.is_blue(b, c)
    assert not cert.exists()


def test_decompose_reports_a_rejected_certificate(tmp_path, capsys, monkeypatch):
    # a certificate that the verifier rejects is the construction's
    # failure: exit 3 with the verifier's errors, and no certificate
    monkeypatch.setattr(cli, "verify_decomposition", lambda G, dec: Verdict(["forged"]))
    g = tmp_path / "g.txt"
    cert = tmp_path / "dec.json"
    with open(g, "w") as f:
        all_red_graph(16).to_text(f)
    code, out = _run(capsys, "decompose", "--in", str(g), "--n", "2",
                     "--cert-out", str(cert))
    assert code == EXIT_STAGE
    assert _last_json(out) == {
        "status": "stage-failure",
        "stage": "decomposition-verification",
        "details": "forged",
        "data": {"errors": ["forged"]},
    }
    assert not cert.exists()


def test_check_reads_the_graph_from_stdin(tmp_path, capsys, monkeypatch):
    # --in - reads the host from standard input, as a file would be read
    g = tmp_path / "g.txt"
    with open(g, "w") as f:
        ColouredGraph.from_blue_edges(6, [(0, 3), (1, 4), (2, 5), (0, 4)]).to_text(f)
    code, from_file = _run(capsys, "check", "--in", str(g))
    assert code == EXIT_OK
    monkeypatch.setattr("sys.stdin", io.StringIO(g.read_text()))
    code, from_stdin = _run(capsys, "check", "--in", "-")
    assert code == EXIT_OK
    assert _last_json(from_stdin) == _last_json(from_file)
    assert _last_json(from_stdin)["blue_edges"] == 4


def test_oracle_ramsey_payloads(capsys):
    # the whole payload: the sweep tests both classes on 2 vertices
    code, out = _run(capsys, "oracle", "ramsey", "--n", "1", "--N", "3")
    assert code == EXIT_OK
    assert _last_json(out) == {
        "status": "ok", "n": 1, "N": 3, "holds": True, "checked": 2,
    }
    # there is one sweep, and no flag to choose it
    with pytest.raises(SystemExit) as e:
        main(["oracle", "ramsey", "--n", "1", "--N", "3", "--mode", "plain"])
    assert e.value.code == EXIT_PARSE
    assert "unrecognized arguments: --mode" in capsys.readouterr().err

    code, out = _run(capsys, "oracle", "ramsey", "--n", "2", "--N", "6")
    assert code == EXIT_OK
    payload = _last_json(out)
    assert payload["holds"] is False
    G = ColouredGraph.from_blue_edges(
        6, [tuple(e) for e in payload["witness_blue_edges"]]
    )
    assert is_blue_triangle_free(G)[0]
    assert not contains_red_cube(G, 2).found


def test_oracle_ramsey_refusal(capsys):
    # n = 2 answers at any N, its cube-free levels ending at 7; n = 4
    # answers up to 30 at once, and at 31 would need the full class list
    # on 15 vertices, past the table
    code, out = _run(capsys, "oracle", "ramsey", "--n", "4", "--N", "30")
    assert code == EXIT_OK and _last_json(out)["holds"] is False
    code, out = _run(capsys, "oracle", "ramsey", "--n", "4", "--N", "31")
    assert code == EXIT_PARSE
    payload = _last_json(out)
    assert payload["status"] == "refused"
    assert "tabulated only to N = 9" in payload["message"]


@pytest.mark.parametrize("n, N", [(4, 31), (5, 63)])
def test_oracle_ramsey_refusal_names_the_request(capsys, n, N):
    # the refusal comes before any class list is built, and names the n
    # and N asked for and the level of 2^n - 1 vertices it would need
    code, out = _run(capsys, "oracle", "ramsey", "--n", str(n), "--N", str(N))
    assert code == EXIT_PARSE
    base = (1 << n) - 1
    assert _last_json(out) == {
        "status": "refused",
        "message": f"n = {n}, N = {N} needs the canonical classes on "
                   f"2^{n} - 1 = {base} vertices; canonical enumeration is "
                   f"tabulated only to N = 9 (1897 classes)",
    }


def test_oracle_contains_cube(tmp_path, capsys):
    g = tmp_path / "g.txt"
    with open(g, "w") as f:
        all_red_graph(8).to_text(f)
    code, out = _run(capsys, "oracle", "contains-cube", "--in", str(g),
                     "--n", "3")
    assert code == EXIT_OK
    payload = _last_json(out)
    assert payload["found"] is True
    assert set(payload["embedding"]) == {
        format_cube_vertex(z, 3) for z in range(8)
    }


def test_bandwidth_check(capsys):
    code, out = _run(capsys, "bandwidth-check", "--n", "4")
    assert code == EXIT_OK
    payload = _last_json(out)
    assert payload["max_gap"] <= payload["bound"] == 12


def test_parse_error_reporting(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("not-a-count\n")
    code, out = _run(capsys, "solve", "--in", str(g), "--n", "2")
    assert code == EXIT_PARSE
    payload = _last_json(out)
    assert payload["status"] == "parse-error"
    assert payload["line"] == 1
    assert "not-a-count" in payload["message"]


def test_missing_file_is_io_error(tmp_path, capsys):
    code, out = _run(capsys, "check", "--in", str(tmp_path / "absent.txt"))
    assert code == EXIT_PARSE
    assert _last_json(out)["status"] == "io-error"


def test_check_reports_a_blue_triangle(tmp_path, capsys):
    # a host that breaks the hypothesis is still described: check exits 0
    # and names a blue triangle
    g = tmp_path / "g.txt"
    with open(g, "w") as f:
        ColouredGraph.from_blue_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]).to_text(f)
    code, out = _run(capsys, "check", "--in", str(g))
    assert code == EXIT_OK
    payload = _last_json(out)
    assert payload["triangle_free"] is False
    assert payload["blue_triangle"] == [0, 1, 2]
    assert payload["blue_edges"] == 4 and payload["max_blue_degree"] == 2


def test_check_embedding_requires_dimension(tmp_path, capsys):
    g = tmp_path / "g.txt"
    emb = tmp_path / "e.txt"
    with open(g, "w") as f:
        all_red_graph(4).to_text(f)
    emb.write_text("00 0\n")
    code, out = _run(capsys, "check", "--in", str(g), "--embedding", str(emb))
    assert code == EXIT_PARSE
    assert _last_json(out)["status"] == "parse-error"


def test_argparse_misuse_exits_with_parse_code(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == EXIT_PARSE
    with pytest.raises(SystemExit) as e:
        main(["solve", "--in", "-"])  # missing --n
    assert e.value.code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--in", "-", "--n", "0"],
        ["solve", "--in", "-", "--n", "1"],
        ["decompose", "--in", "-", "--n", "0"],
        ["gen-lower-bound", "--n", "-1"],
        ["gen-random", "--n", "-1", "--blue-model", "bipartite", "--seed", "0"],
        ["check", "--in", "-", "--n", "0"],
        ["oracle", "ramsey", "--n", "0", "--N", "4"],
        ["oracle", "contains-cube", "--in", "-", "--n", "0"],
        ["bandwidth-check", "--n", "-1"],
        ["bandwidth-check", "--n", "two"],
    ],
    ids=" ".join,
)
def test_out_of_range_dimension_is_misuse(argv, capsys):
    # each command's smallest dimension less one (2 for solve, whose desk
    # parameters need n >= 2) is refused before any input is read, as
    # misuse, not a traceback
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == EXIT_PARSE
    assert "argument --n:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--p", "1.5"), ("--p", "nan"), ("--vertices", "-4"), ("--blue-edges", "-5")],
)
def test_out_of_range_generator_argument_is_misuse(flag, value, capsys):
    # exit 1 is check's rejection; a bad probability, vertex count or
    # blue edge count is misuse, refused with a usage line before the
    # generator runs
    with pytest.raises(SystemExit) as e:
        main(["gen-random", "--n", "3", "--blue-model", "bipartite",
              "--seed", "0", flag, value])
    assert e.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}:" in err


@pytest.mark.parametrize(
    "model, flag, value",
    [("bipartite", "--blue-edges", "5"), ("triangle-free-greedy", "--p", "0.9")],
)
def test_other_models_flag_is_misuse(model, flag, value, tmp_path, capsys):
    # each model reads only its own flag; the other model's is refused
    # with a usage line that names it, and no graph is written
    out = tmp_path / "host.txt"
    with pytest.raises(SystemExit) as e:
        main(["gen-random", "--n", "1", "--blue-model", model, "--seed", "0",
              flag, value, "--out", str(out)])
    assert e.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}:" in err
    assert not out.exists()


def test_removed_flags_are_misuse(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--threads", "2", "bandwidth-check", "--n", "2"])
    assert e.value.code == EXIT_PARSE
    for command in ("solve", "decompose"):
        with pytest.raises(SystemExit) as e:
            main([command, "--in", "-", "--n", "2", "--params", "desk"])
        assert e.value.code == EXIT_PARSE


def test_read_embedding_rejections():
    with pytest.raises(Exception) as e:
        read_embedding(io.StringIO("0 1 2\n"), 1)
    assert "needs" in str(e.value)
    with pytest.raises(Exception):
        read_embedding(io.StringIO("02 3\n"), 2)
    with pytest.raises(Exception):
        read_embedding(io.StringIO("01 3\n"), 3)
    with pytest.raises(Exception):
        read_embedding(io.StringIO("01 3\n01 4\n"), 2)
    assert read_embedding(io.StringIO("# note\n\n10 5\n00 0\n01 6\n11 7\n"), 2) == {
        1: 5, 0: 0, 2: 6, 3: 7
    }


def test_check_embedding_out_of_range_image(tmp_path, capsys):
    g = tmp_path / "g.txt"
    emb = tmp_path / "e.txt"
    g.write_text("8\n")  # eight vertices, no blue edge
    emb.write_text("00 99\n10 1\n01 2\n11 3\n")
    code, out = _run(capsys, "check", "--in", str(g), "--n", "2",
                     "--embedding", str(emb))
    assert code == EXIT_REJECTED == 1
    payload = _last_json(out)
    assert payload["embedding_valid"] is False
    assert any("out-of-range" in e for e in payload["embedding_errors"])


def test_check_embedding_missing_cube_vertices(tmp_path, capsys):
    # a map of 2 of the 4 vertices of Q_2 is unreadable input, not a
    # traceback out of the verifier
    g = tmp_path / "g.txt"
    emb = tmp_path / "e.txt"
    code, _ = _run(capsys, "gen-lower-bound", "--n", "2", "--out", str(g))
    assert code == EXIT_OK
    emb.write_text("00 0\n01 1\n")
    code, out = _run(capsys, "check", "--in", str(g), "--n", "2",
                     "--embedding", str(emb))
    assert code == EXIT_PARSE
    assert _last_json(out) == {
        "status": "parse-error",
        "message": "embedding misses 2 of the 4 cube vertices, first 10",
        "line": None,
    }


def test_check_embedding_missing_cube_vertices_at_n_40(tmp_path, capsys):
    # a one-line map of Q_40 is counted, not listed against all 2^40
    # cube vertices: the first gap is cube vertex 0
    g = tmp_path / "g.txt"
    emb = tmp_path / "e.txt"
    g.write_text("8\n")
    emb.write_text("1" * 40 + " 3\n")
    code, out = _run(capsys, "check", "--in", str(g), "--n", "40",
                     "--embedding", str(emb))
    assert code == EXIT_PARSE
    assert _last_json(out) == {
        "status": "parse-error",
        "message": "embedding misses 1099511627775 of the 1099511627776 cube "
                   "vertices, first " + "0" * 40,
        "line": None,
    }
