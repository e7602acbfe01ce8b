import json
from pathlib import Path

import pytest

from electroid_lab.cli import main
from electroid_lab.grassmann import plucker_from_json, plucker_to_json
from electroid_lab.network import example_five, from_json, grove_vector, to_json, y_network
from electroid_lab.temperley import embed, grove_from_json, grove_to_json
from electroid_lab.vectors import PluckerVector


@pytest.fixture
def y3_file(tmp_path):
    path = tmp_path / "y3.json"
    path.write_text(to_json(y_network(1, 1, 1)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_nc_enumerate(capsys):
    code, out = run(capsys, "nc", "enumerate", "--n", "4", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 14


def test_nc_dual_and_matching(capsys):
    code, out = run(capsys, "nc", "dual", "--partition", "1 4 6|2 3|5")
    assert code == 0 and out.strip() == "1 3|2|4 5|6"
    code, out = run(capsys, "nc", "matching", "--partition", "1 4 6|2 3|5")
    assert out.strip() == "(1,12)(2,7)(3,6)(4,5)(8,11)(9,10)"


def test_net_commands(capsys, y3_file):
    code, out = run(capsys, "net", "groves", y3_file)
    assert code == 0 and "1|2|3: 3" in out
    code, out = run(capsys, "net", "response", y3_file)
    assert code == 0 and "-1/3" in out
    code, out = run(capsys, "net", "medial", y3_file)
    assert out.strip() == "(1,4)(2,5)(3,6)"
    code, out = run(capsys, "net", "embed", y3_file)
    doc = json.loads(out)
    assert doc["coords"]["2,4"] == "3/1"
    assert doc["coords"]["1,4"] == "2/1"


def test_net_realize_roundtrip(capsys, tmp_path, y3_file):
    code, out = run(capsys, "net", "embed", y3_file)
    point = tmp_path / "point.json"
    point.write_text(out)
    code, out = run(capsys, "net", "realize", str(point))
    assert code == 0
    got = from_json(out)
    expected = plucker_from_json(point.read_text())
    assert embed(grove_vector(got)).projectively_equal(expected)


def test_net_realize_refuses_a_point_outside_gr_n_minus_1_2n(capsys, tmp_path):
    point = tmp_path / "gr36.json"
    point.write_text(plucker_to_json(PluckerVector.of(6, 3, {(1, 2, 3): 1})))
    code = main(["net", "realize", str(point)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: point is not a nonnegative member of the slice\n"


def test_poset_commands(capsys):
    code, out = run(capsys, "poset", "covers", "--matching", "(1,4)(2,5)(3,6)")
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    code, out = run(
        capsys,
        "poset",
        "leq",
        "--lower",
        "(1,2)(3,4)",
        "--upper",
        "(1,3)(2,4)",
    )
    assert code == 0 and out.strip() == "true"
    code, out = run(
        capsys,
        "poset",
        "leq",
        "--lower",
        "(1,3)(2,4)",
        "--upper",
        "(1,2)(3,4)",
    )
    assert code == 1 and out.strip() == "false"
    code, out = run(capsys, "poset", "hasse", "--n", "2")
    assert "digraph" in out


@pytest.mark.parametrize(
    "argv",
    [["verify", "all", "--n", "0"], ["verify", "counts", "--n", "-1"], ["poset", "hasse", "--n", "0"]],
)
def test_n_below_one_is_malformed_input(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --n must be at least 1, got {argv[-1]}\n"


def test_poset_hasse_refuses_n_above_its_limit(capsys):
    code = main(["poset", "hasse", "--n", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: the Hasse diagram lists all (2n-1)!! matchings; n is limited to 6, got 7\n"
    )


def test_perm_and_necklace(capsys):
    code, out = run(capsys, "perm", "of-matching", "--matching", "(1,7)(2,9)(3,8)(4,10)(5,6)")
    assert "g=[7,9,8,10,6,15,11,13,12,14]" in out
    assert "f=[6,8,7,9,5,14,10,12,11,13]" in out
    code, out = run(capsys, "necklace", "of-matching", "--matching", "(1,4)(2,6)(3,7)(5,8)")
    assert json.loads(out)[0] == "1,2,4"
    code, out = run(capsys, "necklace", "partitions", "--matching", "(1,4)(2,6)(3,7)(5,8)")
    assert json.loads(out)[0] == "1 4|2|3"


def test_perm_of_point(capsys, tmp_path, y3_file):
    point = tmp_path / "point.json"
    code, _ = run(capsys, "net", "embed", y3_file, "--output", str(point))
    assert code == 0
    code, out = run(capsys, "perm", "of-point", "--file", str(point))
    # the medial pairing of the three-spoke network is (1,4)(2,5)(3,6)
    assert code == 0 and out.strip() == "[3,4,5,6,7,8]"


def test_electroid_commands(capsys):
    code, out = run(capsys, "electroid", "of-matching", "--matching", "(1,4)(2,5)(3,6)")
    assert code == 0 and len(json.loads(out)) == 5
    code, out2 = run(capsys, "electroid", "oh", "--matching", "(1,4)(2,5)(3,6)")
    assert out == out2


def test_verify_counts(capsys):
    code, out = run(capsys, "verify", "counts", "--n", "4")
    assert code == 0
    assert "PASS counts: |NC_4| = 14" in out
    assert "PASS counts: |P_4| = 105" in out
    assert "PASS counts: unique-concordance at 4 = 32" in out


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "all", "--n", "2", "--trials", "5", "--seed", "1")
    assert code == 0
    assert "FAIL" not in out


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["net", "groves", str(bad)])
    assert code == 2
    code = main(["nc", "dual", "--partition", "1 3|2 4"])
    assert code == 2


def test_json_roundtrips():
    L = grove_vector(y_network(1, 2, 3))
    assert grove_from_json(grove_to_json(L)).coords == L.coords
    delta = embed(L)
    assert plucker_from_json(plucker_to_json(delta)).coords == delta.coords


def test_verify_all_deterministic_bytes(capsys):
    code1, out1 = run(capsys, "verify", "all", "--n", "3", "--trials", "20", "--seed", "9")
    code2, out2 = run(capsys, "verify", "all", "--n", "3", "--trials", "20", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "verify_all_n3_t20_s9": ["verify", "all", "--n", "3", "--trials", "20", "--seed", "9"],
    "poset_hasse_n4": ["poset", "hasse", "--n", "4"],
    "poset_covers_top3": ["poset", "covers", "--matching", "(1,4)(2,5)(3,6)"],
    "electroid_of_matching_n4": ["electroid", "of-matching", "--matching", "(1,6)(2,4)(3,8)(5,7)"],
    "electroid_oh_n4": ["electroid", "oh", "--matching", "(1,6)(2,4)(3,8)(5,7)"],
    "electroid_of_matching_n5": ["electroid", "of-matching", "--matching", "(1,7)(2,9)(3,8)(4,10)(5,6)"],
    "electroid_oh_n5": ["electroid", "oh", "--matching", "(1,7)(2,9)(3,8)(4,10)(5,6)"],
    "electroid_of_matching_n6": [
        "electroid", "of-matching", "--matching", "(1,8)(2,5)(3,11)(4,9)(6,12)(7,10)"
    ],
    "electroid_oh_n6": ["electroid", "oh", "--matching", "(1,8)(2,5)(3,11)(4,9)(6,12)(7,10)"],
    "poset_leq_n5": [
        "poset", "leq", "--lower", "(1,3)(2,9)(4,8)(5,6)(7,10)", "--upper", "(1,7)(2,9)(3,8)(4,10)(5,6)"
    ],
    "necklace_partitions": ["necklace", "partitions", "--matching", "(1,4)(2,6)(3,7)(5,8)"],
    "net_embed_example_five": ["net", "embed", "{example_five}"],
    "net_groves_top6_seeded": ["net", "groves", "{top6_seeded}"],
    "verify_quadratic_n4_t20_s9": ["verify", "quadratic", "--n", "4", "--trials", "20", "--seed", "9"],
    "verify_concordance_n5_t20_s9": ["verify", "concordance", "--n", "5", "--trials", "20", "--seed", "9"],
    "verify_realizability_n4_t20_s9": [
        "verify", "realizability", "--n", "4", "--trials", "20", "--seed", "9"
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(capsys, tmp_path, name):
    """Stdout is byte-identical to the recorded output in tests/golden."""
    path = tmp_path / "example_five.json"
    path.write_text(to_json(example_five()))
    top6 = GOLDEN / "top6_seeded.json"  # top(6) with weights drawn by random_weight, seed 6
    argv = [arg.format(example_five=path, top6_seeded=top6) for arg in GOLDEN_CASES[name]]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_broken_invariant_exits_3_with_one_line(capsys, tmp_path, monkeypatch, y3_file):
    from electroid_lab import realize
    from electroid_lab.errors import InvariantError

    assert not issubclass(InvariantError, ValueError)
    code, out = run(capsys, "net", "embed", y3_file)
    point = tmp_path / "point.json"
    point.write_text(out)
    # every reduction now expects to land back on its own stratum
    monkeypatch.setattr(realize, "_conjugated_window", lambda f, i: f)
    code = main(["net", "realize", str(point)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: internal invariant broken: reduction at index ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
