import json

import numpy as np
import pytest

from commham.cli import main
from commham.lattice import LatticeSpec
from commham.model import NonCommutingError, gen_random, gen_toric
from commham.serialize import (
    FormatError,
    load_certificate,
    load_model,
    model_to_dict,
    save_certificate,
    save_model,
)
from commham.verifier import Certificate, prepare


# ------------------------------------------------------------ serialization


@pytest.mark.parametrize("method", ["rotated-classical", "signed-toric", "diagonal-field"])
def test_model_roundtrip_bit_exact(tmp_path, method):
    spec = LatticeSpec(4, 4, "periodic") if method == "signed-toric" else LatticeSpec(3, 3)
    m = gen_random(spec, 3, method)
    path = tmp_path / "m.json"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.spec == m.spec
    for p in m.terms:
        assert np.array_equal(m.terms[p], m2.terms[p])


def test_certificate_roundtrip(tmp_path):
    cert = Certificate({(1, 1): 0, (2, 1): 1}, {(1, 2): 1})
    path = tmp_path / "c.json"
    save_certificate(cert, path)
    c2 = load_certificate(path)
    assert c2.alpha == cert.alpha and c2.beta == cert.beta


def test_malformed_model_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_model(path)
    path.write_text(json.dumps({"lattice": {"lx": 3}}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_model(path)


def test_model_duplicate_plaquette_rejected(tmp_path):
    # a second entry for a plaquette must not silently replace the first
    path = tmp_path / "m.json"
    save_model(gen_toric(LatticeSpec(3, 3)), path)
    raw = json.loads(path.read_text())
    raw["terms"].append({"plaquette": [0, 0], "matrix": [[[0.0, 0.0]] * 16] * 16})
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(FormatError, match="listed twice"):
        load_model(path)
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize(
    "field, value", [("lx", 3.7), ("ly", 3.0), ("lx", True), ("x", 0.5), ("y", 1.0), ("x", "1")]
)
def test_model_non_integer_coordinate_rejected(tmp_path, field, value):
    # int() would truncate 3.7 to 3 and load a different lattice
    path = tmp_path / "m.json"
    save_model(gen_toric(LatticeSpec(3, 3)), path)
    raw = json.loads(path.read_text())
    if field in ("lx", "ly"):
        raw["lattice"][field] = value
    else:
        raw["terms"][-1]["plaquette"]["xy".index(field)] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(FormatError, match="is not an integer"):
        load_model(path)
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize("label", [True, 1.7, 1.0, "1"])
def test_certificate_non_integer_label_rejected(tmp_path, label):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"alpha": {"1,1": label}, "beta": {}}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_certificate(path)


# --------------------------------------------------------------------- CLI


def test_gen_check_verify_prove_oracle_happy_path(tmp_path, capsys):
    mfile = str(tmp_path / "m.json")
    cfile = str(tmp_path / "c.json")
    assert main(["gen", "--model", "toric", "--lx", "4", "--ly", "4",
                 "--boundary", "periodic", "-o", mfile]) == 0
    assert main(["check", mfile]) == 0
    assert main(["prove", mfile, "--greedy", "--seed", "0", "-o", cfile]) == 0
    code = main(["verify", mfile, cfile])
    out = capsys.readouterr().out
    assert code == 0
    assert "log2_omega: -16" in out
    assert main(["oracle", mfile]) == 0


def test_gen_deterministic_with_seed(tmp_path):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["gen", "--model", "random", "--method", "signed-toric", "--seed", "3",
            "--lx", "4", "--ly", "4", "--boundary", "periodic"]
    assert main(args + ["-o", f1]) == 0
    assert main(args + ["-o", f2]) == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_gen_odd_periodic_exit_2(tmp_path):
    assert main(["gen", "--model", "toric", "--lx", "3", "--ly", "3",
                 "--boundary", "periodic", "-o", str(tmp_path / "x.json")]) == 2


def test_gen_bad_flags_exit_2(tmp_path):
    assert main(["gen", "--model", "nonsense", "--lx", "3", "--ly", "3",
                 "-o", str(tmp_path / "x.json")]) == 2


def test_check_noncommuting_exit_3(tmp_path, capsys):
    m = gen_toric(LatticeSpec(3, 3))
    data_path = tmp_path / "m.json"
    save_model(m, data_path)
    raw = json.loads(data_path.read_text())
    # overwrite one term with a single-qubit X, which breaks commutation
    x = np.zeros((16, 16))
    x[:8, 8:] = np.eye(8)
    x[8:, :8] = np.eye(8)
    raw["terms"][1]["matrix"] = [[[float(v), 0.0] for v in row] for row in x]
    data_path.write_text(json.dumps(raw))
    code = main(["check", str(data_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "violation" in out


@pytest.mark.parametrize(
    "spec", [LatticeSpec(4, 4, "periodic"), LatticeSpec(6, 4, "periodic"), LatticeSpec(5, 3)], ids=str
)
@pytest.mark.parametrize("e", [3, 7, 9, 11])
def test_check_agrees_with_prepare(tmp_path, capsys, spec, e, perturbed):
    # near-commuting terms can have ground projectors that do not commute
    # within the tolerance; `check` runs the projector check `prepare` runs
    m = perturbed(gen_random(spec, 0, "rotated-classical"), 10.0**-e, e)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    try:
        prepare(m)
        rejected = False
    except NonCommutingError:
        rejected = True
    assert (main(["check", path]) == 3) == rejected
    out = capsys.readouterr().out
    assert ("violation: ground projectors" in out) == rejected
    assert ("commuting: ok" in out) == (not rejected)


def test_check_malformed_exit_2(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{truncated")
    assert main(["check", str(path)]) == 2


def test_check_non_finite_exit_2(tmp_path, capsys):
    # JSON NaN loads as a float; it must not reach "commuting: ok"
    data = model_to_dict(gen_toric(LatticeSpec(3, 3)))
    data["terms"][0]["matrix"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "commuting: ok" not in capsys.readouterr().out


def test_verify_reject_exit_1(tmp_path):
    # frustrated signed stabilizer model: every certificate evaluates to zero
    from commham import lattice as lat
    from commham.model import gen_signed_toric

    spec = LatticeSpec(4, 4, "periodic")
    plist = lat.plaquettes(spec)
    blacks = {p: 1 for p in plist if lat.is_black(p)}
    blacks[(0, 0)] = -1
    whites = {p: 1 for p in plist if not lat.is_black(p)}
    m = gen_signed_toric(spec, black_signs=blacks, white_signs=whites)
    mfile, cfile = str(tmp_path / "m.json"), str(tmp_path / "c.json")
    save_model(m, mfile)
    prep = prepare(m)
    save_certificate(
        Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white}), cfile
    )
    assert main(["verify", mfile, cfile]) == 1


def test_verify_custom_threshold(tmp_path):
    m = gen_toric(LatticeSpec(4, 4, "periodic"))
    mfile, cfile = str(tmp_path / "m.json"), str(tmp_path / "c.json")
    save_model(m, mfile)
    prep = prepare(m)
    save_certificate(
        Certificate({v: 0 for v in prep.f_black}, {v: 0 for v in prep.f_white}), cfile
    )
    assert main(["verify", mfile, cfile]) == 0
    # omega = 2^-16 fails a 2^-10 bar
    assert main(["verify", mfile, cfile, "--threshold", str(2.0**-10)]) == 1
    for bad in ("nan", "inf", "0"):
        assert main(["verify", mfile, cfile, "--threshold", bad]) == 2


def test_verify_domain_mismatch_exit_2(tmp_path):
    m = gen_toric(LatticeSpec(3, 3))
    mfile, cfile = str(tmp_path / "m.json"), str(tmp_path / "c.json")
    save_model(m, mfile)
    save_certificate(Certificate({(0, 0): 0, (1, 1): 0}, {(1, 1): 0}), cfile)
    assert main(["verify", mfile, cfile]) == 2


def test_prove_not_found_exit_1(tmp_path):
    from commham import lattice as lat
    from commham.model import gen_signed_toric

    spec = LatticeSpec(4, 4, "periodic")
    plist = lat.plaquettes(spec)
    blacks = {p: 1 for p in plist if lat.is_black(p)}
    blacks[(1, 1)] = -1
    whites = {p: 1 for p in plist if not lat.is_black(p)}
    m = gen_signed_toric(spec, black_signs=blacks, white_signs=whites)
    mfile = str(tmp_path / "m.json")
    save_model(m, mfile)
    assert main(["prove", mfile, "--greedy", "--restarts", "2",
                 "-o", str(tmp_path / "c.json")]) == 1


def test_prove_oversized_exhaustive_exit_2(tmp_path):
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(4, 4, "periodic")), mfile)
    assert main(["prove", mfile, "--exhaustive", "--cap", "20",
                 "-o", str(tmp_path / "c.json")]) == 2


def test_oracle_sum_check(tmp_path, capsys):
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(3, 3)), mfile)
    assert main(["oracle", mfile, "--sum-check"]) == 0
    out = capsys.readouterr().out
    assert "integrality: ok" in out
    assert "sum_matches_trace: ok" in out


def test_oracle_over_cap_exit_2(tmp_path):
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(3, 3)), mfile)
    assert main(["oracle", mfile, "--cap", "4"]) == 2
