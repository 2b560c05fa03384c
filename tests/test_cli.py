import json
import re
from pathlib import Path

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
from commham.verifier import Certificate, prepare, verify

from reference import per_plaquette_dict


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
    raw = per_plaquette_dict(gen_toric(LatticeSpec(3, 3)))
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
    raw = per_plaquette_dict(gen_toric(LatticeSpec(3, 3)))
    if field in ("lx", "ly"):
        raw["lattice"][field] = value
    else:
        raw["terms"][-1]["plaquette"]["xy".index(field)] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(FormatError, match="is not an integer"):
        load_model(path)
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize(
    "entry", [[-1.0, 0.0, 99.0], [True, False], [1.0]], ids=["three numbers", "bools", "one number"]
)
def test_model_malformed_matrix_entry_rejected(tmp_path, entry):
    # complex(c[0], c[1]) would read [-1, 0, 99] as -1 and [true, false] as 1
    path = tmp_path / "m.json"
    raw = per_plaquette_dict(gen_toric(LatticeSpec(3, 3)))
    raw["terms"][1]["matrix"][2][5] = entry
    path.write_text(json.dumps(raw), encoding="utf-8")
    p = tuple(raw["terms"][1]["plaquette"])
    with pytest.raises(FormatError, match=re.escape(f"plaquette {p} entry (2, 5) = {entry!r}")):
        load_model(path)
    assert main(["check", str(path)]) == 2


def _write(path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda d: d["ids"].pop(), "ids has 8 entries, expected 9, one per plaquette"),
        (lambda d: d["ids"].append(0), "ids has 10 entries, expected 9"),
        (lambda d: d["ids"].__setitem__(4, 1.0), r"id 1.0 of plaquette \(1, 1\) is not an integer"),
        (lambda d: d["ids"].__setitem__(4, True), r"id True of plaquette \(1, 1\) is not an integer"),
        (lambda d: d["ids"].__setitem__(4, "1"), r"id '1' of plaquette \(1, 1\) is not an integer"),
        (lambda d: d["ids"].__setitem__(2, 2), r"id 2 of plaquette \(2, 0\) is outside \[0, 2\)"),
        (lambda d: d["ids"].__setitem__(2, -1), r"id -1 of plaquette \(2, 0\) is outside \[0, 2\)"),
        (lambda d: d["distinct"][1].pop(), r"distinct term 1 has shape \(15, 16\), expected 16x16"),
        (lambda d: d["distinct"].__setitem__(0, [[[0.0, 0.0]] * 8] * 8), r"distinct term 0 has shape \(8, 8\)"),
        (lambda d: d["distinct"][0][3].pop(), "malformed model data"),
        (lambda d: d["distinct"][0][2].__setitem__(5, [1.0]), r"distinct term 0 entry \(2, 5\) = \[1.0\]"),
        (lambda d: d.__setitem__("ids", {"0": 0}), "ids and distinct must be lists"),
        (lambda d: d.__setitem__("distinct", []), "distinct not empty"),
        (lambda d: d.pop("ids"), "malformed model data"),
        (lambda d: d.__setitem__("terms", []), "either terms or ids and distinct"),
    ],
    ids=[
        "ids short", "ids long", "id float", "id bool", "id string", "id past the rows", "id negative",
        "row missing", "matrix 8x8", "ragged matrix", "bad entry", "ids not a list", "no rows", "no ids",
        "both formats",
    ],
)
def test_model_file_distinct_format_rejected(tmp_path, edit, match):
    # toric 4x4 open: 9 plaquettes, (1, 1) the fifth, 2 distinct terms
    data = model_to_dict(gen_toric(LatticeSpec(4, 4)))
    edit(data)
    path = _write(tmp_path / "m.json", data)
    with pytest.raises(FormatError, match=match):
        load_model(path)
    assert main(["check", path]) == 2


@pytest.mark.parametrize(
    "m",
    [
        gen_toric(LatticeSpec(6, 4, "periodic")),
        gen_random(LatticeSpec(4, 4, "periodic"), 5, "signed-toric"),
        gen_random(LatticeSpec(4, 3), 1, "rotated-classical"),
        gen_random(LatticeSpec(3, 4), 2, "diagonal-field"),
    ],
    ids=["toric", "signed-toric", "rotated-classical", "diagonal-field"],
)
def test_per_plaquette_file_loads_as_generated(tmp_path, m):
    # a file with one matrix per plaquette loads to the generated model's
    # ids, distinct rows and verdict; written back, it holds each term once
    old = _write(tmp_path / "old.json", per_plaquette_dict(m))
    loaded = load_model(old)
    assert loaded.spec == m.spec and loaded.ids.tolist() == m.ids.tolist()
    assert loaded.distinct.tobytes() == m.distinct.tobytes()
    prep, prep2 = prepare(m), prepare(loaded)
    zeros = Certificate(dict.fromkeys(prep.f_black, 0), dict.fromkeys(prep.f_white, 0))
    a, b = verify(prep, zeros), verify(prep2, zeros)
    assert (a.accept, a.omega.log2_magnitude) == (b.accept, b.omega.log2_magnitude)
    new = tmp_path / "new.json"
    save_model(loaded, new)
    assert len(json.loads(new.read_text())["distinct"]) == len(m.distinct)
    assert new.stat().st_size <= Path(old).stat().st_size


def test_gen_writes_each_distinct_term_once(tmp_path, capsys):
    # toric 64x64: two distinct terms and 4096 ids, a file under 100 KB
    path = tmp_path / "t64.json"
    assert main(["gen", "--model", "toric", "--lx", "64", "--ly", "64", "--boundary", "periodic", "-o", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}: 4096 terms, 2 distinct, on 4096 qubits\n"
    assert path.stat().st_size < 100 * 1024
    m = load_model(path)
    assert m.ids.tolist() == gen_toric(LatticeSpec(64, 64, "periodic")).ids.tolist() and len(m.distinct) == 2


@pytest.mark.parametrize("label", [True, 1.7, 1.0, "1"])
def test_certificate_non_integer_label_rejected(tmp_path, label):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"alpha": {"1,1": label}, "beta": {}}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_certificate(path)


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_certificate_repeated_vertex_rejected(tmp_path, side):
    # "1,1" and "01,1" name one vertex; the second must not replace the first
    path = tmp_path / "c.json"
    path.write_text(json.dumps({side: {"1,1": 0, "01,1": 1}}), encoding="utf-8")
    with pytest.raises(FormatError, match="'01,1' names vertex \\(1, 1\\) a second time"):
        load_certificate(path)


@pytest.mark.parametrize("key", ["1_0,2", " 3,+4", "\u0663,1", "-1,2", "1,2,3", "1", "1, 2", "1,2\n", ""])
def test_certificate_key_not_two_decimal_coordinates_rejected(tmp_path, key):
    # only the ASCII digits that certificate_to_dict writes; int() would take "1_0", " +4" and "\u0663"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"alpha": {"0,0": 0, key: 1}, "beta": {}}), encoding="utf-8")
    with pytest.raises(FormatError, match=f"alpha key {re.escape(repr(key))} is not two decimal coordinates"):
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
    raw = per_plaquette_dict(gen_toric(LatticeSpec(3, 3)))
    data_path = tmp_path / "m.json"
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


@pytest.mark.parametrize("per_plaquette", [False, True], ids=["distinct", "per-plaquette"])
def test_check_non_finite_exit_2(tmp_path, capsys, per_plaquette):
    # JSON NaN loads as a float; it must not reach "commuting: ok"
    m = gen_toric(LatticeSpec(3, 3))
    data = per_plaquette_dict(m) if per_plaquette else model_to_dict(m)
    matrix = data["terms"][0]["matrix"] if per_plaquette else data["distinct"][0]
    matrix[0][0] = [float("nan"), 0.0]
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


def test_gen_unwritable_output_exit_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "m.json")
    assert main(["gen", "--model", "toric", "--lx", "3", "--ly", "3", "-o", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_prove_output_directory_exit_2(tmp_path, capsys):
    # the search finishes, then the certificate cannot be written to a directory
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(3, 3)), mfile)
    assert main(["prove", mfile, "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_prove_greedy_bad_restarts_exit_2(tmp_path):
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(3, 3)), mfile)
    assert main(["prove", mfile, "--greedy", "--restarts", "-1",
                 "-o", str(tmp_path / "c.json")]) == 2
    assert not (tmp_path / "c.json").exists()


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


def test_oracle_sum_check_24_qubits(tmp_path, capsys):
    # N is not capped: the 6x4 strip has 16 certificate bits and traces in
    # milliseconds
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(6, 4)), mfile)
    assert main(["oracle", mfile, "--sum-check"]) == 0
    out = capsys.readouterr().out
    assert "layer_trace: 512" in out
    assert "sum_matches_trace: ok" in out


def test_oracle_sum_check_counts_live_certificates(tmp_path, capsys):
    # toric 4x4 open: half of its 256 certificates annihilate a plaquette
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(4, 4)), mfile)
    assert main(["oracle", mfile, "--sum-check"]) == 0
    out = capsys.readouterr().out
    assert "certificate_sum: 128 over 128 certificates that annihilate no plaquette" in out


def test_oracle_beyond_float64_exit_2(tmp_path, capsys):
    # the layer trace of toric 4x1100 open, 2**1103, overflows float64
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(4, 1100)), mfile)
    assert main(["oracle", mfile]) == 2
    assert "float64" in capsys.readouterr().err


def test_oracle_over_cap_exit_2(tmp_path, capsys):
    # the 6x6 torus exceeds the kernel's open-wire bound
    mfile = str(tmp_path / "m.json")
    save_model(gen_toric(LatticeSpec(6, 6, "periodic")), mfile)
    assert main(["oracle", mfile]) == 2
    assert "open wires" in capsys.readouterr().err
    assert main(["oracle", mfile, "--cap", "30"]) == 2  # the flag is gone
