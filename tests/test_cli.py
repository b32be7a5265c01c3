import hashlib
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time

import pytest

from tamegal import cli, groups


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "SD:7,3,2")
    assert code == 0
    rep = last_json(out)
    assert rep["command"] == "classify"
    assert rep["result"]["hg_real"] is True
    assert rep["result"]["frobenius_decomposition"] == [7, 3]

    code, out, _ = run_cli(capsys, "classify", "C1")
    assert last_json(out)["result"]["is_trivial"] is True

    code, out, _ = run_cli(capsys, "classify", "Q16")
    rep = last_json(out)["result"]
    assert rep["hg_real"] is False and rep["hg_sqrt_minus1"] is True


def test_obstructions_command(capsys):
    code, out, _ = run_cli(capsys, "obstructions", "X:C2*C2")
    assert code == 0
    assert last_json(out)["result"][0]["kind"] == "NonCyclicAbelian"


def test_local_cyclic_and_oracle(capsys):
    code, out, _ = run_cli(capsys, "local-cyclic", "7", "6", "6")
    assert code == 0 and last_json(out)["result"]["exists"] is True
    code, out, _ = run_cli(capsys, "local-cyclic", "7", "4", "4")
    assert last_json(out)["result"]["exists"] is False

    code, out, _ = run_cli(capsys, "oracle", "--p", "5", "--d", "3", "--v", "1", "--w", "1")
    assert last_json(out)["result"] == {"e": 3, "f": 2, "f0": 2, "total_degree": 6}


def test_tame_pairs_command(capsys):
    code, out, _ = run_cli(capsys, "tame-pairs", "Q8", "3")
    rep = last_json(out)["result"]
    assert code == 0 and rep["count"] > 0
    code, out, _ = run_cli(capsys, "tame-pairs", "Q8", "5")
    assert last_json(out)["result"]["count"] == 0


def test_grunwald_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "grunwald", "S3", "--at", "7,3,1", "--at", "11,1,2")
    rep = last_json(out)["result"]
    assert code == 0 and rep["all_feasible"] is True

    code, out, _ = run_cli(capsys, "grunwald", "C4", "--at", "7,4,1")
    assert last_json(out)["result"]["all_feasible"] is False

    batch = tmp_path / "b.json"
    batch.write_text(json.dumps(["p=5,e=4,f=1"]))
    code, out, _ = run_cli(capsys, "grunwald", "C4", "--batch", str(batch))
    assert last_json(out)["result"]["all_feasible"] is True

    code, _, err = run_cli(capsys, "grunwald", "C4")
    assert code == 1 and "usage error" in err


def test_specialize_command(capsys):
    code, out, _ = run_cli(capsys, "specialize", "d=9,m=1,c=1", "--t0", "7", "--p", "7")
    rep = last_json(out)["result"]
    assert rep["predicted_e"] == 9 and rep["predicted_f"] == 3


def test_verify_beckmann_stream_and_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-beckmann",
        "d=3,m=1,c=1",
        "--primes", "2000", "--samples", "25", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["result"]["disagreements"] == 0
    assert summary["result"]["samples"] == 25
    reports = [json.loads(line) for line in lines[:-1]]
    assert len(reports) == 25
    assert all(r["agree"] or r["exceptional"] for r in reports)


def test_verify_beckmann_determinism(capsys):
    args = ("verify-beckmann", "d=9,m=1,c=1", "--primes", "3000", "--samples", "30",
            "--seed", "7", "--quiet")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify-beckmann", "d=9,m=1,c=1", "--primes", "3000",
                         "--samples", "30", "--seed", "8", "--quiet")
    assert out3 != out1


def test_verify_beckmann_exit_code_on_disagreement(capsys, monkeypatch):
    def fake_sweep(cover, primes, samples, seed):
        return [], {"cover": cover.spec_string(), "samples": 0, "agree": 0,
                    "exceptional": 0, "disagreements": 1}

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    code, out, _ = run_cli(capsys, "verify-beckmann", "d=3,m=1,c=1", "--samples", "1")
    assert code == 2


def test_strata_and_lemma32_csv(capsys):
    code, out, _ = run_cli(capsys, "strata", "9", "3", "--bound", "100", "--csv")
    assert code == 0
    assert [int(x) for x in out.split()] == [7, 13, 31, 43, 61, 67, 79, 97]

    code, out, _ = run_cli(capsys, "strata", "9", "3", "--bound", "100")
    rep = last_json(out)["result"]
    assert rep["count"] == 8 and rep["predicted_density"] == "1/3"

    code, out, _ = run_cli(capsys, "lemma32-set", "3", "5", "--bound", "50")
    assert last_json(out)["result"]["primes"] == [11, 41]


def test_biquad_and_sum_two_squares(capsys):
    code, out, _ = run_cli(capsys, "biquad-split", "3", "5", "7")
    assert last_json(out)["result"]["split_subfields"] == [3]

    code, out, _ = run_cli(capsys, "sum-two-squares", "13")
    rep = last_json(out)["result"]
    assert rep["embeddable"] is True and rep["degenerate"] is False

    code, out, _ = run_cli(capsys, "sum-two-squares", "9/16")
    rep = last_json(out)["result"]
    assert rep["embeddable"] is True and rep["degenerate"] is True

    code, out, _ = run_cli(capsys, "sum-two-squares", "-3")
    assert last_json(out)["result"]["embeddable"] is False


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "classify", "Zoo")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "local-cyclic", "7", "6", "4")[0] == 1
    assert run_cli(capsys, "sum-two-squares", "0")[0] == 1
    assert run_cli(capsys, "--json", "classify", "S3")[0] == 1


@pytest.mark.parametrize("spec", ["Q2048", "S5", "S6", "A6"])
def test_family_specs_up_to_their_constructors_bounds_classify(capsys, spec):
    code, out, _ = run_cli(capsys, "classify", spec)
    assert code == 0 and last_json(out)["result"]["group_label"] == spec


@pytest.mark.parametrize("spec, bound", [
    ("Q12", "2-power in 8..2048"), ("Q4096", "2-power in 8..2048"),
    ("S7", "m! <= 2048"), ("A2", "3 <= m"), ("A7", "m!/2 <= 2048"),
])
def test_family_specs_beyond_their_constructors_bounds_exit_1(capsys, spec, bound):
    code, _, err = run_cli(capsys, "classify", spec)
    assert code == 1 and bound in err


def test_malformed_local_specs_exit_1(capsys, tmp_path):
    # input faults, so usage errors and not internal defects
    batch = tmp_path / "b.json"
    for content in ([{"p": 7, "e": 3}], [{"p": None, "e": 3, "f": 1}], [5], {"p": 7}, 5, ["7,3"],
                    [{"p": 7.9, "e": 3, "f": 1}], [{"p": 7, "e": True, "f": 1}],
                    [{"p": 7, "e": 3, "f": 1, "D": 5}], [{"p": 7, "e": 3, "f": 1, "D": ["S3"]}],
                    [{"p": "7.0", "e": 3, "f": 1}], [{"p": 7, "e": "+3", "f": 1}],
                    [{"p": 7, "e": 3, "f": [1]}], [{"p": 7, "e": 3, "f": 1.0}],
                    [{"p": 7, "e": 3, "f": 1, "x": 1}], [{"p": 7, "e": 3, "f": 1, "d": "S3"}]):
        batch.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, "grunwald", "S3", "--batch", str(batch))
        assert code == 1 and out == "" and "usage error" in err, content
    for at in ("7,3", "7,3,1,1", "7,x,1", "p=7,e=3", "7,+3,1", "p=7.9,e=3,f=1", "7,٣,1"):
        assert run_cli(capsys, "grunwald", "S3", "--at", at)[0] == 1, at


@pytest.mark.parametrize("argv, named", [
    (["specialize", "d=9,m=1,c=1", "--t0", "1/0", "--p", "7"], "'1/0'"),
    (["sum-two-squares", "1/0"], "'1/0'"),
    (["specialize", "d=9,m=1,c=1/0", "--t0", "7", "--p", "7"], "'1/0'"),
    (["verify-beckmann", "d=3,m=1,c=1/0", "--primes", "100", "--samples", "2"], "'1/0'"),
    (["grunwald", "C4", "--batch", "deep.json"], "'deep.json'"),
], ids=["t0", "sum-two-squares", "specialize-cover", "verify-beckmann-cover", "batch-nesting"])
def test_zero_denominators_and_deep_nesting_exit_1(capsys, tmp_path, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("deep.json").write_text("[" * 100000)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "usage error" in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["grunwald", "S3", "--at", "p=7,e=3,f=1,d=S3"], "unknown key 'd'"),
    (["grunwald", "S3", "--at", "p=7,p=5,e=3,f=1"], "repeated key 'p'"),
    (["grunwald", "S3", "--at", "p=7,e=3"], "missing a key"),
    (["grunwald", "S3", "--at", "p=7,e=3,f=1,"], "field ''"),
    (["specialize", "d=9,m=1,c=1,x=2", "--t0", "7", "--p", "7"], "unknown key 'x'"),
    (["specialize", "d=9,d=3,m=1,c=1", "--t0", "7", "--p", "7"], "repeated key 'd'"),
    (["specialize", "d=9,m=1,c=1,", "--t0", "7", "--p", "7"], "field ''"),
    (["specialize", "d=+9,m=1,c=1", "--t0", "7", "--p", "7"], "'+9'"),
    (["specialize", "d=9,m=1,c=\u0663", "--t0", "7", "--p", "7"], "'\u0663'"),
    (["specialize", "d=9,m=1,c=1", "--t0", "+7", "--p", "7"], "'+7'"),
    (["specialize", "d=9,m=1,c=1", "--t0", "7_0", "--p", "7"], "'7_0'"),
    (["sum-two-squares", "1_3"], "'1_3'"),
    (["verify-beckmann", "d=3,m=1_0,c=1", "--samples", "1"], "'1_0'"),
    (["classify", "C\u0663"], "'\u0663'"),
    (["classify", "SD:7,3,+2"], "'+2'"),
    (["classify", "SD:3_1,3,5"], "'3_1'"),
    (["tame-pairs", "Q8", "1_1"], "argument q: invalid integer value: '1_1'"),
    (["tame-pairs", "Q8", "+3"], "argument q: invalid integer value: '+3'"),
    (["strata", "\u0669", "3"], "argument d: invalid integer value"),
    (["verify-beckmann", "d=3,m=1,c=1", "--samples", "-1"], "sample count -1 is negative"),
    (["--seed", "1_0", "verify-beckmann", "d=3,m=1,c=1"], "argument --seed: invalid integer value"),
], ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_mistyped_fields_and_integers_exit_1_naming_them(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error") and named in err and "Traceback" not in err


def test_local_spec_field_types(capsys, tmp_path):
    # JSON integers and digit strings mix; a null D means no D
    batch = tmp_path / "b.json"
    batch.write_text(json.dumps([{"p": "7", "e": 3, "f": "1", "D": None}, " 7, 3 , 1 "]))
    code, out, _ = run_cli(capsys, "grunwald", "S3", "--batch", str(batch))
    assert code == 0
    problems = last_json(out)["result"]["problems"]
    assert [(q["p"], q["e"], q["f"], q["D"]) for q in problems] == [(7, 3, 1, None)] * 2


def test_non_integer_tables_exit_1(capsys, tmp_path):
    for i, doc in enumerate([
        '{"table": [[0, 1.7], [1.2, 0]]}',
        '{"table": [["0", "1"], ["1", "0"]]}',
        '{"table": [[false, true], [true, false]]}',
        '{"table": [[0, 99999999999999999999], [1, 0]]}',
        '{"order": "2", "table": [[0, 1], [1, 0]]}',
        '{"order": 2.0, "table": [[0, 1], [1, 0]]}',
    ]):
        path = tmp_path / f"t{i}.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 1 and out == "" and "usage error" in err, doc


def test_oracle_refuses_strong_pseudoprime(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on the bases 2..37
    code, out, err = run_cli(capsys, "oracle", "--p", "318665857834031151167461",
                             "--d", "3", "--v", "1", "--w", "1")
    assert code == 1 and out == ""
    assert "is not prime" in err


def test_oracle_refuses_unfactorable_modulus(capsys):
    # d = 300000000001220000000000407 >= psi_13 has no prime factor below 43
    code, out, err = run_cli(capsys, "oracle", "--p", "7", "--d", "300000000001220000000000407",
                             "--v", "1", "--w", "1")
    assert code == 1 and out == ""
    assert "300000000001220000000000407 cannot be factored" in err
    assert "primality" not in err and "Traceback" not in err


def test_strata_and_lemma32_refuse_moduli_beyond_int64(capsys):
    big = str(2**63 + 29)
    for argv in (["strata", big, "1"], ["lemma32-set", "3", big], ["lemma32-set", big, "3"]):
        code, out, err = run_cli(capsys, *argv, "--bound", "100")
        assert code == 1 and out == "", argv
        assert "below 2^63" in err and "Traceback" not in err, argv
    code, out, _ = run_cli(capsys, "strata", str(2**63 - 2), "1", "--bound", "100")
    assert code == 0 and last_json(out)["result"]["count"] == 0


@pytest.mark.parametrize("argv", [
    ["local-cyclic", "3", "0", "1"], ["strata", "0", "1"], ["strata", "-6", "2"],
], ids=["local-cyclic", "strata", "strata-negative"])
def test_degrees_below_one_exit_1_naming_d(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"d={argv[-2]} must be at least 1" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, cap", [
    (["strata", "9", "3", "--bound", str(10**18)], "sieve cap 10000000"),
    (["lemma32-set", "3", "5", "--bound", str(10**18)], "sieve cap 10000000"),
    (["verify-beckmann", "d=3,m=1,c=1", "--primes", str(10**18)], "sieve cap 10000000"),
    (["verify-beckmann", "d=3,m=1,c=1", "--samples", str(10**18)], "sample cap 1000000"),
], ids=["strata-bound", "lemma32-bound", "primes", "samples"])
def test_sieve_and_sample_sizes_above_the_cap_exit_1(capsys, argv, cap):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert cap in err and "Traceback" not in err


def test_decimal_exponent_beyond_the_int_limit_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "specialize", "d=3,m=1,c=1", "--t0", "1e100000000", "--p", "7")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "decimal exponent beyond 4300" in err and "Traceback" not in err


def test_cover_constant_beyond_the_int_string_limit_exits_1(capsys):
    # 55e4299 has 4301 digits, which the report could not print
    code, out, err = run_cli(capsys, "verify-beckmann", "d=3,m=1,c=55e4299", "--samples", "1")
    assert code == 1 and out == ""
    assert "more than 4300 digits" in err
    assert "Exceeds the limit" not in err and "Traceback" not in err


def test_global_flags_both_positions(capsys):
    _, out1, _ = run_cli(capsys, "--seed", "3", "verify-beckmann", "d=3,m=1,c=1",
                         "--primes", "1000", "--samples", "5", "--quiet")
    _, out2, _ = run_cli(capsys, "verify-beckmann", "d=3,m=1,c=1", "--primes", "1000",
                         "--samples", "5", "--quiet", "--seed", "3")
    assert out1 == out2
    assert json.loads(out1)["seed"] == 3


def test_console_entry_point_subprocess():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tamegal.cli", "classify", "S3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["hg_real"] is True


# sha256 of stdout for every command in the README's CLI block and for
# relabeled JSON tables of orders 244 and 1024, recorded before table
# validation became exact (verify-beckmann: after its inputs lost "threads"
# and its summary lost the "stratum_law" subreport; grunwald SD:13,3,3 while
# D= was decided by an isomorphism search).
STDOUT_SHA256 = {
    "classify SD:7,3,2": "6c09760bebbfd538311f9d6006f18de9f17179a04f1a439ca750c210e4f6aa80",
    "obstructions X:C2*C2": "98190fd1ea527b26617727b18413309e96a1edb06eb5dc3ca3796000f52386be",
    "local-cyclic 7 6 6": "342cbec563af70ed51ac2741f267814143c18a7b61c10a5d3157f13f273afb58",
    "tame-pairs Q8 3": "d4e0ab7bd1215ac6024ce3d1b32e78d24d3e1894ee844f8b1705bbaafa901515",
    "grunwald S3 --at 7,3,1 --at 11,1,2":
        "67f08ecf8b3712777bd9cf193ff4631bc374de166319dabd325b965699e6730a",
    "grunwald SD:13,3,3 --at p=3,e=13,f=3,D=SD:13,3,9 --at p=3,e=13,f=3,D=C39":
        "be58dd121491b2ae648d7929221f110979eafd75fd0918e6c27931bfd2f9c8fa",
    "specialize d=9,m=1,c=1 --t0 7 --p 7":
        "41a99876bb1557929adde9ad12a094b504408abb2c62f9b1205f5fccee3a09f7",
    "verify-beckmann d=3,m=1,c=1 --primes 10000 --samples 200 --seed 1":
        "1b341aa1feb83ebd12ab61f3096e7fbe217b69c585f6810833d1a22d435a0985",
    "oracle --p 5 --d 3 --v 1 --w 1": "5264f5c647c0701144713aa2f4369ed3bc74b0d2c6f24253ec49722f4a8579df",
    "strata 9 3 --bound 100000": "0613972da28825634160158b6f02acb8f827b6f0a16948ab4423c80ea74f1359",
    "lemma32-set 3 5 --bound 200": "0e417bc06d49c30bdc90e74f03e30595ca2598b58e5e172a223687990b457c6c",
    "biquad-split 3 5 7": "7b533c1ff1f90338185e6fea099ce0ba891abb75e3c72b13b24ee13ca0669ad4",
    "sum-two-squares 13/4": "dbfc14fca3801281c63ca9b94d2c8ced137d1884ecfa0e40589170000d814915",
    "classify t244.json": "ed187a788407234b8b3cd483f0ab764246543106967fa6838c2a5e886971bcc0",
    "obstructions t244.json": "15ba623b35a4efde715fa358ec5c1861239fa9a1c86a02f348516a1837e50550",
    "classify t1024.json": "32fde3f81d563b3e3e7f5dc521aeaed97b8565fb4734dae263f62c438af85dbb",
    "obstructions t1024.json": "fc03038e7d04960e16f101b8d915e58cfd83d24ea48571e7e4e1eabe97198cc0",
}


def _stdout_commands():
    """The commands of STDOUT_SHA256, writing their JSON tables to the
    current directory."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()]
    for spec in ("SD:61,4,11", "X:C8*D64"):
        name = _write_relabeled_table(spec)
        commands += [["classify", name], ["obstructions", name]]
    return commands


def _write_relabeled_table(spec):
    """Write the table of spec, relabeled by a shuffle seeded with its order,
    to t<order>.json in the current directory; returns the file name."""
    g = groups.parse_group_spec(spec)
    rest = list(range(1, g.order))
    random.Random(g.order).shuffle(rest)
    table = groups.relabeled(g, [0] + rest).table.tolist()
    name = f"t{g.order}.json"
    pathlib.Path(name).write_text(json.dumps({"order": g.order, "table": table}))
    return name


def test_stdout_is_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _stdout_commands()
    got = {}
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        got[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    assert got == STDOUT_SHA256


def test_calls_in_one_process_share_no_state(capsys, tmp_path, monkeypatch):
    # main reuses one parser, so no call may see the arguments of an earlier one
    monkeypatch.chdir(tmp_path)
    commands = _stdout_commands()
    i = commands.index(["grunwald", "S3", "--at", "7,3,1", "--at", "11,1,2"])
    commands.insert(i + 1, ["grunwald", "S3", "--at", "7,3,1"])
    beckmann = ["verify-beckmann", "d=3,m=1,c=1", "--primes", "1000", "--samples", "5"]
    commands += [
        ["--seed", "4", *beckmann],
        [*beckmann, "--seed", "5"],
        beckmann,
        ["--csv", "tame-pairs", "Q8", "3"],
        ["grunwald", "S3", "--at", "7,3,1", "--at", "5,3,2", "--csv"],
        ["--csv", "strata", "9", "3", "--bound", "100"],
        ["lemma32-set", "3", "5", "--bound", "200", "--csv"],
        ["obstructions", "X:C2*C2", "--csv"],
        ["tame-pairs", "Q8", "3"],
    ]
    first = [run_cli(capsys, *argv) for argv in commands]
    assert last_json(first[i + 1][1])["inputs"]["at"] == ["7,3,1"]
    assert [last_json(first[j][1])["seed"] for j in (-9, -8, -7)] == [4, 5, 0]
    assert not first[-6][1].startswith("{") and first[-1][1].startswith("{")
    for argv, want in zip(commands, first):
        assert run_cli(capsys, "classify", "Zoo")[0] == 1
        assert run_cli(capsys, *argv) == want, argv


# sha256 of classify stdout for groups whose Sylow shapes are generalized
# quaternion, dihedral, Klein or cyclic, and for a relabeled JSON table of
# X:Q16*SD:7,3,2, recorded while the shapes were read off a built subgroup.
SYLOW_STDOUT_SHA256 = {
    "classify Q8": "e1eb80ffcfc2bbc6ec37018a47fadfb9353d5b4a8a7a0641d7fc18800cb5ca35",
    "classify Q32": "23e55d0490b8dcc2f936a6908605134bd301d415bf41ac7cdd1927cc667cead4",
    "classify X:Q8*C3": "3cf4f1dad7f6ed1eebe309d6c83fe90e954ab4e212f95c9ce7c581392a863573",
    "classify X:Q16*D3": "e20ee52ff80af5a556048886ee30ebe0ecd79aa1716fbd893494abe29ff212d6",
    "classify X:Q8*Q8": "4bbb71c8fcaa04bb442ddc577d9012f15d0ec46fa9c2969b60c88ffb1c2fc7d8",
    "classify S4": "b07e504f787119ea42acc5dd527efeaf41596f422f3faf8b7a9513742220f05e",
    "classify A5": "c03012397861cad3b39d97019ec3ca4bd223bcab5a8b32093d9625ee9ce65a42",
    "classify SD:3,8,2": "fd922df7f17243f68ad3a7213396b03c9c77c6ae766d76f945853aa58e94a3e3",
    "classify t336.json": "96e4aaa123607dd0348cd5c9c1449414c66dc96088b7b140940db1af782cc90c",
}


def test_sylow_shapes_stdout_is_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _write_relabeled_table("X:Q16*SD:7,3,2") == "t336.json"
    got = {}
    for cmd in SYLOW_STDOUT_SHA256:
        code, out, _ = run_cli(capsys, *cmd.split())
        assert code == 0, cmd
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == SYLOW_STDOUT_SHA256


def test_internal_defect_exits_3(capsys, monkeypatch):
    def broken(p, d, v, w):
        raise ArithmeticError("order search failed")

    monkeypatch.setattr(cli, "kummer_local_invariants", broken)
    code, out, err = run_cli(capsys, "oracle", "--p", "5", "--d", "3", "--v", "1", "--w", "1")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert "Traceback" in err and "ArithmeticError: order search failed" in err


# sha256 of stdout for the output forms STDOUT_SHA256 leaves out: CSV rows,
# CSV before a JSON summary, no CSV rows at all, --quiet, and --csv on a
# command with no CSV form, recorded while each command was a branch of one
# if-chain.
CSV_STDOUT_SHA256 = {
    "--csv verify-beckmann d=3,m=1,c=1 --primes 1000 --samples 5":
        "add7484aa7303662b5f8cd7a26e83cc15a9ecbcb1e651029e697c75d85e41bbc",
    "verify-beckmann d=3,m=1,c=1 --primes 1000 --samples 5 --quiet":
        "e42035feb560756d347491e33290dfc7cbbe748226c76c77055b0c0ca52b20e8",
    "--csv classify S3": "918761b70201b52252bb075c3ce9c2eda02425d0d2755b09e0ac75d2af358901",
    "--csv tame-pairs Q8 3": "f7b4b4509e79ecf1e57442f7f2879eca8808bcf2554c8d3821fd10902646965d",
    "--csv grunwald S3 --at 7,3,1 --at 5,3,2":
        "0e28ac769d94ec94a84f2010ee7a0036c139224f262d01e802e8c31ca66e81c0",
    "--csv obstructions X:C2*C2": "708281665694df821cf55e170268f8dd42388b4bc5750217371c8dc9fcfb6354",
    "--csv obstructions S3": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "--csv strata 9 3 --bound 100": "683cd4e3e5d78a2276e00e92318e82fad065a0acbe8ca82ed184f8c1c1ee4c1d",
    "--csv lemma32-set 3 5 --bound 200":
        "a6f7077372f142e0b8fe521b66649243ed284417903ad68cf3be784264018aee",
}


def test_csv_and_quiet_stdout_is_byte_identical(capsys):
    got = {}
    for cmd in CSV_STDOUT_SHA256:
        code, out, _ = run_cli(capsys, *cmd.split())
        assert code == 0, cmd
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == CSV_STDOUT_SHA256


# sha256 of stdout for tame pairs, whose residue degrees were then found by a
# divide-down from ord(sigma), and for specializations that meet t = 0, meet
# nothing, meet t = infinity, sit on a cover with e_i = 1 and sit at an
# exceptional prime, recorded while the meeting branch point was found by one
# valuation per branch point.
PAIR_AND_MEETING_STDOUT_SHA256 = {
    "tame-pairs C2048 5": "1cfffa318ca42e28ff39be86819b852ec94d51da03221727059eb958e1ad8bdd",
    "tame-pairs SD:13,3,3 3": "234e92247300f8f176447c075f8f320220f9afec3319a31f3d6be34e06334346",
    "--csv tame-pairs D13 103": "558754c5ec520ea9e8564b555d2b5e7ce3eda51844c8bda5896f1dbfa398c2e4",
    "specialize d=9,m=1,c=1 --t0 49/3 --p 7":
        "cde8fd11b1e9b0af82ad03cddce5d7cd5a4c2210a57b7f424f7baa9ee62439b0",
    "specialize d=9,m=1,c=1 --t0 5 --p 7":
        "a9953f09e78a5d79d4edb51c6888e13f6ec6e84a8a76aeccc3776abe9c32e7b8",
    "specialize d=9,m=1,c=1 --t0 1/7 --p 7":
        "53802d2e161dab8c10ebbde54634c4a5480fd8837189f9a8caeee4b6ca66eb24",
    "specialize d=3,m=3,c=2 --t0 7 --p 7":
        "d4c2730067407e7ecd38d75636393befa9f92a023614bc384d90d5bf62184184",
    "specialize d=12,m=4,c=5 --t0 5 --p 5":
        "dd5dcfb3828d24855faf2de4b2f9af068e59ea9fd2430de978c21b457ea663d5",
}


def test_pair_and_meeting_stdout_is_byte_identical(capsys):
    got = {}
    for cmd in PAIR_AND_MEETING_STDOUT_SHA256:
        code, out, _ = run_cli(capsys, *cmd.split())
        assert code == 0, cmd
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PAIR_AND_MEETING_STDOUT_SHA256


# sha256 of stdout for trivial groups and moduli 1 and 2, for a specialization
# with a p-adic denominator, and for sweeps with a composite d and a rational
# c, recorded while numtheory split a rational at p by three functions and the
# order-1 and modulus-1 cases had branches of their own.
SPLIT_AND_TRIVIAL_STDOUT_SHA256 = {
    "classify C1": "700c85b630f51c7124e330bad4aa5317e669643dd1f99e780fd71a634079c659",
    "obstructions C1": "0e69c5348175eca9277cfd5690fbec3f92bc6f29727dbea80ed51b94c14e6766",
    "classify SD:1,4,3": "36d6fca2d3e7dcfcb11e566beb4ee13e31ca498bf28feab27937951c321036f9",
    "classify D1": "e8da835a05ff754ffee38b32c5f278e1a11f7d544a8c1c6eb26b11de8270a5c6",
    "classify X:C1*C1": "861c5617dbdb00248292b304bc313b74d9cc62b163e7085b39a7c0a6a7cb6931",
    "tame-pairs C1 3": "99319fa2453133461a6d4e9824d1258e7b52adc0389d163a56dfb3e03777e056",
    "grunwald C1 --at 3,1,1": "b004dc0ffac626ebac19c43df879cc37800a0a7cfde2cc48b220c6130e356bf8",
    "oracle --p 5 --d 1 --v 3 --w 2": "3f597086221c02fc74a0b4d1ce4929e1ec372a946183ac8ed4286279fc6d0817",
    "oracle --p 2 --d 1 --v 0 --w 1": "af2d547c3c9467923780c67b29afe43f2711e006884ee63ef31edea5a80a3805",
    "strata 1 1 --bound 100": "5073a16c0d347b15d02712a84439543a79fffa1149d93452a415c082876a6370",
    "strata 2 1 --bound 100": "bb2da503221b1565ce65a7bc2100c385e78eecff1095ed71006d5538e833221b",
    "specialize d=12,m=4,c=5 --t0 7/25 --p 7":
        "24984324ceb18e59b40ad8f06cd50d6a49b98fe8e112a26b6d6bbf6f22b3626a",
    "verify-beckmann d=60,m=6,c=3 --primes 100000 --samples 300 --seed 4":
        "e5061d004053f5f1cd6e8a6467b13ba22c5599e92e765e48b20ef83b9c8b9a5c",
    "--csv verify-beckmann d=12,m=4,c=5/9 --primes 1000 --samples 300 --seed 2":
        "0e810c146e690d046267f24717d6e2ada3477e18523b3da21f8f9704a5f99d8f",
}


def test_split_and_trivial_stdout_is_byte_identical(capsys):
    got = {}
    for cmd in SPLIT_AND_TRIVIAL_STDOUT_SHA256:
        code, out, _ = run_cli(capsys, *cmd.split())
        assert code == 0, cmd
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == SPLIT_AND_TRIVIAL_STDOUT_SHA256
