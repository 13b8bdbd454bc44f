import hashlib
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import cartan_target
from lqc.circuit import format_matrix_text, parse
from lqc.cli import main
from lqc.gates import builtin
from lqc.search import choose_k
from lqc.simulator import observe, run
from lqc.synthesis import projective_distance

ZERO_MASS_CIRCUIT = (
    "hybits 2\n"
    "DEFGATE FLIP2 2\n"
    "0,0 0,0 0,0 1,0\n"
    "0,0 0,0 1,0 0,0\n"
    "0,0 1,0 0,0 0,0\n"
    "1,0 0,0 0,0 0,0\n"
    "FLIP2 h0 h1\n"
)

# each BOOST 7 clears the isometry check, but 120 of them overflow the state
OVERFLOW_CIRCUIT = "qubits 1\nhybits 1\nH q0\n" + "BOOST 7 h0\n" * 120
# after 53 of them the amplitudes (about 1e161) stay finite, but their squares overflow
SQUARE_OVERFLOW_CIRCUIT = "qubits 1\nhybits 1\nH q0\n" + "BOOST 7 h0\n" * 53

CNOT_TEXT = (
    "dim 3 1\n"
    "1,0 0,0 0,0 0,0\n"
    "0,0 1,0 0,0 0,0\n"
    "0,0 0,0 0,0 1,0\n"
    "0,0 0,0 1,0 0,0\n"
)


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_empty_circuit(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 2\n")
        code, out, err = cli(capsys, "run", f)
        assert code == 0
        assert out == "# observable_mass = 1\n00\t1\n"
        fields = dict(line.split(" = ") for line in err.splitlines())
        assert list(fields) == [
            "circuit", "instructions", "wall_time_s", "format_s", "observable_mass"
        ]
        assert fields["instructions"] == "0" and fields["observable_mass"] == "1"
        assert float(fields["wall_time_s"]) >= 0 and float(fields["format_s"]) >= 0

    def test_stdout_matches_per_line_reference(self, tmp_path, capsys):
        # 2^15 outcomes after an H layer hold few distinct probabilities, so
        # the distinct values are formatted once and looked up per line
        rng = np.random.default_rng(13)
        lines = ["qubits 15", "hybits 1"] + [f"H q{i}" for i in range(15)]
        for _ in range(40):
            q = rng.integers(15)
            lines.append(
                (f"PHASE {rng.uniform(-3, 3):.17g} q{q}", f"T q{q}", f"X q{q}")[rng.integers(3)]
            )
        lines.insert(30, "CTRL q4 : BOOST 0.6 h0")
        text = "\n".join(lines) + "\n"
        dist = observe(run(parse(text)))
        distinct = np.unique(dist.probs).size
        assert 2 <= distinct <= dist.probs.size // 2

        f = put(tmp_path, "c.lqc", text)
        code, out, _ = cli(capsys, "run", f)
        assert code == 0
        want = ["# observable_mass = %.17g\n" % dist.observable_mass]
        want += ["%s\t%.17g\n" % (format(j, "015b"), p) for j, p in enumerate(dist.probs) if p]
        assert out.splitlines(keepends=True) == want

    def test_init_flag(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\nX q0\n")
        code, out, _ = cli(capsys, "run", f, "--init", "1")
        assert code == 0
        assert "0\t1\n" in out

    def test_off_metric_gate_exit_1(self, tmp_path, capsys):
        # an off-metric gate read from a file is a diagnostic with a line
        # number, not a synthesis failure
        f = put(tmp_path, "c.lqc", "hybits 1\nX h0\n")
        code, _, err = cli(capsys, "run", f)
        assert code == 1
        assert err.startswith("error: line 2, col 1:")
        assert "not metric-preserving" in err

    def test_non_finite_defgate_exit_1(self, tmp_path, capsys):
        # a NaN row used to run and print nan probabilities with exit 0
        f = put(tmp_path, "c.lqc", "qubits 1\nDEFGATE G 1\nnan,0 0,0\n0,0 1,0\nG q0\n")
        code, out, err = cli(capsys, "run", f)
        assert code == 1
        assert out == ""
        assert err == "error: line 5, col 1: gate G is not metric-preserving on target kind(s) 'q' (residual inf)\n"

    def test_init_length_mismatch(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\n")
        code, _, err = cli(capsys, "run", f, "--init", "01")
        assert code == 1
        assert "1 characters" in err

    def test_parse_error_names_line(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\nZ q7\n")
        code, _, err = cli(capsys, "run", f)
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = cli(capsys, "run", "/nonexistent/path.lqc")
        assert code == 1
        assert err.startswith("error:")

    def test_zero_mass_exit_2(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", ZERO_MASS_CIRCUIT)
        code, out, _ = cli(capsys, "run", f)
        assert code == 2
        assert out == "# observable_mass = 0\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["run"], ["sample", "--shots", "10", "--seed", "1"]])
    def test_non_finite_state_exit_4(self, tmp_path, capsys, argv):
        # this used to print nan probabilities, or `0\t10`, with exit 0
        f = put(tmp_path, "c.lqc", OVERFLOW_CIRCUIT)
        code, out, err = cli(capsys, argv[0], f, *argv[1:])
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err

    @pytest.mark.parametrize("text", [OVERFLOW_CIRCUIT, SQUARE_OVERFLOW_CIRCUIT],
                             ids=["amplitudes", "squares"])
    @pytest.mark.parametrize(
        "argv, want",
        [(["run"], 4), (["sample", "--shots", "10", "--seed", "1"], 4), (["verify"], 3)],
    )
    def test_overflow_gives_no_numpy_warning(self, tmp_path, capsys, argv, want, text):
        # the observe guard and the inf residual report the overflow; a numpy
        # warning on the way would escape here as an exception
        f = put(tmp_path, "c.lqc", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = cli(capsys, argv[0], f, *argv[1:])
        assert code == want
        if argv[0] == "verify":
            assert (out, err) == ("residual = inf\nFAIL\n", "")
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_memory_guard(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 25\n")
        code, _, err = cli(capsys, "run", f)
        assert code == 4
        assert "2^24" in err


class TestSample:
    def test_zero_shots(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\nH q0\n")
        code, out, _ = cli(capsys, "sample", f, "--shots", "0", "--seed", "1")
        assert code == 0
        assert out == ""

    def test_deterministic(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 2\nH q0\nH q1\n")
        a = cli(capsys, "sample", f, "--shots", "1000", "--seed", "42")
        b = cli(capsys, "sample", f, "--shots", "1000", "--seed", "42")
        assert a == b and a[0] == 0

    def test_uniform_within_5_sigma(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\nH q0\n")
        code, out, _ = cli(capsys, "sample", f, "--shots", "100000", "--seed", "9")
        assert code == 0
        counts = dict(line.split("\t") for line in out.strip().splitlines())
        sigma = (100000 * 0.25) ** 0.5
        for key in ("0", "1"):
            assert abs(int(counts[key]) - 50000) <= 5 * sigma

    def test_zero_mass_exit_2(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", ZERO_MASS_CIRCUIT)
        code, _, err = cli(capsys, "sample", f, "--shots", "10", "--seed", "1")
        assert code == 2

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        # this used to end in numpy's uncaught "expected non-negative integer"
        f = put(tmp_path, "c.lqc", "qubits 1\nH q0\n")
        code, out, err = cli(capsys, "sample", f, "--shots", "10", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_tau_matrix_passes(self, tmp_path, capsys):
        f = put(tmp_path, "tau.mat", format_matrix_text(builtin("TAU"), 1, 1))
        code, out, _ = cli(capsys, "verify", f)
        assert code == 0
        assert out.endswith("PASS\n")

    def test_identity_residual_zero(self, tmp_path, capsys):
        f = put(tmp_path, "i.mat", "dim 2 0\n1,0 0,0\n0,0 1,0\n")
        code, out, _ = cli(capsys, "verify", f)
        assert code == 0
        assert "residual = 0\n" in out

    def test_cnot_wrong_metric_fails(self, tmp_path, capsys):
        f = put(tmp_path, "cnot.mat", CNOT_TEXT)
        code, out, _ = cli(capsys, "verify", f)
        assert code == 3
        assert out.endswith("FAIL\n")

    def test_metric_override(self, tmp_path, capsys):
        unitary_header = CNOT_TEXT.replace("dim 3 1", "dim 4 0")
        f = put(tmp_path, "cnot.mat", unitary_header)
        code, out, _ = cli(capsys, "verify", f)
        assert code == 0 and out.endswith("PASS\n")
        code, out, _ = cli(capsys, "verify", f, "--metric", "3", "1")
        assert code == 3 and out.endswith("FAIL\n")

    def test_metric_override_wrong_size(self, tmp_path, capsys):
        f = put(tmp_path, "i.mat", "dim 2 0\n1,0 0,0\n0,0 1,0\n")
        code, _, err = cli(capsys, "verify", f, "--metric", "2", "2")
        assert code == 1

    def test_circuit_mode(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\nhybits 1\nCTRL q0 : BOOST 0.5 h0\n")
        code, out, _ = cli(capsys, "verify", f)
        assert code == 0
        assert out.endswith("PASS\n")

    def test_non_finite_matrix_fails(self, tmp_path, capsys):
        f = put(tmp_path, "nan.mat", "dim 1 1\nnan,0 0,0\n0,0 1,0\n")
        code, out, _ = cli(capsys, "verify", f)
        assert code == 3
        assert out == "residual = inf\nFAIL\n"

    def test_bad_matrix_file(self, tmp_path, capsys):
        f = put(tmp_path, "bad.mat", "dim 2 0\n1,0 0,0\n")
        code, _, err = cli(capsys, "verify", f)
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["verify"], ["synth", "--qubits", "1", "--hybits", "0"],
        ["approx", "--kind", "qubit", "--tol", "0.1", "--depth", "2"],
    ])
    @pytest.mark.parametrize("text, where", [
        ("dim 2 0\n1,0 0,0\n0,0  1;0\n", "line 3, col 6: matrix entry '1;0' is not 're,im'"),
        ("dim 2 0\n1,0 0,0\n0,0 1,0\n\n1,0 0,0\n", "line 5, col 1: more than 2 matrix rows"),
    ])
    def test_matrix_file_fault_has_line_and_column(self, tmp_path, capsys, command, text, where):
        f = put(tmp_path, "bad.mat", text)
        code, out, err = cli(capsys, command[0], f, *command[1:])
        assert (code, out, err) == (1, "", f"error: {where}\n")


class TestSynth:
    CZ = "dim 4 0\n1,0 0,0 0,0 0,0\n0,0 1,0 0,0 0,0\n0,0 0,0 1,0 0,0\n0,0 0,0 0,0 -1,0\n"

    def test_cz_single_instruction(self, tmp_path, capsys):
        f = put(tmp_path, "cz.mat", self.CZ)
        code, out, err = cli(capsys, "synth", f, "--qubits", "2", "--hybits", "0")
        assert code == 0
        body = [
            ln
            for ln in out.splitlines()
            if ln and not ln.lower().startswith(("qubits", "hybits"))
        ]
        # control and target are interchangeable for CZ
        assert body in (["CTRL q0 : Z q1"], ["CTRL q1 : Z q0"])
        assert "reconstruction_error = 0" in err

    def test_random_lorentz_roundtrip(self, tmp_path, capsys):
        from lqc.circuit import parse, to_matrix
        from lqc.core import RegisterLayout, metric_vector
        from lqc.gates import random_isometry_for_signs

        signs = metric_vector(RegisterLayout("qh"))
        A = random_isometry_for_signs(signs, seed=11)
        f = put(tmp_path, "a.mat", format_matrix_text(A, 2, 2))
        code, out, err = cli(capsys, "synth", f, "--qubits", "1", "--hybits", "1")
        assert code == 0
        R = to_matrix(parse(out))
        assert np.max(np.abs(R - A)) <= 1e-6
        resim = float(err.split("reconstruction_error = ")[1].split("\n")[0])
        assert resim <= 1e-6

    def test_one_to_matrix_and_compile_error_reported(self, tmp_path, capsys, monkeypatch):
        import lqc.circuit
        import lqc.cli
        import lqc.synthesis.compiler
        from lqc.core import RegisterLayout, metric_vector
        from lqc.gates import random_isometry_for_signs

        built = []
        original = lqc.circuit.to_matrix

        def counting(circuit):
            built.append(circuit)
            return original(circuit)

        for module in (lqc.circuit, lqc.cli, lqc.synthesis.compiler):
            monkeypatch.setattr(module, "to_matrix", counting)
        A = random_isometry_for_signs(metric_vector(RegisterLayout("qqh")), seed=4)
        f = put(tmp_path, "a.mat", format_matrix_text(A, 4, 4))
        code, _, err = cli(capsys, "synth", f, "--qubits", "2", "--hybits", "1", "--exact")
        assert code == 0
        assert len(built) == 1
        total = err.split("total\t")[1].split("\n")[0].split("\t")[1]
        assert f"reconstruction_error = {total}\n" in err

    def test_approx_mode_budget(self, tmp_path, capsys):
        H = np.kron(builtin("H"), np.eye(2))
        f = put(tmp_path, "h.mat", format_matrix_text(H, 4, 0))
        code, out, err = cli(
            capsys, "synth", f, "--qubits", "2", "--hybits", "0", "--approx", "0.05"
        )
        assert code == 0
        resim = float(err.split("reconstruction_error = ")[1].split("\n")[0])
        assert resim <= 0.05
        assert "budget_met = true" in err

    def test_signature_mismatch(self, tmp_path, capsys):
        f = put(tmp_path, "cz.mat", self.CZ)
        code, _, err = cli(capsys, "synth", f, "--qubits", "1", "--hybits", "1")
        assert code == 1
        assert "signature" in err

    def test_non_isometric_exit_3(self, tmp_path, capsys):
        f = put(tmp_path, "bad.mat", "dim 2 0\n1,0 1,0\n0,0 1,0\n")
        code, _, _ = cli(capsys, "synth", f, "--qubits", "1", "--hybits", "0")
        assert code == 3

    def test_emitted_gate_off_metric_exit_3(self, tmp_path, capsys, monkeypatch):
        # compile's own Circuit refuses an emitted gate whose residual is
        # above EPS_ISO; that is a synthesis failure, not a parse error
        from lqc import cli as cli_module
        from lqc.circuit import Circuit, Instruction

        def emit_off_metric(A, layout, tol=None):
            gate = builtin("BOOST", 0.5) + 1e-9
            return Circuit(layout, (Instruction("U0", (0,), matrix=gate),))

        monkeypatch.setattr(cli_module, "synth_compile", emit_off_metric)
        f = put(tmp_path, "i.mat", "dim 1 1\n1,0 0,0\n0,0 1,0\n")
        code, out, err = cli(capsys, "synth", f, "--qubits", "0", "--hybits", "1")
        assert code == 3
        assert out == ""
        assert "not metric-preserving" in err


class TestSearch:
    def test_explicit_k_digits(self, capsys):
        code, out, _ = cli(
            capsys, "search", "--n", "2", "--x", "11", "--chi", "1", "--k", "2"
        )
        assert code == 0
        lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
        assert lines["k"] == "2"
        c2 = np.cosh(2.0) ** 2
        want = (c2 / 4) / (1 - 0.25 + c2 / 4)
        assert float(lines["predicted_success"]) == pytest.approx(want, abs=1e-15)
        mantissa = lines["predicted_success"].replace(".", "").lstrip("0")
        assert len(mantissa) >= 12
        assert abs(float(lines["difference"])) <= 1e-9

    def test_simulated_is_oracle_marginal(self, capsys):
        from lqc.circuit import Circuit, Instruction
        from lqc.search import SearchSpec, q_circuit, search_layout
        from lqc.simulator import observe, run

        n, x, chi, k = 5, "01101", 0.8, 3
        argv = ["search", "--n", str(n), "--x", x, "--chi", str(chi), "--k", str(k)]
        code, out, _ = cli(capsys, *argv)
        assert code == 0
        lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
        prep = Circuit(search_layout(n), tuple(Instruction("H", (i,)) for i in range(n)))
        state = run(prep)
        for _ in range(k):
            state = run(q_circuit(SearchSpec(n, x, chi, k)), state)
        full = observe(state).probabilities
        assert float(lines["simulated"]) == full.get(x + "0", 0.0) + full.get(x + "1", 0.0)

    def test_k0_uniform(self, capsys):
        code, out, _ = cli(
            capsys, "search", "--n", "3", "--x", "101", "--chi", "0.5", "--k", "0"
        )
        lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
        assert float(lines["simulated"]) == pytest.approx(1 / 8, abs=1e-12)

    def test_pmin_chooses_k(self, capsys):
        code, out, _ = cli(
            capsys, "search", "--n", "6", "--x", "111000", "--pmin", "0.9"
        )
        assert code == 0
        lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
        assert int(lines["k"]) == choose_k(64, 0.5, 0.9)
        assert float(lines["simulated"]) >= 0.9

    def test_overflow_guard(self, capsys):
        code, _, err = cli(
            capsys, "search", "--n", "2", "--x", "11", "--chi", "1", "--k", "400"
        )
        assert code == 4

    def test_register_guard(self, capsys):
        code, _, _ = cli(capsys, "search", "--n", "25", "--x", "1" * 25, "--k", "1")
        assert code == 4

    def test_register_guard_counts_oracle_and_hybit(self, capsys):
        # 23 search qubits plus the oracle qubit and the hybit: 2^25 amplitudes
        code, _, err = cli(capsys, "search", "--n", "23", "--x", "1" * 23, "--k", "1")
        assert code == 4
        assert "25 bits" in err

    def test_bad_target(self, capsys):
        code, _, _ = cli(capsys, "search", "--n", "2", "--x", "12", "--k", "1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        # an estimate of about 4e300 rounds, too many for choose_k to walk down
        ["--chi", "1e-300"],
        # an infinite estimate, which math.ceil refuses with OverflowError
        ["--chi", "1e-320"],
        # about 4e9 rounds, more than any run could finish
        ["--chi", "1e-9"],
        ["--chi", "0", "--k", "200000"],
    ])
    def test_round_guard(self, argv):
        # in a child process, so that a hang fails the test at the timeout
        r = subprocess.run(
            [sys.executable, "-m", "lqc", "search", "--n", "3", "--x", "101", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (r.returncode, r.stdout) == (4, "")
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error:")
        assert "rounds" in r.stderr


class TestApprox:
    def test_t_exact(self, tmp_path, capsys):
        f = put(tmp_path, "t.mat", format_matrix_text(builtin("T"), 2, 0))
        code, out, _ = cli(
            capsys, "approx", f, "--kind", "qubit", "--tol", "1e-6", "--depth", "4"
        )
        assert code == 0
        lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
        assert lines["word"] == "T"
        assert float(lines["projective_error"]) <= 1e-12
        assert lines["tol_met"] == "true"

    def test_t_tau_length_two(self, tmp_path, capsys):
        M = builtin("T") @ builtin("TAU")
        f = put(tmp_path, "tt.mat", format_matrix_text(M, 1, 1))
        code, out, _ = cli(
            capsys, "approx", f, "--kind", "hybit", "--tol", "1e-9", "--depth", "3"
        )
        lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
        assert len(lines["word"].split()) == 2
        assert float(lines["projective_error"]) <= 1e-12

    def test_unmet_tolerance_flagged(self, tmp_path, capsys):
        th = 0.3
        R = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
        )
        f = put(tmp_path, "r.mat", format_matrix_text(R, 2, 0))
        code, out, _ = cli(
            capsys, "approx", f, "--kind", "qubit", "--tol", "1e-6", "--depth", "3"
        )
        assert code == 0
        lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
        assert lines["tol_met"] == "false"
        assert float(lines["projective_error"]) > 1e-6

    def test_non_isometric_exit_3(self, tmp_path, capsys):
        f = put(tmp_path, "bad.mat", "dim 2 0\n1,0 1,0\n0,0 1,0\n")
        code, _, _ = cli(
            capsys, "approx", f, "--kind", "qubit", "--tol", "0.1", "--depth", "2"
        )
        assert code == 3

    def test_non_finite_exit_3(self, tmp_path, capsys):
        # used to exit 0 with projective_error = nan
        f = put(tmp_path, "nan.mat", "dim 2 0\nnan,0 0,0\n0,0 1,0\n")
        code, out, err = cli(
            capsys, "approx", f, "--kind", "qubit", "--tol", "0.1", "--depth", "2"
        )
        assert code == 3
        assert out == ""
        assert "residual inf" in err

    def test_missing_file(self, capsys):
        code, _, _ = cli(
            capsys, "approx", "/no/such.mat", "--kind", "qubit", "--tol", "0.1",
            "--depth", "2",
        )
        assert code == 1


# Stdout of `lqc approx --tol 1e-3` and `lqc synth --approx 0.05` on seeded
# Cartan-form targets, recorded with the node-by-node word search at
# 0e03729; the level-at-a-time search must print the same bytes.
APPROX_GOLDEN = {
    ("qubit", 1, 16): (
        "word = H T H T T H T H T H T H T T\n"
        "projective_error = 0.043994044395885418\ntol_met = false\n"
    ),
    ("qubit", 1, 20): (
        "word = H T H T T H T H T H T H T T\n"
        "projective_error = 0.043994044395885418\ntol_met = false\n"
    ),
    ("qubit", 2, 16): (
        "word = H T H T T T H T H T T\n"
        "projective_error = 0.079035225857439564\ntol_met = false\n"
    ),
    ("qubit", 2, 20): (
        "word = T T H T H T H T H T H T H T H T T T T\n"
        "projective_error = 0.050752784275662446\ntol_met = false\n"
    ),
    ("hybit", 1, 16): (
        "word = T T TAU T T TAU T TAU T T TAU T T TAU T TAU\n"
        "projective_error = 0.097034455911599191\ntol_met = false\n"
    ),
    ("hybit", 1, 20): (
        "word = T TAU T T TAU T TAU T T TAU T T T TAU T TAU T T TAU\n"
        "projective_error = 0.05851863498854333\ntol_met = false\n"
    ),
    ("hybit", 2, 16): (
        "word = T T T T TAU T TAU T TAU T T\n"
        "projective_error = 0.13342610010278877\ntol_met = false\n"
    ),
    ("hybit", 2, 20): (
        "word = TAU T TAU T T TAU T TAU T TAU T TAU T TAU T T TAU\n"
        "projective_error = 0.090782032084326975\ntol_met = false\n"
    ),
}

SYNTH_APPROX_GOLDEN = {
    "qubit": "qubits 1\nH q0\nT q0\nT q0\nT q0\nT q0\nT q0\nH q0\nT q0\n",
    "hybit": (
        "hybits 1\nTAU h0\nT h0\nT h0\nT h0\nT h0\nT h0\nTAU h0\nT h0\nTAU h0\n"
        "T h0\nT h0\nTAU h0\nT h0\nT h0\nTAU h0\nT h0\nTAU h0\n"
    ),
}


def cartan_file(tmp_path, kind, seed):
    A = cartan_target(kind[0], np.random.default_rng(seed))
    m, n = (2, 0) if kind == "qubit" else (1, 1)
    return put(tmp_path, f"{kind}{seed}.mat", format_matrix_text(A, m, n))


class TestApproxGolden:
    @pytest.mark.parametrize(
        "kind,seed,depth",
        [
            pytest.param(*key, marks=[pytest.mark.slow] if key[2] == 20 else [])
            for key in APPROX_GOLDEN
        ],
    )
    def test_approx_stdout(self, tmp_path, capsys, kind, seed, depth):
        f = cartan_file(tmp_path, kind, seed)
        code, out, _ = cli(
            capsys, "approx", f, "--kind", kind, "--tol", "1e-3", "--depth", str(depth)
        )
        assert code == 0
        assert out == APPROX_GOLDEN[(kind, seed, depth)]

    @pytest.mark.parametrize("kind", sorted(SYNTH_APPROX_GOLDEN))
    def test_synth_approx_stdout(self, tmp_path, capsys, kind):
        # a 1-bit register runs word_search at compiler.WORD_DEPTH = 20
        f = cartan_file(tmp_path, kind, 3)
        q, h = ("1", "0") if kind == "qubit" else ("0", "1")
        code, out, _ = cli(capsys, "synth", f, "--qubits", q, "--hybits", h, "--approx", "0.05")
        assert code == 0
        assert out == SYNTH_APPROX_GOLDEN[kind]


# Stdout of `run` and `sample` on a committed 12-qubit + 2-hybit circuit (an
# H layer, hybit gates, controls on bits no gate has touched yet) and of one
# search, recorded before `run` left untouched bits out of its passes. The
# long outputs are kept as their SHA-256 and byte count.
GOLDEN14 = Path(__file__).parent / "data" / "golden14.lqc"
SIM_GOLDEN = {
    "run": ("8cb56295c421dbaf30c4a023059eaa505d07503ce3b2fac002323cbee02261a5", 146767),
    "sample": ("2d900c04322c071f9e810ab023b347d278bca153c616a9be7432bbe04238f465", 49322),
}
SEARCH12_GOLDEN = (
    "k = 15\npredicted_success = 0.99501430476390662\n"
    "simulated = 0.99501430476390662\ndifference = 0\n"
)


class TestSimGolden:
    @pytest.mark.parametrize(
        "argv", [["run"], ["sample", "--shots", "100000", "--seed", "5"]], ids=["run", "sample"]
    )
    def test_golden14_stdout(self, capsys, argv):
        code, out, _ = cli(capsys, argv[0], str(GOLDEN14), *argv[1:])
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert (digest, len(out)) == SIM_GOLDEN[argv[0]]

    def test_search_stdout(self, capsys):
        code, out, _ = cli(capsys, "search", "--n", "12", "--x", "010011100101")
        assert code == 0
        assert out == SEARCH12_GOLDEN


class TestUsage:
    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = cli(capsys, "run", "x.lqc", "--frobnicate")
        assert code == 1

    def test_exclusive_k_pmin(self, capsys):
        code, _, _ = cli(
            capsys, "search", "--n", "2", "--x", "11", "--k", "1", "--pmin", "0.9"
        )
        assert code == 1


class TestSubprocess:
    def test_byte_stable_and_exit_codes(self, tmp_path):
        f = put(tmp_path, "c.lqc", "qubits 2\nH q0\nCTRL q0 : X q1\n")

        def go(*argv, env=None):
            return subprocess.run(
                [sys.executable, "-m", "lqc", *argv],
                capture_output=True,
                env=env,
            )

        a = go("run", f)
        b = go("run", f)
        assert a.returncode == 0
        assert a.stdout == b.stdout

        s1 = go("sample", f, "--shots", "500", "--seed", "3")
        s2 = go("sample", f, "--shots", "500", "--seed", "3")
        assert s1.returncode == 0 and s1.stdout == s2.stdout

        bad = put(tmp_path, "cnot.mat", CNOT_TEXT)
        assert go("verify", bad).returncode == 3

    def test_non_finite_defgate_prints_one_error(self, tmp_path):
        # numpy's overflow and invalid-value warnings must not reach stderr
        f = put(tmp_path, "c.lqc", "qubits 1\nDEFGATE G 1\ninf,0 0,0\n0,0 1,0\nG q0\n")
        r = subprocess.run([sys.executable, "-m", "lqc", "run", f], capture_output=True, text=True)
        assert r.returncode == 1
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error:")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_overflowing_boost_parameter_prints_one_error(self, tmp_path, command):
        # cosh(800) and sinh(800) overflow while the parse-time metric check
        # builds the matrix; the inf residual refuses it, with no numpy warning
        f = put(tmp_path, "c.lqc", "qubits 2\nhybits 1\nBOOST 800 h0\n")
        r = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lqc", command, f],
            capture_output=True, text=True, timeout=60,
        )
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == (
            "error: line 3, col 1: gate BOOST is not metric-preserving "
            "on target kind(s) 'h' (residual inf)\n"
        )

    def test_thread_cap_env(self, tmp_path):
        import os

        f = put(tmp_path, "c.lqc", "qubits 1\nH q0\n")
        env = dict(os.environ, LQC_THREADS="1")
        r = subprocess.run(
            [sys.executable, "-m", "lqc", "run", f],
            capture_output=True,
            env=env,
        )
        assert r.returncode == 0
