import hashlib
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import cartan_target, format_matrix_text, perfbench_modules, reference_lines
from lqc.circuit import parse
from lqc.cli import main
from lqc.core import RegisterLayout, metric_vector
from lqc.gates import builtin, random_isometry_for_signs
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
        want += reference_lines(dist.probs, "%.17g")
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

    @pytest.mark.parametrize("argv", [["run"], ["sample", "--shots", "1", "--seed", "1"], ["verify"]])
    def test_memory_guard_past_the_int_to_str_limit(self, tmp_path, capsys, argv):
        # 2^20000 has more decimal digits than Python converts to text
        f = put(tmp_path, "c.lqc", "qubits 20000\nH q0\n")
        code, out, err = cli(capsys, argv[0], f, *argv[1:])
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "20000 bits" in err

    @pytest.mark.parametrize("argv, bits", [
        (["synth", "FILE", "--qubits", "1000000", "--hybits", "0"], 1000000),
        (["search", "--n", "1000000", "--x", "0"], 1000002),
    ], ids=["synth", "search"])
    def test_register_flags_refused_before_a_layout(self, tmp_path, capsys, argv, bits):
        # building a register of a million bits takes about a second, so
        # the flags' bit count is checked before any register is built
        matrix = put(tmp_path, "i.mat", "dim 2 0\n1,0 0,0\n0,0 1,0\n")
        argv = [matrix if a == "FILE" else a for a in argv]
        t0 = time.perf_counter()
        code, out, err = cli(capsys, *argv)
        assert time.perf_counter() - t0 < 0.1
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert f"{bits} bits" in err


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

    def test_negative_shots_exit_1(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\nH q0\n")
        code, out, err = cli(capsys, "sample", f, "--shots", "-1", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: shot count must be nonnegative\n"

    def test_shots_past_guard_exit_4(self, tmp_path, capsys):
        # the draws are one array: this used to end in numpy's uncaught
        # _ArrayMemoryError ("Unable to allocate 728. TiB")
        f = put(tmp_path, "c.lqc", "qubits 1\nH q0\n")
        for shots in (str(2**24 + 1), "100000000000000"):
            code, out, err = cli(capsys, "sample", f, "--shots", shots, "--seed", "1")
            assert (code, out) == (4, "")
            assert err.startswith(f"error: {shots} shots") and err.count("\n") == 1


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

    def test_header_is_the_metric(self, tmp_path, capsys):
        unitary_header = CNOT_TEXT.replace("dim 3 1", "dim 4 0")
        f = put(tmp_path, "cnot.mat", unitary_header)
        code, out, _ = cli(capsys, "verify", f)
        assert code == 0 and out.endswith("PASS\n")

    def test_metric_refused_for_a_matrix(self, tmp_path, capsys):
        # the header is the only metric of a matrix file
        f = put(tmp_path, "i.mat", "dim 2 0\n1,0 0,0\n0,0 1,0\n")
        code, out, err = cli(capsys, "verify", f, "--metric", "1", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_circuit_mode(self, tmp_path, capsys):
        f = put(tmp_path, "c.lqc", "qubits 1\nhybits 1\nCTRL q0 : BOOST 0.5 h0\n")
        code, out, _ = cli(capsys, "verify", f)
        assert code == 0
        assert out.endswith("PASS\n")

    @pytest.mark.parametrize("metric", [("9", "9"), ("1", "1")])
    def test_metric_refused_for_a_circuit(self, tmp_path, capsys, metric):
        # a circuit is read under its register's metric, never another
        f = put(tmp_path, "c.lqc", "qubits 1\nhybits 1\nCTRL q0 : BOOST 0.5 h0\n")
        code, out, err = cli(capsys, "verify", f, "--metric", *metric)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_comment_only_file_is_an_empty_circuit(self, tmp_path, capsys):
        # no `dim` header, so it is read as a circuit on no bits: the 1x1 identity
        f = put(tmp_path, "c.lqc", "# nothing here\n\n")
        code, out, _ = cli(capsys, "verify", f)
        assert (code, out) == (0, "residual = 0\nPASS\n")

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

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    @pytest.mark.parametrize("kinds", ["qh", "q"])
    def test_bad_tolerance_exit_1(self, tmp_path, capsys, kinds, tol):
        # a NaN tolerance used to run the whole pipeline on a 2-bit register
        # and exit 0 with budget_met = false
        from lqc.core import RegisterLayout, metric_vector
        from lqc.gates import random_isometry_for_signs

        A = random_isometry_for_signs(metric_vector(RegisterLayout(kinds)), seed=1)
        m = len(A) if kinds == "q" else len(A) // 2
        f = put(tmp_path, "a.mat", format_matrix_text(A, m, len(A) - m))
        q, h = str(kinds.count("q")), str(kinds.count("h"))
        got = cli(capsys, "synth", f, "--qubits", q, "--hybits", h, "--approx", tol)
        assert got == (1, "", "error: approximation tolerance must be positive\n")

    def test_empty_register_exit_1(self, tmp_path, capsys):
        f = put(tmp_path, "one.mat", "dim 1 0\n1,0\n")
        code, out, err = cli(capsys, "synth", f, "--qubits", "0", "--hybits", "0")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

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

    def test_register_guard_past_the_int_to_str_limit(self, capsys):
        # 2^20002 has more decimal digits than Python converts to text
        code, out, err = cli(capsys, "search", "--n", "20000", "--x", "0")
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "20002 bits" in err

    def test_empty_register_exit_4(self, capsys):
        code, out, err = cli(capsys, "search", "--n", "0", "--x", "0")
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_bad_target(self, capsys):
        code, _, _ = cli(capsys, "search", "--n", "2", "--x", "12", "--k", "1")
        assert code == 1

    def test_zero_chi_cannot_amplify(self, capsys):
        # k = 0 falls short of the default p_min, and no round can help
        code, out, err = cli(capsys, "search", "--n", "2", "--x", "01", "--chi", "0")
        assert (code, out) == (1, "")
        assert err == "error: chi must be positive to amplify\n"

    @pytest.mark.parametrize("chi", ["inf", "-inf", "nan"])
    def test_non_finite_chi(self, capsys, chi):
        # `--chi=` so that argparse does not read -inf as a flag
        code, out, err = cli(capsys, "search", "--n", "3", "--x", "101", f"--chi={chi}")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

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

    def test_target_not_2x2_exit_1(self, tmp_path, capsys):
        f = put(tmp_path, "cnot.mat", CNOT_TEXT)
        code, out, err = cli(
            capsys, "approx", f, "--kind", "qubit", "--tol", "0.1", "--depth", "2"
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            (
                "hybit", format_matrix_text(builtin("BOOST", 0.7), 2, 0),
                "matrix signature (2,0) does not match the 0-qubit 1-hybit register (1,1)",
            ),
            (
                "qubit", format_matrix_text(builtin("H"), 1, 1),
                "matrix signature (1,1) does not match the 1-qubit 0-hybit register (2,0)",
            ),
        ],
        ids=["hybit", "qubit"],
    )
    def test_header_of_the_other_kind_exit_1(self, tmp_path, capsys, kind, text, message):
        # each used to exit 0, the file read under the metric --kind names
        f = put(tmp_path, "m.mat", text)
        code, out, err = cli(
            capsys, "approx", f, "--kind", kind, "--tol", "0.1", "--depth", "2"
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_file(self, capsys):
        code, _, _ = cli(
            capsys, "approx", "/no/such.mat", "--kind", "qubit", "--tol", "0.1",
            "--depth", "2",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "tol, depth, code, message",
        [
            ("0.1", "-3", 1, "word depth must be nonnegative, got -3"),
            ("-1", "2", 1, "approximation tolerance must be positive"),
            ("0", "2", 1, "approximation tolerance must be positive"),
            ("nan", "2", 1, "approximation tolerance must be positive"),
            ("0.1", "25", 4, "word depth 25 exceeds the guard of 24"),
        ],
        ids=["negative-depth", "negative-tol", "zero-tol", "nan-tol", "past-guard"],
    )
    def test_search_bounds_refused(self, tmp_path, capsys, tol, depth, code, message):
        # each used to exit 0, the negative depth with word = <empty>; the
        # guard refuses before any search starts
        f = put(tmp_path, "t.mat", format_matrix_text(builtin("T"), 2, 0))
        got = cli(capsys, "approx", f, "--kind", "qubit", "--tol", tol, "--depth", depth)
        assert got == (code, "", f"error: {message}\n")


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


# The same at the benchmark's sizes, recorded at 856c1c0, before `run` laid
# its tensor out in the order the circuit works: `run` and `sample` on a
# committed 14-qubit + 2-hybit circuit shaped like the `sim` workload's
# (`perfbench/gen.sim_circuit` with 14 qubits at default_rng(16)), whose
# target slices reach BLAS_DENSE_MAX, and three searches of the `search`
# workload's sizes.
GOLDEN16 = Path(__file__).parent / "data" / "golden16.lqc"
SIM16_GOLDEN = {
    "run": ("91c9c42c7bb7854140d22e62c0b79de8930d077a794c7b6273883614fefdc38d", 621030),
    "sample": ("159091194047b78d20353cb301e89a855668c521ffdf1d4f220a7a33ee613dbc", 279530),
}
SEARCH_GOLDEN = {
    "10100100101011": "k = 16\npredicted_success = 0.9926793339648522\n"
                      "simulated = 0.9926793339648522\ndifference = 0\n",
    "111001000011110": "k = 17\npredicted_success = 0.99460315090165574\n"
                       "simulated = 0.99460315090165574\ndifference = 0\n",
    "1011001010100110": "k = 18\npredicted_success = 0.99602348900122595\n"
                        "simulated = 0.99602348900122595\ndifference = 0\n",
    # recorded at 61a603c, before `run` tracked a support of cubes: at these
    # sizes a round's passes touch the marked item, not half the register
    "101101001110010110": "k = 19\npredicted_success = 0.9941593778773985\n"
                          "simulated = 0.9941593778773985\ndifference = 0\n",
    "10011101000110101101": "k = 20\npredicted_success = 0.99142900051557048\n"
                            "simulated = 0.99142900051557048\ndifference = 0\n",
}


class TestBenchmarkSizeGolden:
    @pytest.mark.parametrize(
        "argv", [["run"], ["sample", "--shots", "100000", "--seed", "5"]], ids=["run", "sample"]
    )
    def test_golden16_stdout(self, capsys, argv):
        code, out, _ = cli(capsys, argv[0], str(GOLDEN16), *argv[1:])
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert (digest, len(out)) == SIM16_GOLDEN[argv[0]]

    @pytest.mark.parametrize("x", sorted(SEARCH_GOLDEN, key=len))
    def test_search_stdout(self, capsys, x):
        code, out, _ = cli(capsys, "search", "--n", str(len(x)), "--x", x)
        assert code == 0
        assert out == SEARCH_GOLDEN[x]


# SHA-256 and length of `synth` stdout on committed register isometries
# (`perfbench/gen.random_isometry` at default_rng(2024)). An intended change
# to their gates must record them anew.
SYNTH_MODE_GOLDEN = {
    # recorded before `two_level_factorize` recorded each factor once. Both
    # use the four-matrix identity and absorb leftover phases.
    ("qqhh", "--exact"): ("a5b89e19cb0eab3db0f8d51725398972546ffcef02d9a3616893225b9b699f80", 37249),
    ("qhhh", "--exact"): ("ac04228d2e889aed4de574e1778ffeee377239ef91bca09771d7c4075a75b7d3", 44288),
    # recorded at 8f5d386, on layouts with at most one hybit. The exact runs
    # hold hundreds of DEFGATE blocks and the names of builtins and U-gates;
    # the one-bit approximate runs hold generator words.
    ("qqqq", "--exact"): ("51fab40b78895e6cdbca734757094c9cf8bec967f9a956183d89602897358f99", 21650),
    ("qqqqq", "--exact"): ("bd194d3d8d0e03689aa04e7a5e1bb5567ecdfe0f9679207cbc5427ea15391c80", 90423),
    ("qqqqh", "--exact"): ("de3be9753a3a5f29fc069417c1a5016838d5f00d5ac19c81c9754cbbcbdf21a3", 91023),
    ("q", "--approx"): ("1f7735aead226fa4d37388c1b458f559d74ef7355a964af6306cf4fdbf5d34f6", 79),
    ("h", "--approx"): ("f380dd566a198017bc146b9818234f7e2293dc8753ad6862e4c23d5aba4d3f85", 125),
}


class TestSynthModeGolden:
    @pytest.mark.parametrize("kinds, mode", sorted(SYNTH_MODE_GOLDEN))
    def test_stdout(self, capsys, kinds, mode):
        path = Path(__file__).parent / "data" / f"{kinds}.mat"
        q, h = str(kinds.count("q")), str(kinds.count("h"))
        flags = ["--exact"] if mode == "--exact" else ["--approx", "0.05"]
        code, out, _ = cli(capsys, "synth", str(path), "--qubits", q, "--hybits", h, *flags)
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert (digest, len(out)) == SYNTH_MODE_GOLDEN[kinds, mode]


# SHA-256 and length of `synth --approx 0.05` stdout and stderr on the
# committed register isometries of two or more bits, recorded at f1c252f.
# Lowering controls every gate there on every other bit, so no gate is a
# bare one for a generator word to replace: stdout is the exact circuit,
# and stderr's "words" stage reports an error of 0.
SYNTH_APPROX_WIDE_GOLDEN = {
    "qhhh": (
        ("ac04228d2e889aed4de574e1778ffeee377239ef91bca09771d7c4075a75b7d3", 44288),
        ("fb693b73691ba8cd3bac47bf1d8833b41d2f8ea178d3e6758f7a88877a33132e", 178),
    ),
    "qqhh": (
        ("a5b89e19cb0eab3db0f8d51725398972546ffcef02d9a3616893225b9b699f80", 37249),
        ("c43c492628dfc0d6d436a1b3c09d67c2ce06ffe51fe9862aa3a2224011382cab", 175),
    ),
    "qqqq": (
        ("51fab40b78895e6cdbca734757094c9cf8bec967f9a956183d89602897358f99", 21650),
        ("32fa32c98c41a93a17469747fdee32a97a912934ecfe54d686c134466f6aa987", 179),
    ),
    "qqqqh": (
        ("de3be9753a3a5f29fc069417c1a5016838d5f00d5ac19c81c9754cbbcbdf21a3", 91023),
        ("d4d2de2503e3ef1896a6b32dc6bac9975645bc0d463a8cc498e5a0d160ffe3cd", 179),
    ),
    "qqqqq": (
        ("bd194d3d8d0e03689aa04e7a5e1bb5567ecdfe0f9679207cbc5427ea15391c80", 90423),
        ("750fecb15cf1bc1610ff99c4e0e01ee8ebf074ccaa3a7e7c9a66458977212874", 179),
    ),
}


class TestSynthApproxWideGolden:
    @pytest.mark.parametrize("kinds", sorted(SYNTH_APPROX_WIDE_GOLDEN))
    def test_stdout_and_stderr(self, capsys, kinds):
        path = Path(__file__).parent / "data" / f"{kinds}.mat"
        q, h = str(kinds.count("q")), str(kinds.count("h"))
        code, out, err = cli(capsys, "synth", str(path), "--qubits", q, "--hybits", h,
                             "--approx", "0.05")
        assert code == 0
        got = tuple(
            (hashlib.sha256(text.encode("ascii")).hexdigest(), len(text)) for text in (out, err)
        )
        assert got == SYNTH_APPROX_WIDE_GOLDEN[kinds]


# SHA-256 and length of `synth --exact` stderr (the stage report and
# `reconstruction_error`, each error at 17 digits) and of `verify` stdout on
# the emitted circuit (the residual at 17 digits, then PASS/FAIL), for every
# committed matrix file, recorded at 0b69863. They pin the rounding of
# `two_level_factorize`'s rebuild and of `to_matrix`'s dense passes, which
# stdout alone does not show.
SYNTH_VERIFY_GOLDEN = {
    "h": (
        ("95cb9924dd27c3c678a774ffa66b4de2daef494ae60300e400a475f5babff2ba", 143),
        ("1eccea32ba38edb2d456b8516589bb0f0fd516a8bddfdf80ba93a9e9ed210cdf", 39),
    ),
    "q": (
        ("190149ef548886d1c7425f5a3180ccb862a1e1f61e0dd8053d62944408108c18", 143),
        ("6861ac31058d607325a7c2c08b0e6574e1cfb0e0efb9031dfab130eca58d75df", 39),
    ),
    "qhhh": (
        ("8fd8c9c3e55d1f6bf23739a01265f991999cad5a192f66c726ab4fa9787b3010", 146),
        ("17b6fd7898925c7f9ec15a75d22ad28981e5087e85b867b8802263b0acc9e729", 39),
    ),
    "qqhh": (
        ("d79ed00be6caaa25a017978ea97076097acfaa7b037a23e9f49a7f98884f815d", 149),
        ("bb5b810a600f5964177cf672326325286ae952502341f11d30232955385780c1", 39),
    ),
    "qqqq": (
        ("1a0c9e68f5bfa28bc8cc3f0d90a7044e61ce127ed2cd458cb89390ff4f3fc4cb", 149),
        ("075766bef0a81f88ecc1b9fe16fac3fe9ab6220e977c9a5880f8b9da4829582a", 39),
    ),
    "qqqqh": (
        ("7f0d89fa806593bb94695057bfb8ff3e5cedc3ae55343cbded6c027d6dcce93d", 149),
        ("0008ab8f795185d14fab65278d77ba40c8aff861ca42c855f1a11c22e05c5d9f", 39),
    ),
    "qqqqq": (
        ("dd432c8752e8fb978fe96f8cd43e1cf6e647a4acc4049092e421b5d1ce162062", 149),
        ("075766bef0a81f88ecc1b9fe16fac3fe9ab6220e977c9a5880f8b9da4829582a", 39),
    ),
}


class TestSynthVerifyGolden:
    def test_covers_every_matrix_file(self):
        files = {p.stem for p in (Path(__file__).parent / "data").glob("*.mat")}
        assert files == set(SYNTH_VERIFY_GOLDEN)

    @pytest.mark.parametrize("kinds", sorted(SYNTH_VERIFY_GOLDEN))
    def test_report_and_residual(self, tmp_path, capsys, kinds):
        path = Path(__file__).parent / "data" / f"{kinds}.mat"
        q, h = str(kinds.count("q")), str(kinds.count("h"))
        code, out, err = cli(capsys, "synth", str(path), "--qubits", q, "--hybits", h, "--exact")
        assert code == 0
        code, verdict, _ = cli(capsys, "verify", put(tmp_path, "c.lqc", out))
        assert code == 0
        got = tuple(
            (hashlib.sha256(text.encode("ascii")).hexdigest(), len(text)) for text in (err, verdict)
        )
        assert got == SYNTH_VERIFY_GOLDEN[kinds]


class TestSynthCertifies:
    """`synth` exits 3 when the circuit it prints would FAIL `verify`, and
    `synth --exact` also when it misses its input by more than EPS_RECON;
    both still print it. The inputs are six `perfbench/gen` isometries on which `synth`
    once exited 0 and `verify` 3, and the xfail cases of
    `test_hybit_registers_pass_verify`."""

    @pytest.mark.parametrize("source, kinds, seed", [
        *[("gen", kinds, seed) for kinds in ("qqqhh", "qqhhh", "hhhhh") for seed in (100, 101)],
        *[("signs", kinds, seed) for kinds, seed in [
            ("qqqhh", 600), ("qqqhh", 601), ("qqhhh", 601), ("hhhhh", 600), ("hhhhh", 601)
        ]],
    ])
    def test_exit_code_agrees_with_verify(self, tmp_path, capsys, source, kinds, seed):
        signs = metric_vector(RegisterLayout(kinds)).astype(float)
        if source == "gen":
            [gen] = perfbench_modules("gen")
            text = gen.matrix_text(gen.random_isometry(kinds, np.random.default_rng(seed)), kinds)
        else:
            A = random_isometry_for_signs(signs, seed)
            text = format_matrix_text(A, int((signs > 0).sum()), int((signs < 0).sum()))
        q, h = str(kinds.count("q")), str(kinds.count("h"))
        f = put(tmp_path, "a.mat", text)
        code, out, err = cli(capsys, "synth", f, "--qubits", q, "--hybits", h, "--exact")
        verify_code, verdict, _ = cli(capsys, "verify", put(tmp_path, "c.lqc", out))
        assert code == verify_code
        if code:
            # the residual of the reason is `verify`'s, bit for bit
            assert f"metric residual {verdict.split()[2]} " in err.splitlines()[-1]

    def test_reason_is_one_line_on_stderr(self, capsys):
        path = Path(__file__).parent / "data" / "uncertified" / "qqhhh.mat"
        code, out, err = cli(capsys, "synth", str(path), "--qubits", "2", "--hybits", "3", "--exact")
        assert code == 3
        assert out.startswith("qubits 2\nhybits 3\n")
        assert err.splitlines()[-2:] == [
            "reconstruction_error = 4.237916471523223e-08",
            "error: emitted circuit not certified: metric residual 5.6319191901822548e-09 "
            "(EPS_ISO 1e-10), reconstruction error 4.237916471523223e-08 (EPS_RECON 1e-08)",
        ]

    @pytest.mark.parametrize("source", ["uncertified", "hybit word"])
    def test_approx_exit_code_agrees_with_verify(self, tmp_path, capsys, source):
        # approx mode holds the error to its budget, and the circuit to EPS_ISO
        if source == "uncertified":
            path, q, h = str(Path(__file__).parent / "data" / "uncertified" / "qqhhh.mat"), "2", "3"
        else:
            [gen] = perfbench_modules("gen")
            target = gen.random_isometry("h", np.random.default_rng(5))
            path, q, h = put(tmp_path, "a.mat", gen.matrix_text(target, "h")), "0", "1"
        code, out, err = cli(capsys, "synth", path, "--qubits", q, "--hybits", h, "--approx", "0.05")
        verify_code, verdict, _ = cli(capsys, "verify", put(tmp_path, "c.lqc", out))
        assert code == verify_code == (3 if source == "uncertified" else 0)
        assert "budget_met = true" in err.splitlines()
        if code:
            assert err.splitlines()[-1] == (
                f"error: emitted circuit not certified: metric residual {verdict.split()[2]} "
                "(EPS_ISO 1e-10)"
            )


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
