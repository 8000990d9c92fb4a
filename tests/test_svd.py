import sys

import numpy as np
import pytest

import oracles
from conftest import in_kernel_contract
from lamda.adapter import AdapterConfig, build_adapter
from lamda.errors import ConfigError, ContractError, NumericalError
from lamda.model import ToyTransformer, ToyTransformerConfig
from lamda.svd import (energy_score, split_spectrum, split_spectrum_tail, svd,
                       svd_many)

SHAPES = [(4, 6), (6, 4), (8, 8), (1, 5), (5, 1), (32, 48), (48, 32)]


def _random(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestDecomposition:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_reconstruction_and_orthonormality(self, shape):
        w = _random(shape, hash(shape) % 1000)
        dec = svd(w)
        assert np.abs(dec.reconstruct() - w).max() <= 1e-10 * max(1.0, np.abs(w).max())
        k = dec.k
        assert np.abs(dec.u.T @ dec.u - np.eye(k)).max() <= 1e-12
        assert np.abs(dec.v.T @ dec.v - np.eye(k)).max() <= 1e-12

    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("shape", [(16, 1), (1, 16), (1, 1), (2, 1), (1, 2)])
    def test_one_row_or_column_matches_lapack(self, shape, compute_uv):
        """A matrix with one row or column hands the kernel one operand row,
        which meets no pair; svd and svd_many agree with LAPACK and rebuild it."""
        w = _random(shape, 63)
        want = np.linalg.svd(w, compute_uv=False)
        one = svd(w, compute_uv)
        many = svd_many({"other": _random(shape[::-1], 64), "w": w}, compute_uv)["w"]
        assert many.sigma.tobytes() == one.sigma.tobytes()
        assert np.abs(one.sigma - want).max() <= 1e-14 * want[0]
        if not compute_uv:
            assert many.u is one.u is many.v is one.v is None
            return
        for dec in (one, many):
            assert np.abs(dec.reconstruct() - w).max() <= 1e-14 * np.abs(w).max()
            assert np.abs(dec.u.T @ dec.u - 1.0).max() <= 1e-14
            assert np.abs(dec.v.T @ dec.v - 1.0).max() <= 1e-14

    def test_sigma_descending_nonnegative(self):
        dec = svd(_random((10, 7), 1))
        assert np.all(dec.sigma >= 0)
        assert np.all(np.diff(dec.sigma) <= 0)

    @pytest.mark.parametrize("shape", [(5, 8), (8, 5), (6, 6)])
    def test_sigma_matches_eigensolver_oracle(self, shape):
        w = _random(shape, 7)
        got = svd(w).sigma
        want = oracles.singular_values_ref(w)
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, want[0])

    def test_diagonal_matrix(self):
        w = np.diag([3.0, 1.0, 2.0])
        dec = svd(w)
        assert np.allclose(dec.sigma, [3.0, 2.0, 1.0])

    def test_rank_deficient(self):
        col = _random((6, 1), 3)
        w = col @ np.array([[1.0, 2.0, -1.0, 0.5]])  # rank one
        dec = svd(w)
        assert np.abs(dec.reconstruct() - w).max() <= 1e-12
        assert np.abs(dec.sigma[1:]).max() <= 1e-12
        # basis completion must still give orthonormal columns
        assert np.abs(dec.u.T @ dec.u - np.eye(dec.k)).max() <= 1e-12

    def test_sign_convention_is_deterministic(self):
        w = _random((9, 9), 11)
        d1, d2 = svd(w), svd(w.copy())
        assert np.array_equal(d1.u, d2.u)
        assert np.array_equal(d1.v, d2.v)

    def test_input_left_untouched(self):
        w = _random((12, 5), 13)
        before = w.copy()
        svd(w)
        svd(w.T)  # transposed view shares the buffer
        assert np.array_equal(w, before)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(sys.modules["lamda.svd"], "MAX_SWEEPS", 0)
        with pytest.raises(NumericalError, match="converge"):
            svd(_random((6, 6), 17))

    def test_rejects_vectors(self):
        with pytest.raises(ConfigError):
            svd(np.ones(4))

    @pytest.mark.parametrize("shape", [(64, 0), (0, 64), (0, 0)])
    def test_rejects_empty_matrices(self, shape):
        with pytest.raises(ConfigError, match="non-empty"):
            svd(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        """One NaN or inf would otherwise "converge" to sigma all 0.0."""
        w = _random((8, 6), 29)
        w[5, 2] = bad
        with pytest.raises(NumericalError, match="NaN or inf"):
            svd(w)


class TestExtremeMagnitude:
    @pytest.mark.parametrize("scale", [1e78, 1e160, 1e-170])
    def test_matches_lapack_outside_the_kernels_range(self, scale):
        """The kernel's squared column norms overflow or flush to zero here
        (1e78 gave a max relative sigma error of 0.29, 1e160 and 1e-170
        sigma all 0.0), so svd scales by a power of two and back."""
        w = _random((8, 6), 37) * scale
        want = np.linalg.svd(w, compute_uv=False)
        many = svd_many({"other": _random((6, 8), 38), "w": w})["w"]
        for dec in (svd(w), many):
            assert np.abs(dec.sigma - want).max() <= 1e-14 * want[0]
            assert np.abs(dec.u.T @ dec.u - np.eye(6)).max() <= 1e-12
            assert np.abs(dec.v.T @ dec.v - np.eye(6)).max() <= 1e-12
            assert np.abs(dec.reconstruct() - w).max() <= 1e-13 * np.abs(w).max()

    @pytest.mark.xfail(raises=NumericalError, strict=True,
                       reason="a singular value below about 1e-150 next to ones near 1: "
                              "the kernel's squared norms underflow and it never converges")
    def test_tiny_rows_among_normal_ones(self):
        w = _random((8, 6), 62)
        w[::3] *= 1e-160
        want = np.linalg.svd(w, compute_uv=False)
        assert np.abs(svd(w, compute_uv=False).sigma - want).max() <= 1e-14 * want[0]

    @pytest.mark.xfail(raises=NumericalError, strict=True,
                       reason="a zero or repeated row leaves a working row that shrinks to "
                              "about 1e-160 of the largest, whose squared norm is subnormal: "
                              "the kernel never converges")
    def test_zero_or_repeated_row(self):
        """In-range input that reaches the mechanism of the case above: an 8x8
        Gaussian with row 0 zeroed (198 of 200 seeds fail), and a 64x64 one
        with row 1 = row 0."""
        zero_row, repeated_row = _random((8, 8), 0), _random((64, 64), 0)
        zero_row[0] = 0.0
        repeated_row[1] = repeated_row[0]
        for w in (zero_row, repeated_row):
            want = np.linalg.svd(w, compute_uv=False)
            assert np.abs(svd(w, compute_uv=False).sigma - want).max() <= 1e-12 * want[0]

    def test_no_single_scale_fits(self):
        with pytest.raises(NumericalError, match="orders of magnitude"):
            svd(np.diag([1e300, 1.0, 1e-300]))  # 1e-300 would flush to zero
        with pytest.raises(NumericalError, match="overflows"):
            svd(np.full((2, 2), 1e308))  # sigma 2e308


class TestSvdMany:
    WEIGHTS = {
        "tall": _random((12, 8), 1),
        "wide": _random((8, 12), 2),  # its operand has the shape of tall's
        "square": _random((5, 5), 3),
        "rank-one": _random((12, 1), 4) @ _random((1, 8), 5),
        "huge": _random((12, 8), 6) * 1e78,
        "row": _random((1, 7), 7),
    }

    def test_equals_svd_key_by_key_bitwise(self):
        many = svd_many(self.WEIGHTS)
        assert list(many) == list(self.WEIGHTS)
        for key, w in self.WEIGHTS.items():
            one = svd(w)
            for name in ("u", "sigma", "v"):
                assert getattr(many[key], name).tobytes() == getattr(one, name).tobytes(), key

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        svd_module = sys.modules["lamda.svd"]  # `lamda.svd` names the function
        kernel, calls = svd_module.jacobi_sweeps, []

        def counted(ats, *args):
            calls.append((len(ats), *ats[0].shape))
            return kernel(ats, *args)

        monkeypatch.setattr(svd_module, "jacobi_sweeps", counted)
        return calls

    def test_one_stack_per_operand_shape(self, kernel_calls):
        svd_many(self.WEIGHTS)
        assert kernel_calls == [(4, 8, 12), (1, 5, 5), (1, 1, 7)]

    def test_checks_every_input_before_decomposing(self, kernel_calls):
        bad = _random((8, 6), 8)
        bad[1, 1] = np.nan
        with pytest.raises(NumericalError, match="'bad'"):
            svd_many({"good": _random((8, 6), 9), "bad": bad})
        assert kernel_calls == []

    def test_non_convergence_names_the_matrix(self, monkeypatch):
        monkeypatch.setattr(sys.modules["lamda.svd"], "MAX_SWEEPS", 0)
        with pytest.raises(NumericalError, match="'L0.q' did not converge"):
            svd_many({"L0.q": _random((6, 6), 17)})


def _extreme_values():
    """Finite matrices at the edges of float64: signed zeros, subnormals and
    entries near 1e300, the last two scaled into the kernel's range by `svd`."""
    rng = np.random.default_rng(61)
    signs = rng.choice([-1.0, 1.0], size=(8, 6))
    signed_zeros = signs * 0.0
    signed_zeros[:, ::2] = rng.normal(size=(8, 3))
    big_diagonal = signs[:6] * 0.0
    np.fill_diagonal(big_diagonal, signs[0] * 1e300)
    return {
        "signed-zeros": signed_zeros,
        "all-signed-zeros": signs.T * 0.0,
        "subnormals": signs * 5e-324 * rng.integers(1, 1000, size=(8, 6)),
        "near-1e300": signs.T * 1e300 * rng.uniform(0.5, 1.0, size=(6, 8)),
        "1e300-and-signed-zeros": big_diagonal,
    }


class TestKernelContract:
    """`svd` hands the kernel only operands inside its contract, so no stack
    of the toy backbone or of finite extreme-value matrices meets its
    ContractError."""

    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("inputs", ["toy-backbone", "extreme-values"])
    def test_svd_never_meets_the_refusal(self, monkeypatch, compute_uv, inputs):
        svd_module = sys.modules["lamda.svd"]
        kernel, operands = svd_module.jacobi_sweeps, []

        def spied(ats, *args):
            operands.extend(ats)
            return kernel(ats, *args)

        monkeypatch.setattr(svd_module, "jacobi_sweeps", spied)
        if inputs == "toy-backbone":
            weights = ToyTransformer(ToyTransformerConfig(), seed=0).weights()
            weights = {key: w for key, w in weights.items() if w.ndim == 2}
        else:
            weights = _extreme_values()
        decs = svd_many(weights, compute_uv=compute_uv)
        assert all(np.isfinite(dec.sigma).all() for dec in decs.values())
        assert len(operands) == len(weights)
        assert all(in_kernel_contract(at) for at in operands)


def _zero_columns(w, cols):
    w = w.copy()
    w[:, cols] = 0.0
    return w


def _tiny_leading_rows(w):
    w = w.copy()
    w[0] *= 1e-14
    w[1] = 0.0
    return w


def _repeated_column(seed):
    w = _random((64, 64), seed)
    w[:, 1] = w[:, 0]
    return w


class TestBasisCompletion:
    """A zero singular direction that no unit vector reaches with a residual
    norm above 0.5 is completed from the unit vector with the largest
    residual, projected twice. The squared residual norms sum to m - j, so
    with one direction left the largest can be as small as 1/sqrt(m)."""

    INPUTS = {
        **{f"64x64-repeated-column-{seed}": _repeated_column(seed) for seed in range(3)},
        "8x8-zero-column": _zero_columns(_random((8, 8), 1), [0]),
    }

    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_singular_square_matrix_completes(self, monkeypatch, kind):
        svd_module = sys.modules["lamda.svd"]  # `lamda.svd` names the function
        project, projections = svd_module._project_out, []

        def counted(cand, cols):
            projections.append(cols.shape[1])
            return project(cand, cols)

        monkeypatch.setattr(svd_module, "_project_out", counted)
        w = self.INPUTS[kind]
        dec = svd(w)
        live = int(np.count_nonzero(dec.sigma))
        m, k = dec.u.shape
        # One zero direction, whose every unit vector falls short: m
        # candidates and the second projection.
        assert k - live == 1 and len(projections) == m + 1
        gram = np.abs(dec.u.T @ dec.u - np.eye(k))
        assert gram[live:].max() <= 1e-14  # one projection left up to 3e-12
        # The live columns are orthogonal to the kernel's tol (1e-12) and rounding.
        assert gram.max() <= 2e-12
        assert np.abs(dec.v.T @ dec.v - np.eye(k)).max() <= 1e-12
        assert np.abs(dec.reconstruct() - w).max() <= 1e-12 * np.abs(w).max()
        want = oracles.singular_values_ref(w)
        assert np.abs(dec.sigma - want).max() <= 1e-9 * want[0]


class TestPostProcessing:
    """`_factors` without column loops gives the bits of the loops it replaced
    (`oracles.svd_factors_loop_ref`)."""

    INPUTS = {
        "random": _random((10, 6), 21),
        # Exactly zero sigma, so the zero-direction completion runs twice.
        "rank-deficient": _zero_columns(_random((8, 6), 22), [1, 4]),
        # The first entries of u are below 1e-12, so a later one sets the sign.
        "tiny-leading-entries": _tiny_leading_rows(_random((10, 6), 23)),
        "wide": _random((5, 9), 24),  # svd swaps u and v
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_equals_the_column_loops_bitwise(self, monkeypatch, kind, dtype):
        svd_module = sys.modules["lamda.svd"]  # `lamda.svd` names the function
        factors, operands = svd_module._factors, []

        def recorded(key, at, vt, flipped, exponent):
            operands.append((at.copy(), vt.copy(), flipped, exponent))
            return factors(key, at, vt, flipped, exponent)

        monkeypatch.setattr(svd_module, "_factors", recorded)
        dec = svd(self.INPUTS[kind].astype(dtype))
        want = oracles.svd_factors_loop_ref(*operands[0])
        for name, ref in zip(("u", "sigma", "v"), want):
            assert getattr(dec, name).tobytes() == ref.tobytes(), name
        # Each kind reaches the branch it is here for.
        assert (dec.sigma[-2:] == 0.0).all() == (kind == "rank-deficient")
        assert (np.abs(dec.u[:2]) <= 1e-12).all() == (kind == "tiny-leading-entries")
        assert operands[0][2] == (kind == "wide")


class TestValuesOnly:
    """`compute_uv=False` gives the full decomposition's sigma bit for bit,
    without u and v, through `svd` and `svd_many`."""

    INPUTS = {
        "square": _random((7, 7), 51),
        "tall": _random((12, 5), 52),
        "wide": _random((5, 12), 53),  # svd sweeps its transpose
        # Exactly zero sigma: fewer live values than k.
        "rank-deficient": _zero_columns(_random((8, 6), 54), [1, 4]),
        "row": _random((1, 6), 55),
        "huge": _random((8, 6), 56) * 1e78,  # scaled by a power of two and back
    }

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        svd_module = sys.modules["lamda.svd"]  # `lamda.svd` names the function
        kernel, calls = svd_module.jacobi_sweeps, []

        def spied(ats, compute_uv, *args):
            calls.append((len(ats), ats[0].shape, compute_uv))
            return kernel(ats, compute_uv, *args)

        monkeypatch.setattr(svd_module, "jacobi_sweeps", spied)
        return calls

    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_sigma_equals_the_full_decomposition_bitwise(self, kind, kernel_calls):
        w = self.INPUTS[kind]
        full, values = svd(w), svd(w, compute_uv=False)
        assert values.u is None and values.v is None
        assert values.sigma.tobytes() == full.sigma.tobytes()
        operand = (min(w.shape), max(w.shape))
        assert kernel_calls == [(1, operand, True), (1, operand, False)]
        # Each kind reaches the branch it is here for.
        _, flipped, exponent = sys.modules["lamda.svd"]._operand(kind, w)
        assert (full.sigma[-2:] == 0.0).all() == (kind == "rank-deficient")
        assert flipped == (kind in ("wide", "row"))
        assert (exponent != 0) == (kind == "huge")

    def test_svd_many_equals_svd_key_by_key_bitwise(self, kernel_calls):
        many = svd_many(self.INPUTS, compute_uv=False)
        assert list(many) == list(self.INPUTS)
        assert kernel_calls and not any(compute_uv for _, _, compute_uv in kernel_calls)
        for key, w in self.INPUTS.items():
            assert many[key].u is None and many[key].v is None
            assert many[key].sigma.tobytes() == svd(w).sigma.tobytes(), key

    def test_sigma_overflow_raises(self):
        w = np.full((2, 2), 1e308)  # sigma 2e308
        with pytest.raises(NumericalError, match="overflows"):
            svd(w, compute_uv=False)
        with pytest.raises(NumericalError, match="'w': the largest singular value overflows"):
            svd_many({"ok": _random((2, 2), 57), "w": w}, compute_uv=False)

    @pytest.mark.parametrize("use", [
        pytest.param(lambda w, dec: split_spectrum(dec, 2), id="split_spectrum"),
        pytest.param(lambda w, dec: split_spectrum_tail(dec, 2), id="split_spectrum_tail"),
        pytest.param(lambda w, dec: build_adapter(w, AdapterConfig(2, w.shape), dec=dec),
                     id="build_adapter"),
        pytest.param(lambda w, dec: dec.reconstruct(), id="reconstruct"),
    ])
    def test_factor_readers_reject_a_values_only_decomposition(self, use):
        w = self.INPUTS["square"]
        with pytest.raises(ContractError, match=r"values-only \(compute_uv=False\)"):
            use(w, svd(w, compute_uv=False))


class TestSplits:
    def test_partition_identity(self):
        w = _random((16, 10), 19)
        dec = svd(w)
        for r in (1, 3, dec.k):
            top = split_spectrum(dec, r)
            assert np.abs(top.a @ top.b + top.w_res - w).max() <= 1e-10
            tail = split_spectrum_tail(dec, r)
            assert np.abs(tail.a @ tail.b + tail.w_res - w).max() <= 1e-10

    def test_top_split_is_best_rank_r(self):
        # Eckart-Young: no rank-r matrix beats the top-r split in Frobenius norm.
        w = _random((8, 8), 23)
        dec = svd(w)
        r = 3
        top = split_spectrum(dec, r)
        best = np.linalg.norm(top.w_res)
        rng = np.random.default_rng(0)
        for _ in range(20):
            cand = rng.normal(size=(8, r)) @ rng.normal(size=(r, 8))
            assert np.linalg.norm(w - cand) >= best - 1e-9

    def test_tail_split_shapes_and_content(self):
        dec = svd(np.diag([4.0, 3.0, 2.0, 1.0]))
        tail = split_spectrum_tail(dec, 2)
        assert tail.a.shape == (4, 2) and tail.b.shape == (2, 4)
        assert sorted(np.round(np.linalg.norm(tail.a, axis=0), 9)) == [1.0, 2.0]

    def test_rank_bounds(self):
        dec = svd(_random((5, 5), 29))
        for bad in (0, 6):
            with pytest.raises(ConfigError):
                split_spectrum(dec, bad)
            with pytest.raises(ConfigError):
                split_spectrum_tail(dec, bad)


class TestEnergyScore:
    def test_simple_values(self):
        sigma = np.array([3.0, 2.0, 1.0])
        assert energy_score(sigma, 0) == 0.0
        assert energy_score(sigma, 1) == 9.0
        assert energy_score(sigma, 3) == 14.0

    def test_monotone_in_rank(self):
        sigma = np.sort(np.abs(_random((20,), 31)))[::-1]
        scores = [energy_score(sigma, r) for r in range(21)]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_rank_out_of_range(self):
        with pytest.raises(ConfigError):
            energy_score(np.ones(3), 4)
