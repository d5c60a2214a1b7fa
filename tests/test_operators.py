import numpy as np
import pytest

from retrolind import (
    commutator,
    dagger,
    frobenius_distance,
    hermitian_deviation,
    hermitian_eigenvalues,
    min_eigenvalue,
    trace,
)
from retrolind import dynamics
from retrolind.operators import as_operator, identity, scale_of, symmetrize

EXCITED_TO_GROUND = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|, basis (|e>, |g>)
PLUS_PROJECTOR = np.full((2, 2), 0.5, dtype=complex)


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestAsOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_operator([[np.nan, 0], [0, 1]])

    def test_accepts_one_by_one(self):
        assert as_operator([[2.0]]).shape == (1, 1)


class TestDagger:
    def test_identity_is_self_adjoint(self):
        np.testing.assert_array_equal(dagger(identity(3)), identity(3))

    def test_swaps_ket_bra(self):
        np.testing.assert_array_equal(dagger(EXCITED_TO_GROUND), EXCITED_TO_GROUND.T)

    def test_matches_entrywise_definition(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 3)
        expected = np.empty((3, 3), dtype=complex)
        for r in range(3):
            for c in range(3):
                expected[r, c] = a[c, r].conjugate()
        np.testing.assert_array_equal(dagger(a), expected)

    def test_involution(self):
        rng = np.random.default_rng(12)
        a = random_complex(rng, 4)
        np.testing.assert_array_equal(dagger(dagger(a)), a)


class TestCommutator:
    def test_identity_commutes(self):
        rng = np.random.default_rng(13)
        b = random_complex(rng, 3)
        np.testing.assert_allclose(commutator(identity(3), b), np.zeros((3, 3)), atol=0)

    def test_population_difference_with_raising(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_array_equal(commutator(sz, raising), 2.0 * raising)

    def test_traceless(self):
        rng = np.random.default_rng(14)
        a, b = random_complex(rng, 4), random_complex(rng, 4)
        assert abs(trace(commutator(a, b))) < 1e-12 * scale_of(a) * scale_of(b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(identity(2), identity(3))

    def test_i_commutator_of_hermitians_is_hermitian(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = symmetrize(random_complex(rng, 3))
            b = symmetrize(random_complex(rng, 3))
            result = 1j * commutator(a, b)
            assert hermitian_deviation(result) <= 1e-12 * max(scale_of(result), 1.0)


class TestTrace:
    def test_identity(self):
        assert trace(identity(4)) == 4.0

    def test_plus_projector(self):
        assert trace(PLUS_PROJECTOR) == pytest.approx(1.0, abs=1e-15)

    def test_cyclic(self):
        rng = np.random.default_rng(16)
        a, b = random_complex(rng, 4), random_complex(rng, 4)
        assert trace(a @ b) == pytest.approx(trace(b @ a), abs=1e-12)

    def test_of_dagger_is_conjugate(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_complex(rng, 3)
            assert trace(dagger(a)) == pytest.approx(np.conj(trace(a)), abs=1e-12)


class TestHermitianDeviation:
    def test_zero_for_hermitian(self):
        assert hermitian_deviation(identity(3)) == 0.0

    def test_one_for_bare_lowering(self):
        assert hermitian_deviation(EXCITED_TO_GROUND) == 1.0

    def test_zero_after_symmetrize(self):
        rng = np.random.default_rng(18)
        a = symmetrize(random_complex(rng, 4))
        assert hermitian_deviation(a) == 0.0


class TestSymmetrize:
    def test_signed_zeros_are_halved_exactly(self):
        a = np.array([[-0.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 1.0]])
        once = symmetrize(a)
        assert symmetrize(once).tobytes() == once.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_is_idempotent_and_matches_the_real_coordinates(self, dim):
        # Entries of +-0 and small integers, so zeros meet zeros of both signs.
        rng = np.random.default_rng(60 + dim)
        a = rng.choice([-0.0, 0.0, -1.0, 1.0, 2.5], size=(1200, dim, dim, 2)).view(np.complex128)[..., 0]
        once = symmetrize(a)
        assert symmetrize(once).tobytes() == once.tobytes()
        np.testing.assert_array_equal(once, dynamics._from_real(dynamics._to_real(a)))


class TestFrobeniusDistance:
    def test_self_distance(self):
        assert frobenius_distance(PLUS_PROJECTOR, PLUS_PROJECTOR) == 0.0

    def test_identity_to_zero(self):
        assert frobenius_distance(identity(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2.0))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(19)
        a, b, c = (random_complex(rng, 3) for _ in range(3))
        assert frobenius_distance(a, c) <= frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance(identity(2), identity(3))


class TestHermitianEigenvalues:
    """The eigensolver against independent references."""

    def test_diagonal(self):
        vals = hermitian_eigenvalues(np.diag([0.75, 0.25]).astype(complex))
        np.testing.assert_allclose(vals, [0.25, 0.75], atol=1e-14)

    def test_plus_projector(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(PLUS_PROJECTOR), [0.0, 1.0], atol=1e-12
        )

    def test_one_dimensional(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.array([[3.5]])), [3.5])

    def test_zero_operator(self):
        np.testing.assert_array_equal(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_against_lapack(self):
        rng = np.random.default_rng(20)
        for dim in (2, 3, 4, 5, 6):
            for _ in range(10):
                h = symmetrize(random_complex(rng, dim))
                mine = hermitian_eigenvalues(h)
                ref = np.sort(np.linalg.eigvalsh(h))
                np.testing.assert_allclose(mine, ref, atol=1e-11 * max(scale_of(h), 1.0))

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            h = symmetrize(random_complex(rng, 4))
            assert np.sum(hermitian_eigenvalues(h)) == pytest.approx(
                trace(h).real, abs=1e-10 * scale_of(h)
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(EXCITED_TO_GROUND)


class TestKnownSpectra:
    """Eigenvalues of U diag(lam) U^dagger, known by construction."""

    def test_recovers_chosen_spectrum(self):
        rng = np.random.default_rng(24)
        for dim in range(1, 9):
            spectra = [np.sort(rng.uniform(-3.0, 3.0, size=dim)) for _ in range(5)]
            spectra.append(np.repeat([-1.0, 2.5], [dim // 2, dim - dim // 2]))  # degenerate
            for lam in spectra:
                u, _ = np.linalg.qr(random_complex(rng, dim))
                a = (u * lam) @ dagger(u)
                np.testing.assert_allclose(
                    hermitian_eigenvalues(a), lam, rtol=0, atol=1e-12 * scale_of(a)
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        a = identity(3)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(a)
        with pytest.raises(ValueError, match="finite"):
            min_eigenvalue(a)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(identity(5)) == pytest.approx(1.0, abs=1e-13)

    def test_projector_floor(self):
        assert min_eigenvalue(PLUS_PROJECTOR) == pytest.approx(0.0, abs=1e-13)

    def test_known_diagonal(self):
        assert min_eigenvalue(np.diag([0.25, 0.75]).astype(complex)) == pytest.approx(0.25)

    def test_gram_operators_are_positive(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = random_complex(rng, 4)
            gram = dagger(m) @ m
            assert min_eigenvalue(gram) >= -1e-10 * scale_of(gram)

    def test_accuracy_relative_to_largest(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = symmetrize(random_complex(rng, 4)) * 1e4
            ref = float(np.min(np.linalg.eigvalsh(h)))
            top = float(np.max(np.abs(np.linalg.eigvalsh(h))))
            assert abs(min_eigenvalue(h) - ref) <= 1e-10 * top

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_hermitian_past_the_largest_modulus(self):
        z = 1.5e308 * (1.0 + 1.0j)  # finite parts, a modulus past the largest double
        with pytest.raises(ValueError, match="^operator is not Hermitian: deviation inf exceeds"):
            min_eigenvalue(np.array([[1e308, z], [0.0, 1e308]]))


class TestStacks:
    """On a stack of matrices each helper acts on every matrix at once and
    gives, bit for bit, what it gives on that matrix alone."""

    @staticmethod
    def _stack(rng, shape, dim):
        blocks = [symmetrize(random_complex(rng, dim)) for _ in range(int(np.prod(shape)))]
        stack = np.stack(blocks).reshape(*shape, dim, dim)
        return stack * rng.uniform(0.1, 100.0, size=(*shape, 1, 1)) + 1e-13 * rng.normal(size=stack.shape)

    @pytest.mark.parametrize("shape", [(5,), (4, 3)])
    def test_matches_each_matrix_bitwise(self, shape):
        rng = np.random.default_rng(91)
        stack = self._stack(rng, shape, 4)
        for fn in (dagger, symmetrize, hermitian_eigenvalues):
            out = fn(stack)
            for index in np.ndindex(*shape):
                assert out[index].tobytes() == fn(stack[index]).tobytes(), fn.__name__
        for fn in (scale_of, trace, hermitian_deviation, min_eigenvalue):
            out = fn(stack)
            assert out.shape == shape
            for index in np.ndindex(*shape):
                single = fn(stack[index])
                assert type(single) in (float, complex)
                assert out[index] == single, fn.__name__

    def test_hermiticity_is_relative_to_each_matrix(self):
        big = 1e6 * identity(2)
        big[0, 1] += 1e-4  # 1e-10 of its own scale
        small = identity(2)
        assert min_eigenvalue(np.stack([big, small])).shape == (2,)
        small[0, 1] += 1e-4  # 1e-4 of its own scale, though below big's allowance
        with pytest.raises(ValueError, match="not Hermitian: deviation 1.000e-04"):
            min_eigenvalue(np.stack([big, small]))

    def test_scale_of_a_vector_is_its_largest_modulus(self):
        assert scale_of(np.array([3.0, -4.0j, 1.0])) == 4.0
