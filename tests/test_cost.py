import numpy as np
import pytest

from dqcalib.constraints import ConstraintMode
from dqcalib.cost import (BLOCK_ROWS, CostAccumulator, MotionPair, PairArrays,
                          cost_value, pair_cost_matrix)
from dqcalib.dualquat import DualQuat, left_mat, right_mat
from dqcalib.errors import InvalidWeight, NotUnit
from dqcalib.planar import plane_alignment_dq
from dqcalib.sim import SimConfig, planar_rig, random_unit_dq, simulate_pairs

from conftest import accumulate_pairs, make_dataset


def consistent_pair(rng, q_t, t_scale=1.0):
    q_b = random_unit_dq(rng, max_translation=t_scale)
    q_a = (q_t * q_b * q_t.conjugate()).canonicalized()
    return MotionPair(q_a=q_a, q_b=q_b)


def test_identity_pair_gives_zero_matrix():
    pair = MotionPair(q_a=DualQuat.identity(), q_b=DualQuat.identity())
    assert np.allclose(pair_cost_matrix(pair), 0.0)


def test_true_calibration_has_zero_residual(rng):
    from dqcalib.dualquat import left_mat, right_mat

    q_t = random_unit_dq(rng, max_translation=2.0)
    for _ in range(20):
        pair = consistent_pair(rng, q_t)
        v = q_t.vec()
        # factored evaluation of the quadratic form avoids the cancellation
        # noise of the 8x8 sandwich (which floors near machine epsilon)
        residual = (right_mat(pair.q_b) - left_mat(pair.q_a)) @ v
        assert residual @ residual < 1e-18
        assert abs(v @ pair_cost_matrix(pair) @ v) < 1e-13


def test_pair_matrix_is_psd(rng):
    for _ in range(20):
        pair = MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng))
        Q = pair_cost_matrix(pair)
        assert np.allclose(Q, Q.T, atol=1e-14)
        eigs = np.linalg.eigvalsh(Q)
        assert eigs[0] >= -1e-12 * max(np.trace(Q), 1.0)


def test_unit_weights_match_unweighted(rng):
    qa, qb = random_unit_dq(rng), random_unit_dq(rng)
    plain = pair_cost_matrix(MotionPair(q_a=qa, q_b=qb))
    weighted = pair_cost_matrix(MotionPair(q_a=qa, q_b=qb, weight_diag=np.ones(8)))
    assert np.array_equal(plain, weighted)


def test_weights_scale_residual_coordinates(rng):
    qa, qb = random_unit_dq(rng), random_unit_dq(rng)
    w = np.arange(1.0, 9.0)
    Q_w = pair_cost_matrix(MotionPair(q_a=qa, q_b=qb, weight_diag=w))
    from dqcalib.dualquat import left_mat, right_mat
    D = right_mat(qb) - left_mat(qa)
    assert np.allclose(Q_w, D.T @ np.diag(w) @ D, atol=1e-12)


def test_negative_weight_rejected(rng):
    with pytest.raises(InvalidWeight):
        MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng),
                   weight_diag=[-1] + [1] * 7)
    with pytest.raises(InvalidWeight):
        MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng), eta=-0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(rng, bad):
    with pytest.raises(InvalidWeight):
        MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng),
                   weight_diag=[1] * 5 + [bad] + [1] * 2)
    with pytest.raises(InvalidWeight):
        MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng), eta=bad)
    with pytest.raises(ValueError):
        MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng),
                   timestamp=bad)


class TestAccumulator:
    def test_single_pair(self, rng):
        pair = MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng))
        acc = CostAccumulator().add(pair)
        assert np.allclose(acc.normalized_q, pair_cost_matrix(pair))
        assert acc.n == 1

    def test_identical_pairs_average_to_single(self, rng):
        pair = MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng))
        acc = CostAccumulator()
        for _ in range(7):
            acc.add(pair)
        assert np.allclose(acc.normalized_q, pair_cost_matrix(pair), atol=1e-14)

    def test_two_distinct_pairs(self, rng):
        p1 = MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng))
        p2 = MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng))
        acc = CostAccumulator().add(p1).add(p2)
        expected = 0.5 * (pair_cost_matrix(p1) + pair_cost_matrix(p2))
        assert np.allclose(acc.normalized_q, expected, atol=1e-14)
        eigs = np.linalg.eigvalsh(acc.normalized_q)
        assert eigs[0] >= -1e-12 * np.trace(acc.normalized_q)

    def test_custom_eta_renormalized(self, rng):
        p1 = MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng), eta=3.0)
        p2 = MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng), eta=1.0)
        acc = CostAccumulator().add(p1).add(p2)
        expected = (3 * pair_cost_matrix(p1) + pair_cost_matrix(p2)) / 4.0
        assert np.allclose(acc.normalized_q, expected, atol=1e-14)

    def test_symmetry(self, rng):
        acc = accumulate_pairs(make_dataset(seed=3, n_pairs=20, noise=0.05)[0])
        Q = acc.normalized_q
        assert np.max(np.abs(Q - Q.T)) < 1e-12


class TestCostValue:
    def test_zero_accumulator(self, rng):
        acc = CostAccumulator()
        assert cost_value(acc, rng.normal(size=8)) == 0.0

    def test_true_calibration_noise_free(self, rng):
        from dqcalib.dualquat import left_mat, right_mat

        pairs, q_t = make_dataset(seed=1, n_pairs=30)
        acc = accumulate_pairs(pairs)
        v = q_t.vec()
        factored = np.mean([np.sum(((right_mat(p.q_b) - left_mat(p.q_a)) @ v) ** 2)
                            for p in pairs])
        assert factored < 1e-16
        assert abs(cost_value(acc, v)) < 1e-13

    def test_quadratic_scaling(self, rng):
        acc = accumulate_pairs(make_dataset(seed=2, n_pairs=10, noise=0.1)[0])
        q = rng.normal(size=8)
        assert np.isclose(cost_value(acc, 2 * q), 4 * cost_value(acc, q), rtol=1e-12)

    def test_duplication_invariance(self, rng):
        pairs, _ = make_dataset(seed=4, n_pairs=15, noise=0.05)
        acc1 = accumulate_pairs(pairs)
        acc2 = accumulate_pairs(pairs + pairs)
        q = rng.normal(size=8)
        assert np.isclose(cost_value(acc1, q), cost_value(acc2, q), atol=1e-12)


def test_noise_free_null_space_structure(rng):
    # the normalized cost matrix of consistent data has a two-dimensional
    # null space, but only +/- vec(q_T) has unit real part after scaling
    pairs, q_t = make_dataset(seed=5, n_pairs=25)
    acc = accumulate_pairs(pairs)
    vals, vecs = np.linalg.eigh(acc.normalized_q)
    n_null = int(np.sum(vals < 1e-12 * max(1.0, vals[-1])))
    assert n_null == 2
    # truth lies in the null space
    v = q_t.vec()
    assert v @ acc.normalized_q @ v < 1e-16
    # exactly one null direction carries real-part norm
    V = vecs[:, :2]
    gram = V[:4].T @ V[:4]
    eigs = np.linalg.eigvalsh(gram)
    assert eigs[0] < 1e-10 and eigs[1] > 1e-3


# -- batched accumulation -------------------------------------------------------

def reference_sum(pairs, align_a=None, align_b=None):
    """Per-pair accumulation as the cost was first written: two 8x8 matrices
    per pair, plane projection through DualQuat products, a re-symmetrized
    running sum.  An independent oracle for the bits of the batched kernel."""
    sum_q, sum_eta = np.zeros((8, 8)), 0.0
    for p in pairs:
        if align_a is not None:
            p = MotionPair(
                q_a=(align_a * p.q_a * align_a.conjugate()).canonicalized(),
                q_b=(align_b * p.q_b * align_b.conjugate()).canonicalized(),
                timestamp=p.timestamp, weight_diag=p.weight_diag, eta=p.eta)
        D = right_mat(p.q_b) - left_mat(p.q_a)
        Q = D.T @ (p.weight_diag[:, None] * D)
        eta = 1.0 if p.eta is None else p.eta
        sum_q += eta * (0.5 * (Q + Q.T))
        sum_q = 0.5 * (sum_q + sum_q.T)
        sum_eta += eta
    return sum_q, sum_eta


def with_weights(pairs, seed):
    rng = np.random.default_rng(seed)
    return [MotionPair(q_a=p.q_a, q_b=p.q_b, timestamp=p.timestamp,
                       weight_diag=rng.uniform(0.2, 3.0, 8),
                       eta=float(rng.uniform(0.1, 4.0)))
            for p in pairs]


def add_in_one_call(pairs, **kwargs):
    return CostAccumulator(**kwargs).add_batch(PairArrays.from_pairs(pairs))


@pytest.fixture(scope="module")
def pairs_5000():
    return simulate_pairs(SimConfig(n_steps=5000, noise_level=0.05, seed=21))[0]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n", sorted({1, 1023, 1024, 1025, 5000, BLOCK_ROWS - 1,
                                      BLOCK_ROWS, BLOCK_ROWS + 1}))
def test_add_batch_matches_sequential_add(pairs_5000, n, weighted):
    pairs = pairs_5000[:n]
    if weighted:
        pairs = with_weights(pairs, seed=n)
    batch = add_in_one_call(pairs)
    seq = CostAccumulator()
    for p in pairs:
        seq.add(p)
    assert np.array_equal(batch.sum_q, seq.sum_q)
    assert batch.sum_eta == seq.sum_eta and batch.n == seq.n == n
    assert np.array_equal(batch.normalized_q, seq.normalized_q)


@pytest.mark.parametrize("weighted", [False, True])
def test_add_batch_matches_reference_bits(pairs_5000, weighted):
    pairs = pairs_5000[:1500]
    if weighted:
        pairs = with_weights(pairs, seed=7)
    sum_q, sum_eta = reference_sum(pairs)
    acc = add_in_one_call(pairs)
    assert np.array_equal(acc.sum_q, sum_q)
    assert acc.sum_eta == sum_eta


def test_add_batch_split_across_calls(pairs_5000):
    pairs = pairs_5000[:1500]
    acc = CostAccumulator()
    for chunk in (pairs[:1], pairs[1:700], pairs[700:]):
        acc.add_batch(PairArrays.from_pairs(chunk))
    assert np.array_equal(acc.sum_q, add_in_one_call(pairs).sum_q)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed,n", [(0, 1100), (1, 300)])
def test_planar_add_batch_matches_sequential_add(seed, n, weighted):
    rig = planar_rig(n_steps=n, seed=seed, noise_level=0.02,
                     mount_translation=1.0)
    pairs = with_weights(rig.pairs, seed) if weighted else rig.pairs
    align = dict(align_a=plane_alignment_dq(rig.plane_a),
                 align_b=plane_alignment_dq(rig.plane_b))
    batch = add_in_one_call(pairs, mode=ConstraintMode.PLANAR, **align)
    seq = CostAccumulator(ConstraintMode.PLANAR, **align)
    for p in pairs:
        seq.add(p)
    assert np.array_equal(batch.sum_q, seq.sum_q)
    sum_q, sum_eta = reference_sum(pairs, **align)
    assert np.array_equal(batch.sum_q, sum_q)
    assert batch.sum_eta == sum_eta


def test_one_alignment_rejected():
    # an alignment for one sensor only would leave the other frame unset
    g = DualQuat.identity()
    for one in ({"align_a": g}, {"align_b": g}):
        with pytest.raises(ValueError, match="both sensors"):
            CostAccumulator(ConstraintMode.PLANAR, **one)


def test_alignments_need_planar_mode():
    # 3D mode would ignore them
    g = DualQuat.identity()
    with pytest.raises(ValueError, match="require planar mode"):
        CostAccumulator(ConstraintMode.FULL_3D, align_a=g, align_b=g)


def test_add_batch_rejects_negative_weights(pairs_5000):
    rows = PairArrays.from_pairs(pairs_5000[:4])
    w = np.ones((4, 8))
    w[2, 5] = -1e-3
    with pytest.raises(InvalidWeight):
        CostAccumulator().add_batch(PairArrays(rows.t, rows.q_a, rows.q_b, w=w))
    with pytest.raises(InvalidWeight):
        CostAccumulator().add_batch(PairArrays(rows.t, rows.q_a, rows.q_b,
                                               eta=[1.0, 1.0, -0.5, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_add_batch_rejects_non_finite_weights(pairs_5000, bad):
    rows = PairArrays.from_pairs(pairs_5000[:4])
    w = np.ones((4, 8))
    w[3, 0] = bad
    acc = CostAccumulator()
    with pytest.raises(InvalidWeight):
        acc.add_batch(PairArrays(rows.t, rows.q_a, rows.q_b, w=w))
    with pytest.raises(InvalidWeight):
        acc.add_batch(PairArrays(rows.t, rows.q_a, rows.q_b,
                                 eta=[1.0, bad, 1.0, 1.0]))
    with pytest.raises(InvalidWeight):
        acc.add_batch(PairArrays(rows.t[:1], rows.q_a[:1], rows.q_b[:1], eta=[bad]))
    # a rejected call leaves the accumulator as it was
    assert acc.n == 0 and np.array_equal(acc.normalized_q, np.zeros((8, 8)))


def test_add_batch_normalizes_rows_as_motion_pair_does(pairs_5000):
    rows = PairArrays.from_pairs(pairs_5000[:300])
    rng = np.random.default_rng(3)
    # drift inside the repair limit, and half the rows sign-flipped
    drift = lambda q: (q * (1.0 + rng.uniform(-1e-8, 1e-8, (len(q), 1)))
                       * rng.choice([1.0, -1.0], (len(q), 1)))
    q_a, q_b = drift(rows.q_a), drift(rows.q_b)
    seq = CostAccumulator()
    for a, b in zip(q_a, q_b):
        seq.add(MotionPair(q_a=DualQuat.from_vec(a), q_b=DualQuat.from_vec(b)))
    batch = CostAccumulator().add_batch(PairArrays(rows.t, q_a, q_b))
    assert np.array_equal(batch.sum_q, seq.sum_q)
    q_a[7, :4] *= 1.01
    with pytest.raises(NotUnit):
        CostAccumulator().add_batch(PairArrays(rows.t, q_a, q_b))


def test_add_batch_of_no_rows_changes_nothing():
    acc = CostAccumulator().add_batch(PairArrays(np.zeros(0), np.zeros((0, 8)),
                                                 np.zeros((0, 8))))
    assert acc.n == 0 and acc.sum_eta == 0.0
    assert np.array_equal(acc.sum_q, np.zeros((8, 8)))


class TestPairArrays:
    """The record's constructor is the one check of pair rows."""

    @staticmethod
    def rows(pairs_5000, n=6):
        return PairArrays.from_pairs(pairs_5000[:n])

    def test_mismatched_shapes_rejected(self, pairs_5000):
        rows = self.rows(pairs_5000)
        for t, q_a, q_b, w, eta in [
                (rows.t[:3], rows.q_a[:2], rows.q_b[:5], None, None),
                (rows.t, rows.q_a[:5], rows.q_b, None, None),
                (rows.t, rows.q_a, rows.q_b[:, :7], None, None),
                (rows.t, rows.q_a, rows.q_b, rows.w[:5], None),
                (rows.t, rows.q_a, rows.q_b, None, rows.eta[:, None]),
                (rows.t[:, None], rows.q_a, rows.q_b, None, None),
                (rows.q_a[:0], rows.q_a[:0], rows.q_b[:0], None, None)]:
            with pytest.raises(ValueError, match="need"):
                PairArrays(t, q_a, q_b, w, eta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, pairs_5000, bad):
        rows = self.rows(pairs_5000)
        t = rows.t.copy()
        t[4] = bad
        with pytest.raises(ValueError, match="row 4"):
            PairArrays(t, rows.q_a, rows.q_b)

    def test_errors_carry_the_first_bad_row(self, pairs_5000):
        rows = self.rows(pairs_5000)

        def fault(q_a_row=None, q_b_row=None, w_row=None, eta_row=None):
            """(error type, row, message) of a record with the given rows
            spoiled: q_a's norm, q_b's orthogonality, a w and an eta."""
            q_a, q_b = rows.q_a.copy(), rows.q_b.copy()
            w, eta = rows.w.copy(), rows.eta.copy()
            if q_a_row is not None:
                q_a[q_a_row, :4] *= 1.1
            if q_b_row is not None:
                q_b[q_b_row, 4:] += 1e-3 * q_b[q_b_row, :4]
            if w_row is not None:
                w[w_row, 3] = -1.0
            if eta_row is not None:
                eta[eta_row] = np.nan
            with pytest.raises((NotUnit, InvalidWeight)) as err:
                PairArrays(rows.t, q_a, q_b, w, eta)
            return type(err.value), err.value.row, str(err.value).split()[0]

        for i in (0, 3, 5):
            assert fault(q_a_row=i) == (NotUnit, i, "real-part")
            assert fault(q_b_row=i) == (NotUnit, i, "real/dual")
            assert fault(w_row=i) == (InvalidWeight, i, "residual")
            assert fault(eta_row=i) == (InvalidWeight, i, "eta")
        # the first bad row wins, whatever its fault
        assert fault(q_a_row=4, q_b_row=2) == (NotUnit, 2, "real/dual")
        assert fault(q_a_row=4, w_row=1) == (InvalidWeight, 1, "residual")
        assert fault(q_b_row=5, eta_row=2) == (InvalidWeight, 2, "eta")
        assert fault(q_a_row=3, eta_row=4, w_row=5) == (NotUnit, 3, "real-part")
        # within a row: q_a, then q_b, then w, then eta
        assert fault(q_a_row=2, q_b_row=2, w_row=2) == (NotUnit, 2, "real-part")
        assert fault(q_b_row=2, w_row=2, eta_row=2) == (NotUnit, 2, "real/dual")
        assert fault(w_row=2, eta_row=2) == (InvalidWeight, 2, "residual")

    def test_record_holds_read_only_copies(self, pairs_5000):
        rows = self.rows(pairs_5000)
        given = [rows.t.copy(), rows.q_a.copy(), rows.q_b.copy(), rows.w.copy(),
                 rows.eta.copy()]
        record = PairArrays(*given)
        for name, mine in zip(("t", "q_a", "q_b", "w", "eta"), given):
            held = getattr(record, name)
            assert mine.flags.writeable
            assert not held.flags.writeable
            assert not np.shares_memory(held, mine)
            assert held.tobytes() == mine.tobytes()
        for name in ("w", "eta"):
            assert not getattr(PairArrays(*given[:3]), name).flags.writeable
