"""The solver's per-cable passes against the numpy expressions they replace.

Each reference below is the array form of one decision the active-set
iterations make: the ratio test, and a working set's certificate, the held
cable whose descent or step points furthest into the box, which both the
descent test before f is rendered and the multiplier test after it take,
each test's decision and the release of that cable when it fails.
The passes must agree with them exactly: the same booleans, the same
blocking and released cables, and bit-identical arrays. The cases are seeded and built
to hit ties, steps inside the +-rounding band, no moving cable, no held
cable and every m from 1 to 8 (case k has 1 + k % 8 cables), and each
test checks that its cases reach every outcome, ties included.

The test of a working set's optimum is one pass as well, which computes
each cable's shift from floats, p_i . f - q_i, as it tests it, and on a
nearest set each held cable's descent the same way: its reference takes
shift_op (goal f - c) and A^+ (f - A t) by the array expressions, so the
two differ at the rounding level. They must make the same decision on
every seeded set and force, exact and nearest, and agree on the tensions
within 1e-12 N.

The per-cable arithmetic is passes too: the loop's start, the projection
of t_min clipped into the box, the move of a point along a step clipped
into the box (a blocked ratio step's move), the full ratio step, clipped
in the pass that looks for the blocking cable, and an iteration's held
vector and step, which the tests read off the products the loop takes.
Each must give the bytes of the numpy expression it replaces, on values
exactly at a bound and on signed zeros, and no solve may call np.minimum
or np.maximum.

Two passes stand for a product and round otherwise than it. t_min's
answer forms the descent A^+ (f - A t_min) as float sums: its verdict
must be the clip of the BLAS descent but within 3 eps ||A^+|| ||r|| of
the clip's edge, and every descent it answers for must pass the loop's
descent test. A solve's force residual is a float sum over A x - f,
within a few ulps of numpy's dot, and 2 at most on the seeded cases.

The two rank counts, of a structure matrix and of a free-column block,
are passes too, checked against the numpy expressions they replace on
seeded matrices of every rank, with singular values on both sides of the
cutoff, and on singular values exactly at it and one float either side.
On each of those blocks that has a free cable, the step before f is
rendered, the block's shift operator times goal r with the held cables'
entries set to 0.0 in a pass, must give the bytes of the shift operator
with its held rows zeroed times goal r on every free cable, and +0.0 on
every held one.

Both SVDs call LAPACK's gufunc without np.linalg.svd's wrapper, and the
norms of a new matrix take numpy's ufuncs without np.linalg.norm's. The
SVD must give np.linalg.svd's bytes on matrices and blocks of every rank
and width, raise its LinAlgError on NaN, with RuntimeWarning an error or
not, and a new matrix must solve with both wrappers disabled, to the bits
it gives with them.
"""

import math
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from cablehaptics import solver
from cablehaptics.geometry import ModuleAnchor, ModuleLayout, structure_matrix
from cablehaptics.simulation import default_validation_layout

ROUNDING = 1e-12
TOL = 1e-9
CASES = 2000


def reference_ratio_step(t, step, lo, hi, rounding):
    moving = np.abs(step) > rounding
    room = np.divide(
        np.where(step > 0, hi, lo) - t, step, out=np.full(len(t), np.inf), where=moving
    )
    blocking = int(room.argmin())
    if room[blocking] >= 1.0:
        return np.minimum(np.maximum(t + step, lo), hi), -1
    t = np.minimum(np.maximum(t + room[blocking] * step, lo), hi)
    t[blocking] = hi[blocking] if step[blocking] > 0 else lo[blocking]
    return t, blocking


def reference_worst(held, t, g, lo):
    """(into-box amounts, worst cable) of a working set's certificate: g at
    a held cable's floor, -g at its ceiling, -inf on a free cable."""
    into_box = np.where(held, np.where(t <= lo, g, -g), -np.inf)
    return into_box, int(into_box.argmax())


def reference_certificate(held, x, d, lo, hi, tol):
    """The descent test before f is rendered: no held cable's descent d
    points into the box by more than tol."""
    return not np.count_nonzero(held & (((d > tol) & (x < hi)) | ((d < -tol) & (x > lo))))


def reference_release(held, t, d, lo, tol):
    """The held mask after the descent test: the held cable whose descent
    points furthest into the box is released if that is more than tol."""
    held = held.copy()
    into_box = np.where(held, np.where(t <= lo, d, -d), -np.inf)
    if into_box.max() > tol:
        held[into_box.argmax()] = False
    return held


def reference_wrong_multipliers(held, t, shift, lo):
    """How far each held cable's multiplier has the wrong sign, -inf on a
    free cable: t_min + shift - t is minus a held cable's multiplier at a
    floor and its multiplier at a ceiling. The multiplier test fails on
    the worst of them if that is more than the rounding."""
    toward = lo + shift - t
    return np.where(held, np.where(t <= lo, toward, -toward), -np.inf)


def random_case(rng, m):
    """Per-cable bounds on a dyadic grid, a box point with cables at a floor,
    at a ceiling and free, and a second vector whose entries include zeros,
    values inside and on the edge of the +-TOL and +-ROUNDING bands, and
    repeats of other entries (so ties are common)."""
    lo = rng.integers(0, 4, m) / 4.0
    hi = lo + rng.integers(1, 24, m) / 4.0
    where = rng.integers(0, 3, m)
    interior = lo + (hi - lo) * rng.integers(1, 8, m) / 8.0
    t = np.where(where == 0, lo, np.where(where == 1, hi, interior))
    if rng.random() < 0.2:
        t = interior  # no cable at a bound
    v = rng.normal(size=m) * 10.0 ** rng.integers(-13, 1, m)
    kind = rng.integers(0, 8, m)
    band = rng.choice([TOL, ROUNDING])
    v = np.where(kind == 0, 0.0, v)
    v = np.where(kind == 1, band * rng.uniform(-1.0, 1.0, m), v)
    v = np.where(kind == 2, band * rng.choice([-1.0, 1.0], m), v)
    v = np.where(kind == 3, rng.integers(-8, 9, m) / 4.0, v)
    if rng.random() < 0.1:
        v = ROUNDING * rng.uniform(-1.0, 1.0, m)  # nothing moves
    if m > 1 and rng.random() < 0.5:
        # copy one cable onto another, an exact tie in every decision
        i, j = rng.choice(m, 2, replace=False)
        lo[j], hi[j], t[j], v[j] = lo[i], hi[i], t[i], v[i]
    return lo, hi, t, v


def cases(seed):
    rng = np.random.default_rng(seed)
    for k in range(CASES):
        yield random_case(rng, 1 + k % 8), rng


def is_tie(values, index):
    """More than one entry of values equals values[index]."""
    return np.count_nonzero(values == values[index]) > 1


def held_mask(t, lo, hi, rng):
    """The cables of t on a bound, less some released ones in a third of
    the cases: a released cable may sit on its bound, free."""
    held = (t <= lo) | (t >= hi)
    if rng.random() < 0.3:
        held = held & rng.integers(0, 2, len(t)).astype(bool)
    return held


def test_certificate_matches_reference():
    outcomes = set()
    for (lo, hi, x, d), rng in cases(1):
        held = held_mask(x, lo, hi, rng)
        expected = reference_certificate(held, x, d, lo, hi, TOL)
        _, into_box = solver._worst((~held).tolist(), x.tolist(), d.tolist(), lo.tolist())
        got = into_box <= TOL
        assert got is expected
        outcomes.add((got, bool(held.any())))
    assert outcomes == {(True, True), (False, True), (True, False)}


def check_ratio_step(lo, hi, t, step):
    """_ratio_step against the reference: (blocking, any cable moving, the
    tie count of the blocking cable, the clip outcomes of a full step)."""
    expected, blocking = reference_ratio_step(t, step, lo, hi, ROUNDING)
    got, got_blocking = solver._ratio_step(t.tolist(), step.tolist(), box_of(lo, hi))
    assert got_blocking == blocking
    assert np.array(got).tobytes() == expected.tobytes()
    moving = np.abs(step) > ROUNDING
    if blocking < 0:
        # a full step is clipped in the pass that looks for the blocking cable
        return blocking, bool(moving.any()), 0, move_outcomes(t + step, lo, hi)
    room = np.divide(
        np.where(step > 0, hi, lo) - t, step, out=np.full(len(t), np.inf), where=moving
    )
    return blocking, bool(moving.any()), is_tie(room, blocking), set()


def test_ratio_step_matches_reference():
    outcomes, ties, full_clips = set(), 0, set()
    for (lo, hi, t, step), rng in cases(2):
        if rng.random() < 0.5:
            # a short step, so the full step is taken
            step = step * 1e-3
        blocking, moving, tie, clips = check_ratio_step(lo, hi, t, step)
        outcomes.add((blocking >= 0, moving))
        ties += tie
        full_clips |= clips
    # dyadic steps that land exactly on a bound, and signed zeros
    rng = np.random.default_rng(12)
    for k in range(CASES):
        lo, hi, t, step, _ = arithmetic_case(rng, 1 + k % 8)
        blocking, moving, tie, clips = check_ratio_step(lo, hi, t, step)
        outcomes.add((blocking >= 0, moving))
        ties += tie
        full_clips |= clips
    # blocked, the whole step taken, and no cable moving at all
    assert outcomes == {(True, True), (False, True), (False, False)}
    assert ties > 20
    # full steps clipped from beyond a bound, landing exactly on one, and
    # landing on a zero of the other sign than a zero bound
    assert full_clips == MOVE_OUTCOMES


def test_release_matches_reference():
    released, ties = set(), 0
    for (lo, hi, t, d), rng in cases(3):
        held = held_mask(t, lo, hi, rng)
        expected = reference_release(held, t, d, lo, TOL)
        free = (~held).tolist()
        # the loop's release after the descent test
        pick, into_box = solver._worst(free, t.tolist(), d.tolist(), lo.tolist())
        if into_box > TOL:
            assert not free[pick]
            free[pick] = True
            ties += is_tie(np.where(held, np.where(t <= lo, d, -d), -np.inf), pick)
        np.testing.assert_array_equal(~np.array(free), expected)
        released.add((bool(into_box > TOL), bool(held.any())))
    assert released == {(True, True), (False, True), (False, False)}
    assert ties > 20


def test_worst_multiplier_matches_reference():
    outcomes, ties = set(), 0
    for (lo, hi, t, shift), rng in cases(5):
        held = held_mask(t, lo, hi, rng)
        wrong = reference_wrong_multipliers(held, t, shift, lo)
        worst = int(wrong.argmax())
        certified = bool(wrong[worst] <= ROUNDING)
        # the loop's step toward the set's optimum, shift stubbed, then its test
        fac = SimpleNamespace(rows=Product(np.zeros(1)))
        blk = SimpleNamespace(shift_op=ShiftOp(shift))
        free = (~held).tolist()
        _, _, toward = solver._toward(fac, blk, free, np.zeros(1), t.tolist(), lo.tolist())
        got_worst, got_amount = solver._worst(free, t.tolist(), toward, lo.tolist())
        assert (got_amount <= ROUNDING) is certified
        if held.any():
            assert got_worst == worst
            assert np.float64(got_amount).tobytes() == wrong[worst].tobytes()
            ties += is_tie(wrong, worst)
        else:
            assert (got_worst, got_amount) == (-1, -np.inf)
        outcomes.add((certified, bool(held.any())))
    assert outcomes == {(True, True), (False, True), (True, False)}
    assert ties > 20


def test_worst_matches_reference():
    outcomes, ties = set(), 0
    for (lo, hi, t, g), rng in cases(4):
        held = held_mask(t, lo, hi, rng)
        into_box, worst = reference_worst(held, t, g, lo)
        got_worst, got_amount = solver._worst((~held).tolist(), t.tolist(), g.tolist(), lo.tolist())
        if held.any():
            assert got_worst == worst
            assert np.float64(got_amount).tobytes() == into_box[worst].tobytes()
            ties += is_tie(into_box, worst)
        else:
            assert (got_worst, got_amount) == (-1, -np.inf)
        # the descent test's threshold and the multiplier test's
        for threshold in (TOL, ROUNDING):
            outcomes.add((bool(got_amount <= threshold), bool(held.any())))
    assert outcomes == {(True, True), (False, True), (True, False)}
    assert ties > 20


def reference_move(t, fraction, step, lo, hi):
    return np.minimum(np.maximum(t + fraction * step, lo), hi)


def arithmetic_case(rng, m):
    """Per-cable bounds whose floors include 0.0 and -0.0, or, in a tenth of
    the cases, whose ceilings are 0.0 or -0.0, a box point, a step and a
    fraction. On the dyadic grid the moved values land exactly on a bound,
    inside the box and beyond either bound; some entries of the point and
    the step are signed zeros, so a moved value can be a zero of the other
    sign than a zero bound. In a fifth of the cases the step and the
    fraction are arbitrary floats instead."""
    lo = rng.choice([0.0, -0.0, 0.25, 0.5], m)
    hi = lo + rng.integers(1, 24, m) / 4.0
    t = lo + (hi - lo) * rng.integers(0, 9, m) / 8.0
    if rng.random() < 0.1:
        lo, t, hi = lo - hi, t - hi, rng.choice([0.0, -0.0], m)
    zero = ((lo == 0.0) | (hi == 0.0)) & (rng.random(m) < 0.5)
    t = np.where(zero, rng.choice([0.0, -0.0], m), t)
    step = (hi - lo) * rng.integers(-12, 13, m) / 8.0
    step = np.where(rng.random(m) < 0.2, rng.choice([0.0, -0.0], m), step)
    fraction = float(rng.choice([1.0, 0.5, 0.25, 0.0]))
    if rng.random() < 0.2:
        step = rng.normal(size=m) * 10.0 ** rng.integers(-3, 2)
        fraction = float(rng.uniform(0.0, 1.0))
    return lo, hi, t, step, fraction


def move_outcomes(moved, lo, hi):
    """Which of: below the floor, exactly on it, inside, exactly on the
    ceiling, above it, and a zero of the other sign than a zero floor or
    ceiling."""
    found = set()
    for v, lo_i, hi_i in zip(moved.tolist(), lo.tolist(), hi.tolist()):
        if v < lo_i:
            found.add("below")
        elif v == lo_i:
            found.add("floor")
        elif v < hi_i:
            found.add("inside")
        else:
            found.add("ceiling" if v == hi_i else "above")
        for bound, name in ((lo_i, "signed zero floor"), (hi_i, "signed zero ceiling")):
            if v == bound == 0.0 and np.signbit(v) != np.signbit(bound):
                found.add(name)
    return found


MOVE_OUTCOMES = {
    "below", "floor", "inside", "ceiling", "above", "signed zero floor", "signed zero ceiling"
}


def test_projection_clip_matches_reference():
    """The loop's start, the projection of t_min clipped into the box:
    _move(lo, 1.0, A^+ (f - A lo), lo, hi), one pass, against the array
    clip."""
    rng = np.random.default_rng(7)
    outcomes, floors = set(), set()
    for k in range(CASES):
        lo, hi, _, towards, _ = arithmetic_case(rng, 1 + k % 8)
        expected = np.minimum(np.maximum(lo + towards, lo), hi)
        got = solver._move(lo.tolist(), 1.0, towards.tolist(), lo.tolist(), hi.tolist())
        assert np.array(got).tobytes() == expected.tobytes()
        on_floor = tuple(got) == tuple(lo.tolist())
        outcomes |= move_outcomes(lo + towards, lo, hi)
        floors.add((on_floor, bool((lo == 0.0).any())))
    # every cable on its floor, zero floors included, and not
    assert outcomes == MOVE_OUTCOMES
    assert floors == {(True, True), (True, False), (False, True), (False, False)}
    # the starts of real problems, m = 3..8: forces of t_min, of t_max and
    # of a point between, whose steps are the rounding or land on t_max,
    # and random forces; zero floors are among the floors
    rng = np.random.default_rng(30)
    ties = on_zero_floors = 0
    for k in range(600):
        m = 3 + k % 6
        M = rng.normal(size=(3, m))
        M /= np.linalg.norm(M, axis=0)
        lo = rng.choice([0.0, 0.0, 0.5, 1.0], m)
        hi = lo + rng.choice([0.5, 2.0, 6.0], m)
        pinv = np.linalg.pinv(M)
        for f in (M.dot(rng.choice([lo, hi, lo + 0.5 * (hi - lo)])), rng.normal(size=3)):
            towards = pinv.dot(f - M.dot(lo))
            expected = np.minimum(np.maximum(lo + towards, lo), hi)
            got = solver._move(lo.tolist(), 1.0, towards.tolist(), lo.tolist(), hi.tolist())
            assert np.array(got).tobytes() == expected.tobytes()
            on_floor = tuple(got) == tuple(lo.tolist())
            ties += any(v == hi_i for v, hi_i in zip((lo + towards).tolist(), hi.tolist()))
            on_zero_floors += on_floor and bool((lo == 0.0).any())
    # 3 starts tie at t_max, and 221 leave every cable, some at 0.0, on its floor
    assert ties >= 1 and on_zero_floors >= 100


EPS = float(np.finfo(float).eps)


def floor_cases(seed, count):
    """(fac, box, a_lo, f) on count seeded matrices, m = 3..8, shared and
    per-cable bounds with zero floors among them: per matrix, random
    forces and forces placed on the edge of the t_min cone, where the
    descent A^+ (f - A t_min) of its largest cable is 0 but for rounding,
    and a few eps of ||r|| either side of it."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = 3 + k % 6
        M = rng.normal(size=(3, m))
        M /= np.linalg.norm(M, axis=0)
        floors = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 1.0, m))
        if k % 2:
            bounds = solver.TensionBounds(float(floors[0]), float(floors[0] + rng.uniform(0.5, 8.0)))
        else:
            bounds = tuple(
                solver.TensionBounds(float(lo), float(lo + rng.uniform(0.5, 8.0))) for lo in floors
            )
        fac = solver._factorization(M)
        box, a_lo, _, _ = fac.box(bounds)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        for r in rng.normal(scale=scale, size=(2, 3)):
            yield fac, box, a_lo, a_lo + r
        # -A w, w >= 0, has a descent below 0 on most cables; its largest
        # cable is moved onto the edge
        for w in rng.uniform(0.0, scale, size=(3, m)):
            r = -M.dot(w)
            d = fac.pinv.dot(r)
            p = fac.pinv[d.argmax()]
            edge = r - (d.max() / p.dot(p)) * p
            step = EPS * np.linalg.norm(edge) / np.linalg.norm(p) * p
            for j in range(-4, 5):
                yield fac, box, a_lo, a_lo + (edge + j * step)


def test_floor_pass_matches_reference():
    """t_min's answer, the float pass over A^+'s rows (_floor_residual),
    against the clip of the descent the loop forms with BLAS. Wherever the
    pass answers t_min, pinv @ (f - A t_min) passes the loop's descent
    test, every component at or below tol / 10. Its verdict is that of
    np.all(np.maximum(lo + pinv @ (f - A lo), lo) == lo), but where the
    descent lies within 3 eps ||A^+|| ||r|| of the clip's edge, where the
    two sums may round to either side; those cases are counted."""
    tol = 1e-8
    verdicts, near, disagree = Counter(), 0, 0
    for fac, box, a_lo, f in floor_cases(34, 600):
        lo = box.lo
        r = f - a_lo
        d = fac.pinv @ r
        root = float(np.linalg.norm(r))
        got = solver._floor_residual(fac, box, f.tolist(), a_lo.tolist(), tol)
        # the conditions under which t_min may answer, at the rounding of
        # these residuals of 0.01 N and more far inside them
        assert root > tol and EPS * box.hi_sum <= tol * 0.1
        assert 16.0 * EPS * fac.goal_norm * (root + 2.0 * box.hi_sum) <= tol * 0.1
        if got is not None:
            assert d.max() <= tol * 0.1
            assert abs(got - root) <= 4 * math.ulp(root)
        expected = bool(np.all(np.maximum(lo + d, lo) == lo))
        bound = 3.0 * EPS * fac.goal_norm * root
        ambiguous = bool(np.all(lo + (d - bound) <= lo)) != bool(np.all(lo + (d + bound) <= lo))
        near += ambiguous
        if (got is not None) != expected:
            assert ambiguous
            disagree += 1
        verdicts[got is not None, expected] += 1
    # both verdicts, and many cases near the edge, on a few of which the
    # two sums round to either side: 4,360 and 12,914 agreeing verdicts of
    # 17,400, and 126 disagreeing among 7,697 near the edge
    assert verdicts[True, True] > 2000 and verdicts[False, False] > 2000, verdicts
    assert near > 3000 and 0 < disagree <= near // 20, (near, disagree)


def test_residual_matches_reference():
    """_rendering's residual, the float sum over (A x - f).tolist(), against
    numpy's math.sqrt(miss.dot(miss)) of the same arrays: within 2 ulps on
    seeded cases, from forces that x renders to the rounding to forces
    far from it, and the same tensions and rendered force to the bit."""
    rng = np.random.default_rng(35)
    ulps = Counter()
    for k in range(6000):
        m = 3 + k % 6
        M = rng.normal(size=(3, m))
        M /= np.linalg.norm(M, axis=0)
        x = rng.uniform(0.0, 8.0, m) * 10.0 ** rng.uniform(-3.0, 3.0)
        f = M.dot(x) + rng.normal(size=3) * 10.0 ** rng.uniform(-16.0, 3.0)
        got = solver._rendering(SimpleNamespace(matrix=M), x.tolist(), f.tolist())
        assert got[0].tobytes() == x.tobytes()
        assert got[1].tobytes() == M.dot(x).tobytes()
        miss = got[1] - f
        expected = math.sqrt(miss.dot(miss))
        ulps[abs(int(np.float64(got[2]).view(np.int64)) - int(np.float64(expected).view(np.int64)))] += 1
    assert max(ulps) <= 2, ulps
    # most agree to the bit: 5,624 of 6,000, and the rest by 1 ulp
    assert ulps[0] > 5000, ulps


def test_ratio_step_move_matches_reference():
    """The ratio step's move, before its blocking cable is set on its bound."""
    rng = np.random.default_rng(8)
    outcomes, fractions = set(), set()
    for k in range(CASES):
        lo, hi, t, step, fraction = arithmetic_case(rng, 1 + k % 8)
        expected = reference_move(t, fraction, step, lo, hi)
        got = solver._move(t.tolist(), fraction, step.tolist(), lo.tolist(), hi.tolist())
        assert np.array(got).tobytes() == expected.tobytes()
        outcomes |= move_outcomes(t + fraction * step, lo, hi)
        fractions.add(fraction if fraction in (0.0, 1.0) else "between")
    assert outcomes == MOVE_OUTCOMES
    assert fractions == {0.0, 1.0, "between"}


class Product:
    """A cached operator of a stand-in factorization: records each vector
    it multiplies and returns a fixed result."""

    def __init__(self, result):
        self.result, self.operands = np.asarray(result), []

    def dot(self, v):
        self.operands.append(np.array(v))
        return self.result


class ShiftOp(Product):
    """A stand-in shift operator: a Product for vectors, and a zero force
    map, one triple per cable, for the goal operator, a matrix."""

    def dot(self, v):
        if np.ndim(v) == 2:
            return np.zeros((len(self.result), 3))
        return super().dot(v)


def box_of(lo, hi):
    """The _Box of the bound arrays lo and hi."""
    hi_floats = tuple(hi.tolist())
    return solver._Box(lo, ROUNDING, tuple(lo.tolist()), hi_floats, sum(hi_floats))


def first_step(monkeypatch, fac, t, box, f):
    """The step the loop's first iteration hands the ratio step from the
    box point t, a list, its free set read from t, on the stand-in
    factorization fac, for the force f, with the ratio step blocked so
    that the one iteration ends there."""
    steps = []

    def ratio_step(t, step, box):
        steps.append(step)
        return t, 0  # blocked, so the one iteration ends there

    monkeypatch.setattr(solver, "_ratio_step", ratio_step)
    result = solver._active_set(fac, box, solver._Kept(), t, np.array(f), f, 1e-8, 1)
    assert result.status is solver.SolveStatus.ITERATION_CAP and len(steps) == 1
    assert type(steps[0]) is list and list(map(type, steps[0])) == [float] * len(t)
    return np.array(steps[0])


def phase_2_iteration(monkeypatch, t, lo, hi, shift):
    """(held vector, step) of one iteration from the box point t, which
    renders f, with rows^T lam stubbed to give shift: the vector the
    iteration multiplies by rows and the step it hands the ratio step."""
    f = [0.0, 0.0, 1.0]
    rows = Product(np.zeros(1))
    blk = SimpleNamespace(rank=1, shift_op=ShiftOp(shift))
    # A t renders f exactly, so the target is rows t from the start
    fac = SimpleNamespace(matrix=Product(f), rows=rows, rank=1, block=lambda free: blk)
    step = first_step(monkeypatch, fac, t.tolist(), box_of(lo, hi), f)
    # rows multiplies t for the target, then the held vector
    assert len(rows.operands) == 2 and rows.operands[0].tobytes() == t.tobytes()
    return rows.operands[1], step


def test_phase_2_held_vector_and_step_match_reference(monkeypatch):
    rng = np.random.default_rng(9)
    signed_floors, zero_steps = 0, 0
    for k in range(CASES):
        m = 1 + k % 8
        lo, hi, t, shift, _ = arithmetic_case(rng, m)
        shift = np.where(rng.random(m) < 0.2, rng.choice([0.0, -0.0], m), shift)
        if k % 4 == 1:
            # signed-zero floors, which the pass keeps as it finds them
            # (TensionBounds stores a -0.0 floor as 0.0): a free cable
            # puts its -0.0 floor into the held vector, a cable at a zero
            # floor is held with t's sign, and a shift that reaches t
            # exactly gives a free cable a zero step
            lo, hi = rng.choice([0.0, -0.0], m), np.ones(m)
            t = np.where(rng.random(m) < 0.6, 0.5, rng.choice([0.0, -0.0, 1.0], m))
            shift = rng.choice([0.0, -0.0, 0.5, 0.25], m)
        # the loop reads its free set from t
        free = (lo < t) & (t < hi)
        if k % 10 == 0:
            # every cable free, or every cable on a bound
            t = (lo + hi) / 2.0 if k % 20 == 0 else np.where(rng.random(m) < 0.5, lo, hi)
            free = (lo < t) & (t < hi)
            assert free.all() if k % 20 == 0 else not free.any()
        held, step = phase_2_iteration(monkeypatch, t, lo, hi, shift)
        assert held.tobytes() == np.where(free, lo, t).tobytes()
        expected = np.where(free, lo + shift - t, 0.0)
        assert step.tobytes() == expected.tobytes()
        signed_floors += np.count_nonzero(free & (lo == 0.0) & np.signbit(lo))
        zero_steps += np.count_nonzero(free & (expected == 0.0))
    # free cables on a -0.0 floor, and free cables whose step is zero
    assert signed_floors > 20 and zero_steps > 20


def reference_optimum(fac, ws, f, box, tol):
    """The tensions a working set answers f with, by the array expressions
    over shift_op (goal f - c), or None: every free cable inside the box
    by more than the margin, and, for an exact set, every held cable's
    multiplier of its bound's sign by more than it and a residual within
    tol; for a nearest set, a free block of full column rank, every held
    cable's descent A^+ (f - A t) pointing out of the box by more than
    phase 1's threshold and a residual above tol and 64 rounding levels."""
    blk = fac.block(ws.free)
    free, held = np.array(ws.free), np.array(ws.held)
    shift = blk.shift_op.dot(fac.goal.dot(f) - fac.rows.dot(held))
    lo, hi = box.lo, np.array(box.hi_floats)
    margin = box.rounding + tol * blk.drift
    t = np.where(free, held + shift, held)
    inside = (lo + margin < t) & (t < hi - margin)
    miss = fac.matrix @ t - f
    residual = np.sqrt(miss @ miss)
    if blk.rank == fac.rank:
        mu = held - lo - shift
        signed = np.where(held <= lo, mu, -mu) > margin
        ok = np.where(free, inside, signed).all() and residual <= tol
        return t if ok else None
    assert blk.rank == free.sum()
    level = np.finfo(float).eps * fac.goal_norm * (np.abs(f).max() + t.sum())
    descent = fac.pinv @ (f - fac.matrix @ t)
    out = np.where(held <= lo, -descent, descent) > max(tol / 10, 16 * level)
    ok = np.where(free, inside, out).all() and residual > max(tol, 64 * level)
    return t if ok else None


def optimum_cases(seed, count):
    """(fac, working set, force, box, tol) on count seeded matrices: m =
    3..8, every fourth planar (rank 2), shared or per-cable bounds, a
    tolerance from 1e-12 to 0.5, and each of eight forces tried on every
    set the matrix's solves certified, exact and nearest, and on random
    sets: exact ones, whose free cables reach the matrix's rank, and
    nearest ones, whose free cables have full column rank below it."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = 3 + k % 6
        if k % 4 == 0:
            angles = rng.uniform(0.0, 2 * np.pi, m)
            M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
        else:
            M = rng.normal(size=(3, m))
        M = M / np.linalg.norm(M, axis=0)
        if k % 2:
            bounds = solver.TensionBounds(float(rng.uniform(0.0, 1.0)), float(rng.uniform(2.0, 8.0)))
        else:
            bounds = [
                solver.TensionBounds(float(lo), float(lo + rng.uniform(0.5, 8.0)))
                for lo in rng.uniform(0.0, 1.0, m)
            ]
        tol = 10.0 ** rng.uniform(-12.0, np.log10(0.5))
        forces = rng.normal(size=(8, 3)) * 10.0 ** rng.uniform(-1.0, 1.0)
        if k % 4 == 0:
            forces[:, 2] = 0.0
        config = solver.SolverConfig(tolerance=tol)
        for f in forces:
            solver.solve(M, f, bounds, config)
        fac = solver._factorization(M)
        box, _, _, kept = fac.box(bounds)
        sets = [*kept.sets.values(), *kept.nearest_sets.values()]
        lo, hi = box.lo_floats, box.hi_floats
        for free in rng.random((4, m)) < 0.6:
            blk = fac.block(free.tolist())
            if blk.rank in (fac.rank, free.sum()):
                t = [h if up else b for b, h, up in zip(lo, hi, rng.random(m) < 0.3)]
                held = [b if up else h for b, h, up in zip(lo, t, free)]
                c = fac.rows.dot(np.array(held))
                sets.append(solver._working_set(fac, blk, free.tolist(), held, c))
        for ws in sets:
            for f in forces:
                yield fac, ws, f, box, tol


def test_optimum_matches_reference():
    accepted, rejected = Counter(), Counter()
    ranks, gap = set(), 0.0
    for fac, ws, f, box, tol in optimum_cases(27, 600):
        expected = reference_optimum(fac, ws, f, box, tol)
        # a set is nearest where its free block's rank is below A's
        nearest = fac.block(ws.free).rank < fac.rank
        optimum = solver._nearest_optimum if nearest else solver._optimum
        got = optimum(fac, ws, f.tolist(), box, tol)
        assert (got is None) == (expected is None)
        if got is None:
            rejected[nearest] += 1
            continue
        x, rendered, residual = got
        gap = max(gap, float(np.abs(x - expected).max()))
        assert rendered.tobytes() == fac.matrix.dot(x).tobytes()
        assert (residual > tol) is nearest
        accepted[nearest] += 1
        ranks.add((fac.rank, nearest))
    assert gap <= 1e-12
    # exact sets: 1,345 accepted and 18,471 rejected; nearest sets: 2,596
    # accepted and 14,932 rejected
    assert accepted[False] > 1000 and rejected[False] > 10000, accepted
    assert accepted[True] > 1000 and rejected[True] > 10000, rejected
    assert ranks == {(2, False), (3, False), (2, True), (3, True)}


def reference_factorization(M):
    """(rank, goal, rows_t, pinv) of M by the array expressions."""
    u, sv, vt = np.linalg.svd(M)
    rank = int(np.sum(sv > solver.RANK_REL_TOL * sv[0])) if sv[0] > 0 else 0
    rows_t = np.ascontiguousarray(vt[:rank].T)
    goal = u[:, :rank].T / sv[:rank, None]
    return rank, goal, rows_t, rows_t @ goal


def reference_block(rows, rows_t, free):
    """(u, rank, shift_op) of rows[:, free] by the array expressions."""
    u, sv, _ = np.linalg.svd(rows[:, free])
    rank = int((sv > solver.RANK_REL_TOL).sum())
    shift_op = rows_t @ ((u[:, :rank] / sv[:rank] ** 2) @ u[:, :rank].T)
    return u, rank, shift_op


def phase_1_step(monkeypatch, blk, free, g):
    """The step one iteration hands the ratio step before f is rendered, on
    the block blk of the mask free, with goal r stubbed to give g: the
    start leaves each free cable inside the box [0, 1] and each held one
    on a bound, and misses f."""
    start = np.where(free, 0.5, np.where(np.arange(len(free)) % 2, 1.0, 0.0))
    fac = SimpleNamespace(
        matrix=Product(np.zeros(3)),
        rows=None,
        goal=Product(g),
        rank=blk.rank,
        block=lambda mask: blk,
    )
    box = box_of(np.zeros(len(free)), np.ones(len(free)))
    return first_step(monkeypatch, fac, start.tolist(), box, [0.0, 0.0, 1.0])


def rank_case(rng, m):
    """A 3 x m matrix: unit columns in general position, a product of seeded
    singular vectors and values where some value sits within a factor of
    two of the relative cutoff, or unit columns in a plane, tilted out of it
    by up to a few cutoffs, with one column normal to it, so that a block
    that holds that column has a singular value near the cutoff."""
    kind = rng.integers(0, 3)
    if kind == 0:
        M = rng.normal(size=(3, m))
    elif kind == 1:
        k = min(3, m)
        u = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :k]
        v = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :k]
        s = np.full(k, rng.uniform(0.5, 2.0))
        for i in range(1, k):
            near = solver.RANK_REL_TOL * 2.0 ** rng.uniform(-1, 1)
            s[i] *= rng.choice([rng.uniform(0.1, 1.0), 0.0, near])
        return u @ np.diag(np.sort(s)[::-1]) @ v.T
    else:
        angles = rng.uniform(0.0, 2 * np.pi, m)
        tilt = solver.RANK_REL_TOL * 2.0 ** rng.uniform(-2, 2, m) * rng.choice([0.0, 1.0], m)
        M = np.vstack([np.cos(angles), np.sin(angles), tilt])
        M[:, 0] = [0.0, 0.0, 1.0]
    return M / np.linalg.norm(M, axis=0)


def near_cutoff(sv, cutoff):
    """Whether some singular value lies within a factor of four below
    cutoff, and whether one lies within a factor of four above it."""
    below = bool(np.any((sv > cutoff / 4) & (sv <= cutoff)))
    above = bool(np.any((sv > cutoff) & (sv < cutoff * 4)))
    return np.array([below, above])


def test_factorization_rank_matches_reference():
    rng = np.random.default_rng(5)
    ranks, near = set(), np.zeros(2, dtype=int)
    for k in range(1200):
        M = rank_case(rng, 1 + k % 8)
        fac = solver._Factorization(M)
        rank, goal, rows_t, pinv = reference_factorization(M)
        assert fac.rank == rank
        assert fac.goal.tobytes() == goal.tobytes()
        assert fac.rows_t.tobytes() == rows_t.tobytes()
        assert fac.pinv.tobytes() == pinv.tobytes()
        sv = np.linalg.svd(M)[1]
        ranks.add(rank)
        near += near_cutoff(sv, solver.RANK_REL_TOL * sv[0])
    assert ranks == {1, 2, 3}
    assert (near > 20).all(), near


def test_block_rank_matches_reference(monkeypatch):
    rng = np.random.default_rng(6)
    ranks, near = set(), np.zeros(2, dtype=int)
    # goal r for the steps, drawn apart so the matrices stay as seeded
    goals, steps = np.random.default_rng(60), 0
    for k in range(300):
        m = 1 + k % 8
        fac = solver._Factorization(rank_case(rng, m))
        masks = rng.integers(0, 2, (12, m)).astype(bool)
        masks[0] = False  # every cable held
        masks[1] = True  # every cable free
        masks[2] = True
        masks[2, 0] = False  # only the first cable held
        for free in masks:
            u, rank, shift_op = reference_block(fac.rows, fac.rows_t, free)
            blk = fac.block(free.tolist())
            assert blk.rank == rank
            assert blk.u.tobytes() == u.tobytes()
            assert blk.shift_op.tobytes() == shift_op.tobytes()
            if free.any():
                g = goals.normal(size=fac.rank)
                # the retired step operator: shift_op with the held rows zeroed
                operator = blk.shift_op.copy()
                operator[~free] = 0.0
                expected = operator.dot(g)
                step = phase_1_step(monkeypatch, blk, free, g)
                assert step[free].tobytes() == expected[free].tobytes()
                assert step[~free].tobytes() == np.zeros(np.count_nonzero(~free)).tobytes()
                steps += 1
            ranks.add(rank)
            near += near_cutoff(np.linalg.svd(fac.rows[:, free])[1], solver.RANK_REL_TOL)
    assert ranks == {0, 1, 2, 3}
    assert (near > 20).all(), near
    # 2,932 of the 3,600 blocks have a free cable
    assert steps > 2500


def test_all_zero_matrix_has_rank_zero():
    for m in range(1, 9):
        M = np.zeros((3, m))
        fac = solver._Factorization(M)
        assert fac.rank == reference_factorization(M)[0] == 0
        assert fac.block([True] * m).rank == 0


def test_rank_at_the_cutoff():
    largest = 1.7
    for cutoff, top in [(solver.RANK_REL_TOL * largest, largest), (solver.RANK_REL_TOL, 1.0)]:
        at = cutoff
        above = np.nextafter(cutoff, np.inf)
        below = np.nextafter(cutoff, 0.0)
        for tail, rank in [
            ([at], 1),
            ([above], 2),
            ([below], 1),
            ([above, at, below], 2),
            ([above, above, 0.0], 3),
            ([0.0], 1),
        ]:
            sv = np.array([top] + tail)
            if top == 1.0:
                expected = int((sv > solver.RANK_REL_TOL).sum())
            else:
                expected = int(np.sum(sv > solver.RANK_REL_TOL * sv[0]))
            assert expected == rank
            assert solver._rank(sv.tolist(), top) == rank
    assert solver._rank([0.0, 0.0, 0.0], 0.0) == 0


def of_rank(rng, m, rank):
    """A seeded 3 x m matrix with rank nonzero singular values."""
    k = min(3, m)
    u = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :k]
    v = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :k]
    s = np.zeros(k)
    s[:rank] = np.sort(rng.uniform(0.2, 2.0, rank))[::-1]
    return u @ np.diag(s) @ v.T


def assert_svd_bytes(M):
    u, sv, vt, values = solver._svd(M)
    ref_u, ref_sv, ref_vt = np.linalg.svd(M)
    assert u.tobytes() == ref_u.tobytes() and u.shape == ref_u.shape
    assert sv.tobytes() == ref_sv.tobytes() and sv.shape == ref_sv.shape
    assert vt.tobytes() == ref_vt.tobytes() and vt.shape == ref_vt.shape
    assert values == ref_sv.tolist()


def test_svd_matches_np_linalg_svd():
    rng = np.random.default_rng(15)
    ranks, widths = set(), set()
    for m in range(1, 9):
        for rank in range(min(3, m) + 1):
            for _ in range(25):
                M = of_rank(rng, m, rank)
                assert_svd_bytes(M)
                fac = solver._Factorization(M)
                assert fac.rank == rank
                ranks.add(rank)
                for free in rng.integers(0, 2, (4, m)).astype(bool):
                    assert_svd_bytes(fac.rows.compress(free, axis=1))
                    widths.add(int(free.sum()))
    assert ranks == {0, 1, 2, 3}
    assert widths == set(range(9))


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "warnings-as-errors"])
def test_nan_matrix_raises_linalg_error(strict):
    M = np.eye(3)
    M[1, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error" if strict else "default", RuntimeWarning)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            np.linalg.svd(M)
        if strict:
            # LAPACK's failure sets the invalid flag, whose warning is raised
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge") as raised:
                solver._Factorization(M)
            assert isinstance(raised.value.__cause__, RuntimeWarning)
        else:
            with pytest.warns(RuntimeWarning, match="invalid value encountered in svd_f"):
                with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                    solver._Factorization(M)


CUBE = ModuleLayout(
    tuple(
        ModuleAnchor(f"c{k + 1}", np.array(corner))
        for k, corner in enumerate(
            [(x, y, z) for z in (0.0, 2.0) for y in (-1.0, 1.0) for x in (-1.0, 1.0)]
        )
    )
)
VALIDATION_LAYOUT, VALIDATION_EE = default_validation_layout()

# (layout, end effector, force); the last solve's phase 2 meets a free
# block of rank 2 and releases a held cable for rank, the one branch that
# takes a norm inside the solver
FRESH_SOLVES = [
    (VALIDATION_LAYOUT, VALIDATION_EE, [0.3, -0.4, 1.2]),
    (VALIDATION_LAYOUT, [0.5, 0.5, 1.5], [0.0, 0.1, 0.0]),
    (VALIDATION_LAYOUT, [-0.8, 0.2, 0.3], [5.0, 5.0, -5.0]),
    (CUBE, [0.1, -0.3, 0.9], [0.0, 12.0, 1.0]),
    (CUBE, [-0.42, 0.42, 1.37], [0.0, 0.0, -0.7]),
]


def fresh_solve(layout, ee, force):
    solver._factorize.cache_clear()
    A = structure_matrix(layout, ee)
    result = solver.solve(A, force, layout.bounds)
    return (
        A.columns.tobytes(),
        result.status,
        result.iterations,
        result.tensions.tobytes(),
        result.rendered_force.tobytes(),
    )


def test_new_matrices_call_neither_numpy_linalg_wrapper(monkeypatch):
    recorded = [fresh_solve(*case) for case in FRESH_SOLVES]

    def refuse(*args, **kwargs):
        raise AssertionError("a new matrix called a numpy.linalg wrapper")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    assert [fresh_solve(*case) for case in FRESH_SOLVES] == recorded


def test_the_last_fresh_solve_releases_a_cable_for_rank(monkeypatch):
    norms = solver._norms
    calls = []

    def spy(x, axis):
        calls.append(axis)
        return norms(x, axis)

    monkeypatch.setattr(solver, "_norms", spy)
    fresh_solve(*FRESH_SOLVES[-1])
    assert calls


def seeded_solves(seed, count):
    """(status, iterations, tension, rendered-force and residual bytes) of
    count seeded solves: m = 3..8, columns in general position or in a plane,
    shared or per-cable bounds, now and then a cap of 1 to 4 iterations."""
    rng = np.random.default_rng(seed)
    solved = []
    for k in range(count):
        m = 3 + k % 6
        if rng.random() < 0.25:
            angles = rng.uniform(0.0, 2 * np.pi, m)
            M = np.vstack([np.cos(angles), np.sin(angles), np.zeros(m)])
        else:
            M = rng.normal(size=(3, m))
        M = M / np.linalg.norm(M, axis=0)
        if rng.random() < 0.5:
            bounds = solver.TensionBounds(float(rng.uniform(0.0, 1.0)), float(rng.uniform(2.0, 8.0)))
        else:
            bounds = [
                solver.TensionBounds(float(lo), float(lo + rng.uniform(0.5, 8.0)))
                for lo in rng.uniform(0.0, 1.0, m)
            ]
        config = solver.SolverConfig(
            max_iterations=int(rng.integers(1, 5)) if rng.random() < 0.2 else 50000
        )
        force = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 1.0)
        result = solver.solve(M, force, bounds, config)
        solved.append(
            (
                result.status,
                result.iterations,
                result.tensions.tobytes(),
                result.rendered_force.tobytes(),
                np.float64(result.force_residual).tobytes(),
            )
        )
    return solved


def test_solves_call_neither_np_minimum_nor_np_maximum(monkeypatch):
    recorded = [fresh_solve(*case) for case in FRESH_SOLVES], seeded_solves(16, 600)
    assert {status for status, *_ in recorded[1]} == set(solver.SolveStatus)

    def refuse(*args, **kwargs):
        raise AssertionError("a solve called np.minimum or np.maximum")

    monkeypatch.setattr(np, "minimum", refuse)
    monkeypatch.setattr(np, "maximum", refuse)
    assert ([fresh_solve(*case) for case in FRESH_SOLVES], seeded_solves(16, 600)) == recorded
