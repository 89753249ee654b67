"""Acceptance gate: ten full-scale behavioral criteria, one test (and one
pass/fail line) each.

Every check is exact — rational/Q(sqrt2) arithmetic end to end — except where
a floating-point oracle is itself the subject (criterion 7). Scales and time
limits are asserted inside the tests; run with ``-s`` to see the per-criterion
summary lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from kscolor import (
    Frame,
    GMatrix,
    GVector,
    ProjectionRep,
    QuadComplex,
    QuadHermitian,
    QuadRational,
    TruthValue,
    brute_force_coloring,
    build_graph,
    classify_element,
    classify_projection_matrix,
    classify_ray,
    classify_with_witness,
    false_ray_near,
    find_ks_coloring,
    frob_dist2,
    inner_product,
    is_valid_coloring,
    load_builtin,
    make_suitable_near,
    nearest_true_ray,
    nonorthogonality_certificate,
    norm2,
    perturb_to_suitable,
    psd_check,
    suitable_frame_near,
    truth_sum,
    v3,
    witness_shift,
)
from kscolor.fields import GaussianRational
from kscolor.kscheck import RaySet
from kscolor.povm import truth_sum as povm_truth_sum

SEED = 20260815


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d}: PASS — {detail}")


# ---------------------------------------------------------------------------
# random generators used across criteria


def random_true_ray_coords(rng: random.Random, n: int, max_den: int = 10**4):
    """Exact coordinates satisfying the ray trueness predicate, all lowest-
    terms denominators <= max_den."""
    coords = []
    num = rng.randint(1, max_den - 1)
    while num % 3 == 0:
        num = rng.randint(1, max_den - 1)
    coords.append(Fraction(num if rng.random() < 0.5 else -num,
                           3 * rng.randint(1, max_den // 3)))
    for _ in range(2 * n - 1):
        den = rng.randint(1, max_den)
        while den % 3 == 0:
            den = rng.randint(1, max_den)
        num = rng.randint(1, max_den - 1)
        coords.append(Fraction(num if rng.random() < 0.5 else -num, den))
    return coords


def random_unit_target(rng: random.Random, n: int) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(2 * n)]
        nrm = math.sqrt(sum(x * x for x in v))
        if nrm > 1e-6:
            return [x / nrm for x in v]


def random_orthonormal_target(rng: random.Random, n: int) -> list:
    basis = []
    while len(basis) < n:
        raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
        for u in basis:
            ip = sum(a.conjugate() * b for a, b in zip(u, raw))
            raw = [b - ip * a for a, b in zip(u, raw)]
        nrm = math.sqrt(sum(abs(x) ** 2 for x in raw))
        if nrm > 1e-6:
            basis.append([x / nrm for x in raw])
    rows = []
    for vec in basis:
        row = []
        for c in vec:
            row.append(c.real)
            row.append(c.imag)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# criterion 1 — certificates of non-orthogonality for TRUE ray pairs


def test_criterion_01_true_pair_certificates():
    rng = random.Random(SEED)
    pairs = 10**5
    orthogonal = 0
    t0 = time.monotonic()
    for k in range(pairs):
        u = GVector.from_reals(random_true_ray_coords(rng, 3))
        v = GVector.from_reals(random_true_ray_coords(rng, 3))
        if k % 100 == 0:
            assert classify_ray(u) is TruthValue.TRUE
            assert classify_ray(v) is TruthValue.TRUE
        re, val = nonorthogonality_certificate(u, v)
        assert val <= -2
        assert re != 0
        if re == 0:
            orthogonal += 1
    elapsed = time.monotonic() - t0
    assert orthogonal == 0
    assert elapsed <= 60.0
    report(1, f"{pairs} TRUE C^3 pairs, all v3<=-2 and nonzero, "
              f"0 orthogonal, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2 and 4 share one streamed pass over 10^4 suitable frames

FRAME_SPLIT = {3: 6000, 4: 2500, 5: 1500}


@pytest.fixture(scope="module")
def frame_stats():
    rng = random.Random(SEED + 2)
    eps = Fraction(1, 10**4)
    stats = {
        "total": 0,
        "one_true": 0,
        "eq1": 0,
        "exactly_orthogonal": 0,
        "elapsed": 0.0,
    }
    t0 = time.monotonic()
    for n, count in FRAME_SPLIT.items():
        for _ in range(count):
            res = suitable_frame_near(random_orthonormal_target(rng, n), eps)
            frame = res.object
            values = res.certificate
            stats["total"] += 1
            if values.count(TruthValue.TRUE) == 1:
                stats["one_true"] += 1
            if truth_sum(frame) == 1:
                stats["eq1"] += 1
            if all(
                inner_product(frame[i], frame[j]).is_zero()
                for i in range(n)
                for j in range(i + 1, n)
            ):
                stats["exactly_orthogonal"] += 1
    stats["elapsed"] = time.monotonic() - t0
    return stats


def test_criterion_02_frame_truth_sums(frame_stats):
    assert frame_stats["total"] >= 10**4
    assert frame_stats["one_true"] == frame_stats["total"]
    assert frame_stats["eq1"] == frame_stats["total"]
    report(2, f"{frame_stats['total']} suitable frames (dims 3-5), all with "
              f"exactly one TRUE leg and truth sum 1, "
              f"{frame_stats['elapsed']:.1f}s")


def test_criterion_04_frame_exact_orthogonality(frame_stats):
    assert frame_stats["exactly_orthogonal"] == frame_stats["total"]
    report(4, f"all {frame_stats['total']} frames pairwise exactly "
              f"orthogonal (no tolerance)")


# ---------------------------------------------------------------------------
# criterion 3 — density of TRUE and FALSE rays near arbitrary targets


def test_criterion_03_ray_density():
    rng = random.Random(SEED + 3)
    epsilons = [Fraction(1, 10**2), Fraction(1, 10**4), Fraction(1, 10**6)]
    per_dim = 10**3
    calls = 0
    t0 = time.monotonic()
    for n in (3, 4, 5):
        for _ in range(per_dim):
            target = random_unit_target(rng, n)
            for eps in epsilons:
                eps2 = eps * eps
                res = nearest_true_ray(target, eps)
                assert res.certificate is TruthValue.TRUE
                assert res.achieved_dist2 <= eps2
                res = false_ray_near(target, eps)
                assert res.certificate is TruthValue.FALSE
                assert res.achieved_dist2 <= eps2
                calls += 2
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0
    report(3, f"{calls} approximations (1000 targets x dims 3-5 x "
              f"eps 1e-2/1e-4/1e-6 x 2 ops), all exact d^2 <= eps^2, "
              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5 — matrix-level certificates and the trueness criterion oracle


def rank1_rep(vec: GVector) -> ProjectionRep:
    n = len(vec)
    return ProjectionRep(
        GMatrix([[vec[i] * vec[j].conjugate() for j in range(n)] for i in range(n)])
    )


def rank2_rep(vec: GVector) -> ProjectionRep:
    n = len(vec)
    s = GaussianRational(norm2(vec))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = -(vec[i] * vec[j].conjugate())
            if i == j:
                e = e + s
            row.append(e)
        rows.append(row)
    return ProjectionRep(GMatrix(rows))


def re_trace_product(a: GMatrix, b: GMatrix) -> Fraction:
    total = Fraction(0)
    ra, rb = a.rows, b.rows
    for i in range(a.n):
        for j in range(a.n):
            x, y = ra[i][j], rb[j][i]
            total += x.re * y.re - x.im * y.im
    return total


def test_criterion_05_matrix_pair_certificates():
    rng = random.Random(SEED + 5)

    # pool of TRUE representatives; both ranks attempted, rank-2 candidates
    # never qualify (their non-(1,1) diagonal entries are too large in the
    # 3-adic gap sense), so the TRUE pool is rank-1 in practice
    pool = []
    rank2_attempts = 0
    rank2_true = 0
    while len(pool) < 1200:
        vec = GVector.from_reals(random_true_ray_coords(rng, 3, max_den=200))
        r1 = rank1_rep(vec)
        if classify_projection_matrix(r1) is TruthValue.TRUE:
            pool.append(r1)
        if rank2_attempts < 600:
            rank2_attempts += 1
            r2 = rank2_rep(vec)
            if classify_projection_matrix(r2) is TruthValue.TRUE:
                rank2_true += 1
                pool.append(r2)
    shifts = [witness_shift(rep) for rep in pool]

    pairs = 10**4
    for _ in range(pairs):
        i = rng.randrange(len(pool))
        j = rng.randrange(len(pool))
        while j == i:
            j = rng.randrange(len(pool))
        retr = re_trace_product(pool[i].matrix, pool[j].matrix)
        assert retr != 0
        shifted_v3 = v3(shifts[i]) + v3(shifts[j]) + v3(retr)
        assert shifted_v3 <= -4

    # brute-force shift oracle: some power-of-3 rescaling puts the matrix in
    # the literal trueness form (9 | denominator at (1,1), all other nonzero
    # components at valuation >= -1, required components nonzero)
    checked = 0
    disagreements = 0
    while checked < 10**3:
        coords = []
        for _ in range(6):
            num = rng.randint(1, 60) * (-1 if rng.random() < 0.5 else 1)
            den = rng.randint(1, 60)
            coords.append(Fraction(num, den))
        try:
            rep = ProjectionRep.from_ray(GVector.from_reals(coords))
        except Exception:
            continue
        got = classify_projection_matrix(rep) is TruthValue.TRUE
        oracle = False
        for k in range(-10, 11):
            m = rep.matrix.scaled(GaussianRational(Fraction(3) ** k))
            rows = m.rows
            ok = True
            for i in range(m.n):
                for j in range(m.n):
                    re, im = rows[i][j].re, rows[i][j].im
                    if re == 0 or (i != j and im == 0):
                        ok = False
                        break
                    for c in [re] if i == j else [re, im]:
                        if (i, j) == (0, 0):
                            if v3(c) > -2:
                                ok = False
                        elif v3(c) < -1:
                            ok = False
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                oracle = True
                break
        if got is not oracle:
            disagreements += 1
        checked += 1
    assert disagreements == 0
    report(5, f"{pairs} TRUE rep pairs nonzero with shifted v3<=-4 "
              f"(pool {len(pool)}, rank-2 attempts {rank2_attempts}, "
              f"rank-2 TRUE {rank2_true}); oracle agreement {checked}/1000")


# ---------------------------------------------------------------------------
# criterion 6 — suitable POVMs near random targets


def random_float_povm(rng: random.Random, n: int, m: int) -> list:
    basis = []
    while len(basis) < n:
        raw = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
        for u in basis:
            ip = sum(a.conjugate() * b for a, b in zip(u, raw))
            raw = [b - ip * a for a, b in zip(u, raw)]
        nrm = math.sqrt(sum(abs(x) ** 2 for x in raw))
        if nrm > 1e-6:
            basis.append([x / nrm for x in raw])
    groups = [[] for _ in range(m)]
    order = list(range(n))
    rng.shuffle(order)
    for pos, k in enumerate(order):
        groups[pos % m].append(k)
    blend = 0.1 + 0.8 * rng.random()
    mats = []
    for grp in groups:
        mat = [[0.0 + 0.0j for _ in range(n)] for _ in range(n)]
        for k in grp:
            vec = basis[k]
            for i in range(n):
                for j in range(n):
                    mat[i][j] += vec[i] * vec[j].conjugate()
        for i in range(n):
            for j in range(n):
                mat[i][j] = (1.0 - blend) * mat[i][j]
            mat[i][i] += blend / m
        mats.append(mat)
    return mats


def lift_hermitian(mat: list) -> QuadHermitian:
    return QuadHermitian(
        [
            [
                QuadComplex(
                    QuadRational(Fraction(z.real)), QuadRational(Fraction(z.imag))
                )
                for z in row
            ]
            for row in mat
        ]
    )


def test_criterion_06_povm_suitability():
    rng = random.Random(SEED + 6)
    epsilons = [Fraction(1, 10**2), Fraction(1, 10**4)]
    instances = 100
    runs = 0
    t0 = time.monotonic()
    for _ in range(instances):
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)
        targets = random_float_povm(rng, n, m)
        lifted = [lift_hermitian(t) for t in targets]
        for eps in epsilons:
            dec = make_suitable_near(targets, eps)
            total = QuadHermitian.zeros(n)
            for e in dec:
                assert psd_check(e.matrix)
                total = total + e.matrix
            assert total == QuadHermitian.identity(n)
            values = [classify_element(e) for e in dec]
            assert values.count(TruthValue.TRUE) == 1
            assert povm_truth_sum(dec) == 1
            assert len(dec) == len(lifted)
            eps2 = eps * eps
            for e, target in zip(dec, lifted):
                assert frob_dist2(e.matrix, target) <= eps2
            runs += 1
    elapsed = time.monotonic() - t0
    report(6, f"{runs} suitable POVMs (2-5 elements, dims 2-4, eps 1e-2/1e-4): "
              f"exact identity sums, all PSD, exactly one TRUE, per-element "
              f"d^2 <= eps^2, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7 — exact PSD decision vs the floating eigenvalue oracle


def random_quad_hermitian(rng: random.Random, n: int) -> QuadHermitian:
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = QuadComplex(
            QuadRational(
                Fraction(rng.randint(-8, 8), rng.randint(1, 9)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 9)),
            )
        )
        for j in range(i + 1, n):
            re = QuadRational(
                Fraction(rng.randint(-8, 8), rng.randint(1, 9)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 9)),
            )
            im = QuadRational(
                Fraction(rng.randint(-8, 8), rng.randint(1, 9)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 9)),
            )
            rows[i][j] = QuadComplex(re, im)
            rows[j][i] = QuadComplex(re, -im)
    return QuadHermitian(rows)


def to_complex_array(h: QuadHermitian) -> np.ndarray:
    return np.array(
        [
            [complex(e.re.to_float(), e.im.to_float()) for e in row]
            for row in h.rows
        ]
    )


def test_criterion_07_psd_oracle_agreement():
    rng = random.Random(SEED + 7)
    checked = 0
    skipped = 0
    t0 = time.monotonic()
    while checked < 10**4:
        n = rng.randint(2, 5)
        h = random_quad_hermitian(rng, n)
        if rng.random() < 0.5:
            # shift into certain positive territory to balance the sample
            eig_min = float(np.linalg.eigvalsh(to_complex_array(h))[0])
            shift = Fraction(int(math.ceil((max(0.0, -eig_min) + 0.01) * 10**4)), 10**4)
            h = h + QuadHermitian.identity(n).scaled(QuadRational(shift))
        eig_min = float(np.linalg.eigvalsh(to_complex_array(h))[0])
        if abs(eig_min) < 1e-6:
            skipped += 1
            continue
        assert psd_check(h) is (eig_min > 0)
        checked += 1
    elapsed = time.monotonic() - t0
    report(7, f"{checked} random Hermitian Q(sqrt2) matrices (dims 2-5), "
              f"exact PSD decision matches eigenvalue oracle outside 1e-6 "
              f"dead band ({skipped} skipped), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8 — the exact coloring contradiction, cross-validated


def test_criterion_08_ks_contradiction():
    t0 = time.monotonic()
    rs33 = load_builtin("peres33")
    g33 = build_graph(rs33)
    assert find_ks_coloring(g33) is None
    solve_elapsed = time.monotonic() - t0
    assert solve_elapsed <= 10.0

    rng = random.Random(SEED + 8)
    rs24 = load_builtin("peres24")
    sat_instances = 0
    sub_instances = 0
    for rs, trials, max_k in ((rs33, 25, 20), (rs24, 10, 16)):
        for _ in range(trials):
            k = rng.randint(6, max_k)
            keep = sorted(rng.sample(range(len(rs)), k))
            sub = RaySet(
                rs.dimension,
                [rs.rays[i] for i in keep],
                [rs.labels[i] for i in keep],
            )
            g = build_graph(sub)
            fast = find_ks_coloring(g)
            slow = brute_force_coloring(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert is_valid_coloring(g, fast)
                assert is_valid_coloring(g, slow)
                sat_instances += 1
            sub_instances += 1
    assert sat_instances > 0
    report(8, f"peres33 UNSAT in {solve_elapsed:.2f}s; solver agrees with "
              f"brute force on {sub_instances} sub-instances (<=20 rays, "
              f"{sat_instances} SAT, all colorings checker-verified)")


# ---------------------------------------------------------------------------
# criterion 9 — dissolution of the contradiction at finite precision


def test_criterion_09_nullification_report():
    eps = Fraction(1, 10**4)
    t0 = time.monotonic()
    rep = perturb_to_suitable(load_builtin("peres33"), eps)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    assert rep.all_suitable
    assert len(rep.contexts) == 16
    for ctx in rep.contexts:
        assert ctx.truth_total == 1
        assert ctx.values.count(TruthValue.TRUE) == 1
        assert ctx.max_dist2 <= eps * eps
    assert rep.divergences
    assert all(d.distinct for d in rep.divergences)
    assert rep.all_shared_diverge
    report(9, f"peres33 at eps=1e-4: all 16 contexts suitable with sum "
              f"exactly 1, all {len(rep.divergences)} shared rays diverge "
              f"exactly, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 10 — the witnessless edge case and its mechanical core


def qh(rows) -> QuadHermitian:
    return QuadHermitian(
        [
            [
                e
                if isinstance(e, QuadComplex)
                else QuadComplex(QuadRational(Fraction(e)))
                for e in row
            ]
            for row in rows
        ]
    )


def test_criterion_10_no_witness_edge_case():
    a = qh([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 2)]])
    value, witness = classify_with_witness(a)
    assert value is TruthValue.UNDETERMINED_NO_WITNESS
    assert witness is None

    # mechanical core: a PSD matrix with zero (1,1) entry has an entirely
    # zero first row and column, so no rescaling can make it TRUE
    rng = random.Random(SEED + 10)
    rejected = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        h = random_quad_hermitian(rng, n)
        rows = [list(r) for r in h.rows]
        zero = QuadComplex(QuadRational(0))
        rows[0][0] = zero
        j = rng.randint(1, n - 1)
        if rows[0][j] == zero:
            rows[0][j] = QuadComplex(QuadRational(Fraction(1, 3)))
            rows[j][0] = QuadComplex(QuadRational(Fraction(1, 3)))
        assert not psd_check(QuadHermitian(rows))
        rejected += 1

    # and the sanity half: zero first row/column with a PSD lower block is
    # accepted, so the rejection above is specifically about the row
    ok = qh([[0, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
    assert psd_check(ok)
    report(10, f"diag(1,1/2,1/2) -> UNDETERMINED-NO-WITNESS; {rejected} "
               f"PSD candidates with zero (1,1) entry and a nonzero first "
               f"row all rejected")
