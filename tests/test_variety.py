import cmath
import math

import pytest

from powerhyper import (
    LinkSystem,
    PreconditionError,
    bezout_total,
    jacobian_nonsingular,
    nonzero_solution_count,
    origin_multiplicity,
    solve_link_variety,
    system_residual,
)


def test_system_validation():
    with pytest.raises(PreconditionError):
        LinkSystem(k=3, delta=1, mu=1)  # one variable only
    with pytest.raises(PreconditionError):
        LinkSystem(k=4, delta=1, mu=0)
    with pytest.raises(PreconditionError):
        LinkSystem(k=10, delta=0, mu=1)
    with pytest.raises(PreconditionError):
        LinkSystem(k=4, delta=2, mu=1)


def test_example_k4_delta1():
    rep = solve_link_variety(LinkSystem(k=4, delta=1, mu=1))
    assert rep.nonzero_total == 8
    assert rep.bezout == 9
    assert rep.origin_multiplicity == 1


def test_example_k3_delta0():
    rep = solve_link_variety(LinkSystem(k=3, delta=0, mu=1))
    assert rep.nonzero_total == 3
    assert rep.origin_multiplicity == 1
    assert rep.bezout == 4


def test_example_k4_delta0():
    rep = solve_link_variety(LinkSystem(k=4, delta=0, mu=1))
    assert rep.nonzero_total == 16
    assert rep.origin_multiplicity == 11
    assert rep.bezout == 27


def test_counts_match_closed_forms():
    for k in range(3, 8):
        for delta in (0, 1):
            if k - 1 - delta < 2:
                continue
            assert nonzero_solution_count(k, delta) == (
                k ** (k - 2) if delta == 0 else 2 * k ** (k - 3)
            )
            assert bezout_total(k, delta) == (k - 1) ** (k - 1 - delta)
            assert origin_multiplicity(k, delta) == bezout_total(k, delta) - nonzero_solution_count(k, delta)


def test_solutions_verified_and_distinct():
    for k, delta, mu in ((4, 1, 1), (4, 0, 2), (5, 1, 1 + 1j), (5, 0, 2)):
        sys_ = LinkSystem(k=k, delta=delta, mu=mu)
        rep = solve_link_variety(sys_)
        assert all(system_residual(sys_, p) <= 1e-12 for p in rep.nonzero_solutions)
        scale = abs(mu) ** -0.5 if delta == 1 else abs(mu) ** -1.0
        keys = set()
        for p in rep.nonzero_solutions:
            keys.add(tuple((round(z.real / scale, 6), round(z.imag / scale, 6)) for z in p))
        assert len(keys) == rep.nonzero_total
        # scaled minimum pairwise separation stays bounded away from zero
        sols = rep.nonzero_solutions
        if len(sols) <= 60:
            min_gap = min(
                max(abs(a - b) for a, b in zip(p, q))
                for i, p in enumerate(sols)
                for q in sols[i + 1 :]
            )
            assert min_gap / scale > 1e-6


def test_solution_magnitudes():
    # |p_i| is |mu|^(-1/2) for the two-sided family, |mu|^(-1) otherwise
    for mu in (2, 1 + 1j):
        rep1 = solve_link_variety(LinkSystem(k=5, delta=1, mu=mu))
        assert all(
            abs(abs(z) - abs(mu) ** -0.5) < 1e-12 for p in rep1.nonzero_solutions for z in p
        )
        rep0 = solve_link_variety(LinkSystem(k=5, delta=0, mu=mu))
        assert all(
            abs(abs(z) - abs(mu) ** -1.0) < 1e-12 for p in rep0.nonzero_solutions for z in p
        )


def test_root_of_unity_closure():
    # multiplying one coordinate by w and another by 1/w preserves the system
    k = 5
    sys_ = LinkSystem(k=k, delta=1, mu=1)
    rep = solve_link_variety(sys_)
    keys = {tuple((round(z.real, 6), round(z.imag, 6)) for z in p) for p in rep.nonzero_solutions}
    w = cmath.exp(2j * math.pi / k)
    for p in rep.nonzero_solutions[:10]:
        q = (p[0] * w, p[1] / w) + p[2:]
        assert system_residual(sys_, q) <= 1e-9
        assert tuple((round(z.real, 6), round(z.imag, 6)) for z in q) in keys


def test_jacobian_dominance():
    sys_ = LinkSystem(k=4, delta=1, mu=1)
    rep = solve_link_variety(sys_)
    assert all(jacobian_nonsingular(sys_, p) for p in rep.nonzero_solutions)
    sys5 = LinkSystem(k=5, delta=0, mu=2)
    rep5 = solve_link_variety(sys5)
    assert all(jacobian_nonsingular(sys5, p) for p in rep5.nonzero_solutions)


def test_jacobian_at_origin_fails():
    for k, delta in ((4, 1), (4, 0), (6, 1)):
        sys_ = LinkSystem(k=k, delta=delta, mu=1)
        assert not jacobian_nonsingular(sys_, (0,) * sys_.size)


def test_jacobian_rejects_non_solutions():
    sys_ = LinkSystem(k=4, delta=1, mu=1)
    with pytest.raises(PreconditionError):
        jacobian_nonsingular(sys_, (0.5, 0.5))
    with pytest.raises(PreconditionError, match="length"):
        system_residual(sys_, (0.5, 0.5, 0.5))


def _residual_reference(sys_, p):
    # every product of the others multiplied out directly, O(s^2)
    worst = 0.0
    s = sys_.size
    for i in range(s):
        prod_rest = 1.0 + 0.0j
        for j in range(s):
            if j != i:
                prod_rest *= p[j]
        worst = max(worst, abs(sys_.mu * p[i] ** (sys_.k - 1) - prod_rest))
    return worst


def _dominant_reference(sys_, p):
    # every off-diagonal Jacobian entry multiplied out directly, O(s^3)
    s = sys_.size
    for i in range(s):
        diag = abs((sys_.k - 1) * sys_.mu * p[i] ** (sys_.k - 2))
        off = 0.0
        for j in range(s):
            if j == i:
                continue
            prod_rest = 1.0 + 0.0j
            for l in range(s):
                if l != i and l != j:
                    prod_rest *= p[l]
            off += abs(prod_rest)
        if diag <= off:
            return False
    return True


def test_kernels_match_direct_products():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = st.builds(
        lambda kd, r, phase: LinkSystem(k=kd[0], delta=kd[1], mu=cmath.rect(r, phase)),
        st.sampled_from([(k, d) for k in range(3, 7) for d in (0, 1) if k - 1 - d >= 2]),
        st.floats(0.25, 4.0),
        st.floats(-math.pi, math.pi),
    )
    offsets = st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=8, max_size=8
    )

    # A perturbation of 1e-13 keeps p a solution to within 1e-9, one of 1e-3
    # does not, so neither side of jacobian_nonsingular's check is borderline.
    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(systems, st.integers(0, 10**6), st.sampled_from([0.0, 1e-13, 1e-3]), offsets)
    def check(sys_, index, scale, offset):
        solutions = solve_link_variety(sys_).nonzero_solutions
        p = tuple(
            z + scale * complex(a, b)
            for z, (a, b) in zip(solutions[index % len(solutions)], offset)
        )
        expected = _residual_reference(sys_, p)
        bound = max(1.0, abs(sys_.mu)) * max(1.0, *map(abs, p)) ** (sys_.k - 1)
        assert abs(system_residual(sys_, p) - expected) <= 1e-12 * bound
        if expected > 1e-9:
            with pytest.raises(PreconditionError):
                jacobian_nonsingular(sys_, p)
        else:
            assert jacobian_nonsingular(sys_, p) == _dominant_reference(sys_, p)

    check()
