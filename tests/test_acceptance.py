"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact; there are no tolerances anywhere. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from contextlib import contextmanager
from fractions import Fraction

from resultantforge.cascade import CascadeMatrix
from resultantforge.diagonal import verify_diagonal_property
from resultantforge.geometry import SquareFreeMonomialIdeal, chow_degree, dim_and_degree, minimal_primes
from resultantforge.groebner import (
    IdealPresentation,
    buchberger,
    chart_equal,
    eliminate_x,
    ideal_equal,
)
from resultantforge.minors import enumerate_generators
from resultantforge.orders import DegRevLexOrder, leading_term
from resultantforge.poly import Monomial, Ring
from resultantforge.roots import (
    CoefficientTuple,
    common_root_oracle,
    membership_scan,
    planted_vanishing,
    sample_planted,
    sample_random,
)
from resultantforge.walks import components, walk_leading_monomial

from conftest import GRID
from oracles import all_pairs_groebner, exact_rank, specialized_rows, sylvester_resultant


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def test_01_initial_ideal_reproduction(rings, all_records):
    """Degrevlex Buchberger on the sixteen (2,3) minors matches the known
    seven-monomial initial ideal exactly."""
    with criterion("AC-01 initial ideal of the (2,3) minor ideal"):
        ring = rings[(2, 3)]
        order = DegRevLexOrder(ring.coeff_vars_column_major())
        pres = buchberger([rec.poly for rec in all_records[(2, 3)]], order)
        a = ring.coeff
        expected = {
            Monomial({a(3, 0): 1, a(2, 1): 1, a(1, 2): 1}),
            Monomial({a(3, 0): 1, a(2, 1): 1, a(3, 1): 1, a(2, 2): 1}),
            Monomial({a(3, 0): 1, a(1, 1): 1, a(3, 1): 1, a(2, 2): 1}),
            Monomial({a(2, 0): 1, a(1, 1): 1, a(3, 1): 1, a(2, 2): 1}),
            Monomial({a(3, 0): 1, a(1, 1): 1, a(3, 1): 1, a(1, 2): 1}),
            Monomial({a(2, 0): 1, a(1, 1): 1, a(3, 1): 1, a(1, 2): 1}),
            Monomial({a(2, 0): 1, a(1, 1): 1, a(2, 1): 1, a(1, 2): 1}),
        }
        got = {leading_term(g, order)[0] for g in pres.certified_basis}
        assert got == expected


def test_02_minors_equal_eliminated_ideal(rings, all_records):
    """The minors generate exactly the ideal obtained by eliminating x."""
    with criterion("AC-02 minors equal the eliminated ideal at (1,2), (2,2), (2,3)"):
        for dn in [(1, 2), (2, 2), (2, 3)]:
            ring = rings[dn]
            order = DegRevLexOrder(ring.coeff_vars_column_major())
            minors = IdealPresentation(ring, [rec.poly for rec in all_records[dn]], order)
            assert ideal_equal(minors, eliminate_x(*dn)), dn


def test_03_reduced_walk_basis_certified(rings, basis_records, diag_orders):
    """Every s-polynomial of the reduced-walk minors reduces to zero under
    the diagonal order."""
    with criterion("AC-03 s-polynomial certification of the reduced basis"):
        for dn in [(2, 2), (3, 2), (2, 3)]:
            basis = [rec.poly for rec in basis_records[dn]]
            assert all_pairs_groebner(basis, diag_orders[dn]), dn


def test_04_diagonal_leading_terms():
    """The diagonal order picks the diagonal product as leading monomial of
    every nonzero maximal minor, with strict weight dominance."""
    with criterion("AC-04 diagonal leading terms across the grid"):
        for dn in GRID:
            report = verify_diagonal_property(*dn)
            assert report.minors_checked > 0
            assert not report.lead_violations, dn
            assert not report.dominance_violations, dn


def test_05_initial_ideal_geometry(rings, basis_records):
    """Minimal primes of the reduced-walk leading terms are exactly the n*d
    coordinate subspaces of size n-1: dimension and degree both equal n*d."""
    with criterion("AC-05 components, dimension, and degree of the initial ideal"):
        for (d, n) in GRID:
            ring = rings[(d, n)]
            lead = SquareFreeMonomialIdeal(
                walk_leading_monomial(rec.walk, ring) for rec in basis_records[(d, n)]
            )
            primes = set(minimal_primes(lead))
            assert primes == {c.variables for c in components(d, n, ring)}, (d, n)
            assert len(primes) == n * d
            assert all(len(p) == n - 1 for p in primes)
            dd = dim_and_degree(lead, n * (d + 1))
            assert (dd.dim, dd.degree) == (n * d, n * d)
            assert dd.equidimensional


def test_06_sylvester_equivalence():
    """For two polynomials the unique top minor is the classical resultant,
    symbolically, up to overall sign."""
    with criterion("AC-06 Sylvester resultant equivalence for d = 1, 2, 3"):
        for d in (1, 2, 3):
            ring = Ring(d, 2)
            recs = enumerate_generators(d, 2, ring)
            assert len(recs) == 1
            got = recs[0].poly
            oracle = sylvester_resultant(ring)
            assert got == oracle or got == -oracle, d


def test_07_planted_root_annihilates():
    """Substituting coefficients of (x - r) * q_i turns every generator into
    the identically zero polynomial."""
    with criterion("AC-07 symbolic planted-root vanishing up to (3,3)"):
        for dn in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]:
            report = planted_vanishing(*dn)
            assert report.generators_checked > 0
            assert report.ok, (dn, report.nonzero_images)


def test_08_sampling_biconditional():
    """200 planted samples vanish on every generator; 200 root-free samples
    with a nonzero leading coefficient always leave a nonzero depth-d
    minor."""
    with criterion("AC-08 sampled soundness and completeness (200 + 200 per size)"):
        for dn in GRID:
            for seed in range(200):
                scan = membership_scan(sample_planted(*dn, seed))
                assert all(scan.vanishing), (dn, seed)
                assert scan.biconditional_ok, (dn, seed)
            accepted = 0
            seed = 0
            while accepted < 200:
                tup = sample_random(*dn, 10_000 + seed)
                seed += 1
                root = common_root_oracle(tup)
                if root.gcd_degree != 0 or root.all_leading_zero:
                    continue
                accepted += 1
                scan = membership_scan(tup)
                assert not scan.top_minors_all_vanish, (dn, seed)
                assert scan.biconditional_ok, (dn, seed)


def test_09_chart_agreement():
    """The depth-d minors and the full generator family agree on the affine
    chart a_1_0 = 1 at every size, under the default limits."""
    with criterion("AC-09 affine-chart agreement at (1,2), (2,2), (2,3)"):
        assert chart_equal(1, 2)
        assert chart_equal(2, 2)
        assert chart_equal(2, 3)


def test_10_chow_degree_random_tuples():
    """The truncated Chow-ring computation returns the degree sum for 100
    random degree tuples."""
    with criterion("AC-10 Chow-ring degree equals the degree sum"):
        from resultantforge.roots import Lcg64

        rng = Lcg64(512)
        for _ in range(100):
            n = 2 + rng.randint(0, 4)
            degrees = [1 + rng.randint(0, 8) for _ in range(n)]
            assert chow_degree(degrees) == sum(degrees), degrees


def test_11_rank_cascade():
    """On 200 specializations per size, vanishing of all maximal minors of
    M_k forces vanishing of all maximal minors of M_(k-1)."""
    with criterion("AC-11 rank cascade across depths (200 samples per size)"):
        from resultantforge.roots import Lcg64

        for (d, n) in GRID:
            matrices = {k: CascadeMatrix(d, n, k) for k in range(1, d + 1)}
            rng = Lcg64(d * 1000 + n)
            for case in range(200):
                style = case % 3
                if style == 0:
                    tup = sample_planted(d, n, 5_000 + case)
                elif style == 1:
                    tup = sample_random(d, n, 6_000 + case)
                else:
                    values = [
                        [Fraction(0)] + [rng.rational() for _ in range(d)] for _ in range(n)
                    ]
                    tup = CoefficientTuple(d, n, values)
                deficient = {
                    k: exact_rank(specialized_rows(matrices[k], tup)) < d + k
                    for k in range(1, d + 1)
                }
                for k in range(2, d + 1):
                    if deficient[k]:
                        assert deficient[k - 1], (d, n, case, deficient)
