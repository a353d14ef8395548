"""Array validation, dihedral transforms, base extraction, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import (
    BudgetExceeded,
    FieldElement,
    ParameterArray,
    array_from_json,
    base_candidates,
    beta_plus_one,
    complete_from_theta,
    d4_apply,
    enumerate_arrays,
    extension_field,
    generate,
    list_families,
    make_array,
    prime_field,
    rational_field,
    sample_params,
    validate,
    validation_lines,
)
from leonard import parray
from leonard.parray import _pa34_sums, split_sequences
from conftest import Q, qarr, random_injective


def failing(rep):
    """The conditions a validate report names a failure of."""
    return {line.split()[0] for line in rep.failures}


def test_fix_d1_is_valid(fix_d1):
    rep = validate(fix_d1)
    assert rep.ok()
    assert validation_lines(rep) == [f"PA{i} pass" for i in range(1, 6)]


def test_fixtures_are_valid(kraw2, kraw3, qrac3, orphan3):
    for p in (kraw2, kraw3, qrac3, orphan3):
        assert validate(p).ok()


def test_pa1_flags_repeats():
    p = qarr([0, 1, 0], [0, 1, 2], [1, 1], [1, 1])
    rep = validate(p)
    assert "PA1" in failing(rep)
    assert any("PA1" in line and "fail" in line for line in validation_lines(rep))


def test_pa2_flags_zero_entry():
    p = qarr([0, 1, 2], [0, 1, 2], [0, 1], [1, 1])
    rep = validate(p)
    assert "PA2" in failing(rep)


def test_pa3_pa4_flag_wrong_products(kraw3):
    broken = make_array(
        kraw3.field, kraw3.theta, kraw3.theta_star,
        (Q.from_int(1),) + kraw3.varphi[1:], kraw3.phi)
    rep = validate(broken)
    assert "PA3" in failing(rep)
    assert "PA1" not in failing(rep) and "PA2" not in failing(rep)


def test_pa5_flags_non_constant_ratio():
    # theta = 0,1,2,4 breaks the common-ratio condition but keeps PA1
    p = complete_from_theta(Q, [Q.from_int(v) for v in (0, 1, 2, 4)],
                            [Q.from_int(v) for v in (0, 1, 2, 3)],
                            Q.from_int(1))
    assert p is None


def test_pa5_vacuous_below_d3():
    p = qarr([0, 1, 5], [0, 1, 3], [1, 1], [2, 2])
    assert "PA5" not in failing(validate(p))


def test_json_round_trip(qrac3, orphan3):
    for p in (qrac3, orphan3):
        again = array_from_json(p.to_json())
        assert again == p
        assert again.to_json() == p.to_json()


def test_d4_generators_are_involutions(kraw3, qrac3, orphan3):
    for p in (kraw3, qrac3, orphan3):
        for g in ("star", "down", "ddown"):
            assert d4_apply(p, [g, g]) == p


def test_d4_star_swaps_sides(qrac3):
    s = d4_apply(qrac3, ["star"])
    assert s.theta == qrac3.theta_star
    assert s.theta_star == qrac3.theta
    assert s.varphi == qrac3.varphi
    assert s.phi == tuple(reversed(qrac3.phi))


def test_d4_down_reverses_dual_eigenvalues(qrac3):
    t = d4_apply(qrac3, ["down"])
    assert t.theta == qrac3.theta
    assert t.theta_star == tuple(reversed(qrac3.theta_star))
    assert t.varphi == tuple(reversed(qrac3.phi))
    assert t.phi == tuple(reversed(qrac3.varphi))


def test_d4_commutation_relations(qrac3):
    p = qrac3
    assert d4_apply(p, ["ddown", "star"]) == d4_apply(p, ["star", "down"])
    assert d4_apply(p, ["down", "star"]) == d4_apply(p, ["star", "ddown"])
    assert d4_apply(p, ["down", "ddown"]) == d4_apply(p, ["ddown", "down"])


ORBIT_WORDS = [[], ["star"], ["down"], ["ddown"], ["down", "ddown"],
               ["star", "down"], ["star", "ddown"], ["star", "down", "ddown"]]


def test_d4_orbit_members_all_validate(qrac3, orphan3):
    for p in (qrac3, orphan3):
        for word in ORBIT_WORDS:
            assert validate(d4_apply(p, word)).ok()


def test_d4_orbit_distinct_for_asymmetric_array():
    theta = [Q.from_int(v) for v in (0, 1, 2, 3)]
    theta_star = [Q.from_int(v) for v in (0, 2, 4, 6)]
    p = complete_from_theta(Q, theta, theta_star, Q.from_int(-5))
    assert p is not None and validate(p).ok()
    orbit = [d4_apply(p, w) for w in ORBIT_WORDS]
    assert len(set(orbit)) == 8


def test_d4_unknown_generator(fix_d1):
    with pytest.raises(ValueError):
        d4_apply(fix_d1, ["flip"])


# The three generators as index arithmetic, as they were written before they
# became reversals in `parray._D4_MAP`: the oracle for d4_apply.
def star_oracle(p):
    d = p.d
    return ParameterArray(p.field, d, p.theta_star, p.theta, p.varphi,
                          tuple(p.phi[d - j] for j in range(1, d + 1)))


def down_oracle(p):
    d = p.d
    return ParameterArray(p.field, d, p.theta,
                          tuple(p.theta_star[d - i] for i in range(d + 1)),
                          tuple(p.phi[d - j] for j in range(1, d + 1)),
                          tuple(p.varphi[d - j] for j in range(1, d + 1)))


def ddown_oracle(p):
    d = p.d
    return ParameterArray(p.field, d, tuple(p.theta[d - i] for i in range(d + 1)),
                          p.theta_star, p.phi, p.varphi)


D4_ORACLE = {"star": star_oracle, "down": down_oracle, "ddown": ddown_oracle}
D4_FIELDS = {"Q": Q, "GF(7)": prime_field(7), "GF(4)": extension_field(2, 2, (1, 1, 1))}


def d4_cases(F):
    """A hand-written d = 0 array, then one sampled array per family that
    the field admits at each d = 1..4."""
    yield make_array(F, [F.from_int(3)], [F.one()], [], [])
    rng = random.Random(f"d4-oracle/{F}")
    for d in range(1, 5):
        for family in list_families():
            fp = sample_params(family, d, F, rng)
            if fp is not None:
                yield generate(fp, F)


@pytest.mark.parametrize("label", list(D4_FIELDS))
def test_d4_apply_matches_the_index_oracle(label):
    """Each reversal in `_D4_MAP` gives the image the index loops gave, with
    every sequence a tuple, for every orbit word and every d from 0 to 4
    that the field has arrays at."""
    diameters = set()
    for p in d4_cases(D4_FIELDS[label]):
        diameters.add(p.d)
        for word in ORBIT_WORDS:
            want = p
            for gen in word:
                want = D4_ORACLE[gen](want)
            got = d4_apply(p, word)
            assert got == want, (p, word)
            assert all(type(seq) is tuple
                       for seq in (got.theta, got.theta_star, got.varphi, got.phi))
    # GF(4) has no array at d = 4
    assert diameters == ({0, 1, 2, 3} if label == "GF(4)" else {0, 1, 2, 3, 4})


def test_beta_small_d(fix_d1, kraw2):
    assert beta_plus_one(fix_d1) is None
    assert beta_plus_one(kraw2) is None


def test_beta_and_base_qrac3(qrac3):
    assert beta_plus_one(qrac3) == Q.parse("7/2")
    bc = base_candidates(qrac3)
    assert bc.kind == "in_field"
    assert [Q.format(r) for r in bc.roots] == ["2", "1/2"]


def test_base_kraw3(kraw3):
    # beta = 2, double root at q = 1
    assert beta_plus_one(kraw3) == Q.from_int(3)
    bc = base_candidates(kraw3)
    assert bc.kind == "in_field"
    assert bc.roots == (Q.one(), Q.one())


def test_base_orphan_char2(orphan3):
    bc = base_candidates(orphan3)
    assert bc.kind == "in_field"
    one = orphan3.field.one()
    assert bc.roots == (one, one)


def test_base_quadratic_only():
    # theta follows theta_{i+1} = 3 + theta_i - theta_{i-1}, so beta = 1
    # and x^2 - x + 1 has no rational root
    theta = [Q.from_int(v) for v in (0, 1, 4, 6)]
    p = complete_from_theta(Q, theta, theta, Q.from_int(1))
    assert p is not None and validate(p).ok()
    bc = base_candidates(p)
    assert bc.kind == "quadratic_only"
    assert bc.roots is None
    c0, c1, c2 = bc.quadratic
    assert (Q.format(c0), Q.format(c1), Q.format(c2)) == ("1", "-1", "1")


def test_complete_from_theta_matches_fixture(kraw3):
    p = complete_from_theta(Q, list(kraw3.theta), list(kraw3.theta_star),
                            kraw3.phi[0])
    assert p == kraw3


def test_complete_from_theta_none_when_inconsistent():
    f5 = prime_field(5)
    theta = [f5.from_int(v) for v in (0, 1, 2, 3)]
    theta_star = [f5.from_int(v) for v in (0, 1, 2, 4)]
    assert complete_from_theta(f5, theta, theta_star, f5.one()) is None


def _complete_by_division(field, theta, theta_star, phi_1):
    """complete_from_theta as it was before PA5 went through the closure:
    each ratio of PA5 is divided out and compared.  The oracle for it."""
    d = len(theta) - 1
    splits = split_sequences(theta, theta_star, phi_1)
    if splits is None:
        return None
    varphi, phi = splits
    if not all(varphi) or not all(phi):
        return None
    if d >= 3:
        first = None
        for i in range(2, d):
            r = (theta[i - 2] - theta[i + 1]) / (theta[i - 1] - theta[i])
            r_s = (theta_star[i - 2] - theta_star[i + 1]) / (
                theta_star[i - 1] - theta_star[i]
            )
            if r != r_s:
                return None
            if first is None:
                first = r
            elif r != first:
                return None
    return make_array(field, theta, theta_star, varphi, phi)


def _closed(head, d, bp1):
    """head extended to d + 1 entries by x_{i+1} = x_{i-2} - bp1 (x_{i-1} - x_i)."""
    seq = list(head)
    while len(seq) <= d:
        i = len(seq) - 1
        seq.append(seq[i - 2] - bp1 * (seq[i - 1] - seq[i]))
    return seq


def _pa5_cases(F, d, rng, attempts):
    """Injective (theta, theta*, phi_1) with theta and theta* closed by PA5
    from random heads; every other attempt then adds 1 to one entry of
    either, which breaks PA5.  Attempts that repeat an entry are dropped."""
    for k in range(attempts):
        theta = random_injective(F, 4, rng)
        bp1 = (theta[0] - theta[3]) / (theta[1] - theta[2])
        theta = _closed(theta, d, bp1)
        theta_star = _closed(random_injective(F, 3, rng), d, bp1)
        if k % 2:
            seq = rng.choice((theta, theta_star))
            i = rng.randrange(d + 1)
            seq[i] += F.one()
        if len(set(theta)) == len(set(theta_star)) == d + 1:
            yield theta, theta_star, F.random_element(rng, nonzero=True)


@pytest.mark.parametrize("label, d", [("Q", d) for d in range(3, 8)]
                         + [("GF(7)", 4), ("GF(7)", 5)])
def test_complete_from_theta_matches_division_oracle(label, d):
    F = {"Q": Q, "GF(7)": prime_field(7)}[label]
    rng = random.Random(f"pa5-closure/{label}/{d}")
    outcomes = set()
    for theta, theta_star, phi_1 in _pa5_cases(F, d, rng, 4000 if F.is_finite() else 60):
        got = complete_from_theta(F, theta, theta_star, phi_1)
        assert got == _complete_by_division(F, theta, theta_star, phi_1)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def _naive_arrays(field, d):
    """Filter the full cartesian grid; only feasible for tiny fields."""
    elems = list(field.elements())
    nonzero = [x for x in elems if x]
    found = []
    for theta in itertools.permutations(elems, d + 1):
        for theta_star in itertools.permutations(elems, d + 1):
            for varphi_1 in nonzero:
                p = complete_from_theta(field, list(theta), list(theta_star),
                                        varphi_1)
                if p is not None:
                    found.append(p)
    return found


def test_enumeration_matches_naive_filter_gf3():
    f3 = prime_field(3)
    ours = list(enumerate_arrays(f3, 1))
    naive = _naive_arrays(f3, 1)
    assert set(ours) == set(naive)
    assert len(ours) == len(naive)


def test_enumeration_matches_naive_filter_gf4():
    f4 = extension_field(2, 2, (1, 1, 1))
    ours = list(enumerate_arrays(f4, 2))
    naive = _naive_arrays(f4, 2)
    assert set(ours) == set(naive)


def test_enumeration_all_valid_gf5():
    f5 = prime_field(5)
    count = 0
    for p in enumerate_arrays(f5, 2):
        assert validate(p).ok()
        count += 1
    assert count > 0


def test_enumeration_shards_partition():
    f5 = prime_field(5)
    whole = list(enumerate_arrays(f5, 2))
    parts = [list(enumerate_arrays(f5, 2, shard=(i, 3))) for i in range(3)]
    merged = [p for part in parts for p in part]
    assert sorted(map(hash, merged)) == sorted(map(hash, whole))


@pytest.mark.parametrize("shard", [(0, 0), (3, 2), (2, 2), (0, -1), (-1, 2)])
def test_enumeration_rejects_a_shard_outside_its_count(shard):
    # raised at the call, so even a caller that asks for no array sees it
    with pytest.raises(ValueError, match="0 <= index < count"):
        enumerate_arrays(prime_field(3), 1, shard=shard)


def test_enumeration_gf2_empty():
    f2 = prime_field(2)
    assert list(enumerate_arrays(f2, 1)) == []


def test_enumeration_respects_budget():
    from leonard import BudgetExceeded
    f5 = prime_field(5)
    with pytest.raises(BudgetExceeded):
        list(enumerate_arrays(f5, 2, budget=10))


def test_enumeration_budget_counts_theta_theta_star_pairs():
    # GF(5), d = 2 examines all 60 x 60 (theta, theta*) pairs
    f5 = prime_field(5)
    assert len(list(enumerate_arrays(f5, 2, budget=3600))) == 6000
    with pytest.raises(BudgetExceeded):
        list(enumerate_arrays(f5, 2, budget=3599))


def test_enumeration_lists_no_field(monkeypatch):
    # the walk builds heads and phi_1 by index, so a field too large to list
    # gives its first arrays and its budget error at once
    def refuse(self):
        raise AssertionError("the whole field was listed")

    big = prime_field(2**61 - 1)
    ext = extension_field(1000003, 2, (1, 0, 1))
    for F in (big, ext):
        monkeypatch.setattr(type(F), "elements", refuse)
    for F, d in ((big, 1), (big, 4), (ext, 3)):
        arrays = list(itertools.islice(enumerate_arrays(F, d), 3))
        assert len(arrays) == 3 and all(validate(p).ok() for p in arrays)
    with pytest.raises(BudgetExceeded):
        next(enumerate_arrays(big, 1, budget=0))


def test_enumeration_budget_counts_the_theta_a_shard_skips(monkeypatch):
    # shard 10^5 of 2 * 10^5 skips the first 10^5 theta tuples, each ranked
    # once; at budget 5 the sixth skip stops the walk
    calls = []
    rank = parray._rank

    def counted(seq, field):
        calls.append(seq)
        return rank(seq, field)

    monkeypatch.setattr(parray, "_rank", counted)
    arrays = enumerate_arrays(prime_field(2**61 - 1), 1, budget=5,
                              shard=(10**5, 2 * 10**5))
    with pytest.raises(BudgetExceeded, match="enumeration budget 5 exhausted"):
        next(arrays)
    assert len(calls) <= 6


def test_closing_a_head_is_linear_in_d(monkeypatch):
    # head (0, 1, 2, 3) with beta + 1 = 3 closes to 0..d; a repeat test
    # against every earlier entry would compare about d^2 / 2 times
    F, d = prime_field(2**61 - 1), 1000
    calls = []
    eq = FieldElement.__eq__
    monkeypatch.setattr(FieldElement, "__eq__",
                        lambda self, other: calls.append(1) or eq(self, other))
    theta = parray._close(tuple(map(F.from_int, range(4))), d, F.from_int(3))
    monkeypatch.undo()
    assert theta == tuple(map(F.from_int, range(d + 1)))
    assert len(calls) <= 2 * d


def test_enumeration_rejects_a_negative_budget_at_the_call():
    # GF(2) has no d = 3 arrays, so only a check at the call can see it
    for field, d in ((prime_field(5), 2), (prime_field(2), 3)):
        with pytest.raises(ValueError, match="budget must be at least 0"):
            enumerate_arrays(field, d, budget=-1)


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 60))
def test_d1_completion_exactly_when_varphi_nonzero(a, b, v):
    # varphi_1 = phi_1 - (theta*_1 - theta*_0)(theta_1 - theta_0), so the
    # candidate survives exactly when that difference is nonzero
    t1, s1 = a or 7, b or 7
    theta = [Q.from_int(0), Q.from_int(t1)]
    theta_star = [Q.from_int(0), Q.from_int(s1)]
    p = complete_from_theta(Q, theta, theta_star, Q.from_int(v))
    if v == t1 * s1:
        assert p is None
    else:
        assert p is not None and validate(p).ok()


def _grid_arrays(field, d, budget, shard):
    """The enumerator as it was before it ran over PA5 heads: it tries every
    (theta, theta*, phi_1) triple of the grid.  The oracle for
    enumerate_arrays, order and shard assignment included."""
    order = field.order()
    if order < d + 1:
        return
    elems = list(field.elements())
    nonzero = elems[1:] if not elems[0] else [e for e in elems if e]
    calls = 0
    for pos, theta in enumerate(itertools.permutations(elems, d + 1)):
        if shard is not None and pos % shard[1] != shard[0]:
            continue
        for theta_star in itertools.permutations(elems, d + 1):
            for phi_1 in nonzero:
                calls += 1
                if budget is not None and calls > budget:
                    raise BudgetExceeded(
                        f"enumeration budget {budget} exhausted at d={d} over {field}"
                    )
                arr = complete_from_theta(field, theta, theta_star, phi_1)
                if arr is not None:
                    yield arr


GRID_FIELDS = {
    "GF(3)": prime_field(3),
    "GF(4)": extension_field(2, 2, (1, 1, 1)),
    "GF(5)": prime_field(5),
    "GF(7)": prime_field(7),
}


@pytest.mark.parametrize("label, d", [("GF(3)", 1), ("GF(4)", 2), ("GF(4)", 3),
                                      ("GF(5)", 2), ("GF(5)", 3)])
def test_enumeration_matches_grid_oracle(label, d):
    F = GRID_FIELDS[label]
    ours = list(enumerate_arrays(F, d, budget=None))
    assert ours == list(_grid_arrays(F, d, None, None))
    assert ours


# GF(5), d = 4 closes theta from its head by PA5 and ranks it by its Lehmer
# code; the GF(7) shards of 840 keep three theta tuples each
@pytest.mark.parametrize("label, shard", [("GF(5)", (0, 3)), ("GF(5)", (1, 3)),
                                          ("GF(5)", (2, 3)), ("GF(7)", (4, 840)),
                                          ("GF(7)", (35, 840))])
def test_enumeration_shard_matches_grid_oracle(label, shard):
    F = GRID_FIELDS[label]
    ours = list(enumerate_arrays(F, 4, budget=None, shard=shard))
    assert ours == list(_grid_arrays(F, 4, None, shard))
    assert ours


def test_enumeration_solves_phi_1_without_the_completion_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("complete_from_theta called")

    monkeypatch.setattr(parray, "complete_from_theta", refuse)
    assert len(list(enumerate_arrays(GRID_FIELDS["GF(4)"], 3))) == 576


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Q", "GF(7)", "GF(101)"]), st.integers(1, 6),
       st.integers(0, 2**32))
def test_pa4_at_one_gives_back_phi_1(label, d, seed):
    # S_1 = 1, so the product term PA3 adds to varphi_1 is the one PA4
    # takes away again; complete_from_theta relies on it
    F = {"Q": Q, "GF(7)": prime_field(7), "GF(101)": prime_field(101)}[label]
    rng = random.Random(seed)
    theta = random_injective(F, d + 1, rng)
    theta_star = random_injective(F, d + 1, rng)
    phi_1 = F.random_element(rng, nonzero=True)
    sums = _pa34_sums(theta)
    assert sums[0] == F.one()
    delta = theta_star[1] - theta_star[0]
    varphi_1 = phi_1 * sums[0] + delta * (theta[0] - theta[d])
    assert varphi_1 * sums[0] + delta * (theta[d] - theta[0]) == phi_1
    p = complete_from_theta(F, theta, theta_star, phi_1)
    if p is not None:
        assert p.phi[0] == phi_1 and validate(p).ok()
