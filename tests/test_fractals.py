import itertools
import random

import pytest

from conftest import all_perms, perm, zigzag
from rpl import fractals
from rpl.errors import ContractViolation, InternalInvariant, RangeError, ResourceLimit
from rpl.fractals import (
    SIZE_CAP,
    embed_separable,
    fractal_perm,
    is_subfractal,
    level_color,
    navigate,
    occurrence_blocks,
    partition_extract,
)
from rpl.patterns import VertexSet, iter_pairs, realizes
from rpl.perms import Permutation, is_separable, perm_coloring, perm_to_pattern, separating_tree


def test_fractal_perm_examples():
    assert fractal_perm(2, 0) == perm("0")
    assert fractal_perm(5, 0) == perm("0")
    assert fractal_perm(3, 1) == perm("012")
    assert fractal_perm(2, 2) == perm("2301")
    assert fractal_perm(2, 3).size == 8
    with pytest.raises(ResourceLimit):
        fractal_perm(2, 30)
    with pytest.raises(ContractViolation):
        fractal_perm(0, 1)


def test_level_alternation():
    # dimension 1 glues with the direct sum, dimension 2 with the skew sum
    assert level_color(1) == 0
    assert level_color(2) == 1
    assert level_color(3) == 0
    f3 = fractal_perm(2, 3)
    # dimension 3 glues with the direct sum: the first half is the
    # dimension-2 fractal unshifted
    assert tuple(f3.values[:4]) == fractal_perm(2, 2).values
    f2 = fractal_perm(2, 2)
    # dimension 2 glues with the skew sum: the first half rides on top
    assert tuple(f2.values[:2]) == tuple(v + 2 for v in fractal_perm(2, 1).values)


def test_navigate_examples():
    assert navigate(2, 2, ()) == (0, 4)
    assert navigate(2, 2, (1,)) == (2, 2)
    assert navigate(2, 2, (1, 0)) == (2, 1)
    with pytest.raises(RangeError):
        navigate(2, 2, (2,))
    with pytest.raises(ContractViolation):
        navigate(2, 2, (0, 0, 0))


def test_navigate_children_partition_parent():
    for k, n in [(2, 3), (3, 2)]:
        for prefix_len in range(n):
            for path in itertools.product(range(k), repeat=prefix_len):
                off, length = navigate(k, n, path)
                child_cells = []
                for w in range(k):
                    o, l = navigate(k, n, path + (w,))
                    child_cells.extend(range(o, o + l))
                assert child_cells == list(range(off, off + length))


def fractal_pair_color(k: int, n: int, x: int, y: int) -> int:
    """Color of the position pair (x, y), x < y, inside the k-ary
    dimension-n fractal, from the first base-k digit where x and y differ:
    the level above which their digits agree."""
    assert 0 <= x < y < k**n
    level = 0
    while x != y:
        x, y, level = x // k, y // k, level + 1
    return level_color(level)


def induces_pairwise(positions, k: int, n: int, perm: Permutation) -> bool:
    """The embedding check, pair by pair: the ascending positions lie in
    the fractal and carry perm's pattern by fractal_pair_color."""
    pos, want = list(positions), perm_to_pattern(perm)
    if len(pos) != want.size or pos[-1] >= k**n:
        return False
    return all(fractal_pair_color(k, n, pos[i], pos[j]) == want.color(i, j)
               for i, j in iter_pairs(len(pos)))


def test_digit_check_matches_pairwise_check():
    """On random position sets, the digit check agrees with the pair-by-pair
    one, for the order type they carry and for a random permutation."""
    rng = random.Random(23)
    verdicts = set()
    for k, n in [(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (5, 1)]:
        for _ in range(80):
            m = rng.randint(1, min(k**n, 7))
            pos = sorted(rng.sample(range(k**n), m))
            host = fractal_perm(k, n).values
            values = [host[x] for x in pos]
            carried = Permutation(sorted(range(m), key=sorted(range(m), key=values.__getitem__).__getitem__))
            shuffled = list(range(m))
            rng.shuffle(shuffled)
            for pm in (carried, Permutation(shuffled)):
                got = fractals._induces(pos, k, n, pm)
                assert got == induces_pairwise(pos, k, n, pm)
                verdicts.add(got)
            assert fractals._induces(pos, k, n, carried)
    assert verdicts == {True, False}


def test_embed_answers_on_a_deep_tree():
    # the separating tree of zigzag(1500) is a path of depth 1499
    pm = Permutation(zigzag(1500))
    dim, pos = embed_separable(pm, 2)
    assert len(pos) == 1500 and pos[-1] < 2**dim


def test_pair_color_formula_matches_permutation():
    for k, n in [(2, 3), (2, 4), (3, 2), (4, 2)]:
        f = perm_coloring(fractal_perm(k, n))
        for x in range(k**n):
            for y in range(x + 1, k**n):
                assert fractal_pair_color(k, n, x, y) == f.color(x, y)


def test_occurrence_blocks():
    occ = VertexSet([3, 5, 8, 13])
    blocks = occurrence_blocks(occ, 2, 2)
    assert [tuple(b) for b in blocks] == [(3, 5), (8, 13)]
    with pytest.raises(ContractViolation):
        occurrence_blocks(occ, 2, 1)


def test_embed_examples():
    assert embed_separable(perm("0"), 2) == (0, VertexSet([0]))
    dim, pos = embed_separable(perm("120"), 2)
    assert (dim, tuple(pos)) == (2, (0, 1, 2))
    # independent check: positions 0,1,2 of 2301 carry values 2,3,0
    host = fractal_perm(2, 2)
    assert [host.values[i] for i in pos] == [2, 3, 0]
    dim3, pos3 = embed_separable(perm("01"), 3)
    assert (dim3, tuple(pos3)) == (1, (0, 1))
    with pytest.raises(ContractViolation):
        embed_separable(perm("2031"), 2)
    with pytest.raises(ContractViolation):
        embed_separable(perm("01"), 1)


def test_embed_all_separable_up_to_5_verified():
    count = 0
    for size in range(1, 6):
        for pm in all_perms(size):
            if separating_tree(pm) is None:
                continue
            dim, positions = embed_separable(pm, 2)
            host = perm_coloring(fractal_perm(2, dim))
            assert realizes(host, positions, perm_to_pattern(pm))
            count += 1
    assert count == 1 + 2 + 6 + 22 + 90


ZIGZAG_16 = "0,15,1,14,2,13,3,12,4,11,5,10,6,9,7,8"
ZIGZAG_17 = "0,16,1,15,2,14,3,13,4,12,5,11,6,10,7,9,8"


def refuse_fractal(k, n):
    raise AssertionError(f"embed_separable built the arity-{k} dimension-{n} fractal")


def test_embed_builds_no_fractal(monkeypatch):
    monkeypatch.setattr(fractals, "fractal_perm", refuse_fractal)
    dim, pos = embed_separable(perm(ZIGZAG_16), 2)
    assert dim == 15 and len(pos) == 16
    assert pos[:3] == (0, 16384, 24576) and pos[-3:] == (32764, 32766, 32767)
    # beyond the fractal size cap: the embedding still answers
    dim, pos = embed_separable(perm(ZIGZAG_17), 2)
    assert dim == 17 and 2**dim > SIZE_CAP and pos[-1] == 2**17 - 2


def shift_embedding(monkeypatch, i: int, step: int):
    """Mutate embed_separable's placement: its position i moves by step."""
    def moved(positions):
        pos = list(positions)
        pos[i] += step
        return VertexSet(pos)

    monkeypatch.setattr(fractals, "VertexSet", moved)


def test_embed_check_catches_a_shifted_position(monkeypatch):
    # 32766 -> 32765 pairs with 32764 at level 1, color 0, not 1
    monkeypatch.setattr(fractals, "fractal_perm", refuse_fractal)
    shift_embedding(monkeypatch, 14, -1)
    with pytest.raises(InternalInvariant):
        embed_separable(perm(ZIGZAG_16), 2)
    # every one-step move on small inputs: the digit check raises exactly
    # when the moved positions stop realizing the pattern in the fractal
    verdicts = set()
    for size in range(2, 5):
        for pm in filter(is_separable, all_perms(size)):
            monkeypatch.undo()
            dim, pos = embed_separable(pm, 2)
            host = perm_coloring(fractal_perm(2, dim))
            for i, step in itertools.product(range(size), (-1, 1)):
                moved = list(pos)
                moved[i] += step
                if len(set(moved)) < size or not 0 <= moved[i] < 2**dim:
                    continue
                shift_embedding(monkeypatch, i, step)
                fits = realizes(host, moved, perm_to_pattern(pm))
                verdicts.add(fits)
                if fits:
                    assert embed_separable(pm, 2) == (dim, VertexSet(moved))
                else:
                    with pytest.raises(InternalInvariant):
                        embed_separable(pm, 2)
                monkeypatch.undo()
    assert verdicts == {True, False}


def test_partition_base_and_pigeonhole():
    # dimension 0: the single vertex's own color comes back
    side, out = partition_extract(2, 3, 0, lambda v: 1)
    assert side == 1 and tuple(out) == (0,)
    # three vertices, two must agree
    for bits in itertools.product((0, 1), repeat=3):
        side, out = partition_extract(2, 2, 1, lambda v: bits[v])
        assert len(out) == 2
        assert all(bits[v] == side for v in out)
    # constant coloring lands on the constant side
    side, out = partition_extract(2, 3, 2, lambda v: 1)
    assert side == 1 and len(out) == 9


def test_partition_prefers_zero_side():
    side, _ = partition_extract(2, 2, 1, lambda v: [0, 1, 0][v])
    assert side == 0


def test_partition_randomized_validation():
    rng = random.Random(11)
    for (a, b) in itertools.product((2, 3), repeat=2):
        for n in (1, 2, 3):
            k = a + b - 1
            for _ in range(60):
                colors = [rng.randint(0, 1) for _ in range(k**n)]
                side, out = partition_extract(a, b, n, lambda v: colors[v])
                arity = a if side == 0 else b
                assert len(out) == arity**n
                assert all(colors[v] == side for v in out)
                assert is_subfractal(out, k, n, arity)


def test_fractal_perms_are_separable():
    for k in range(2, 5):
        n = 1
        while k**n <= 81:
            assert is_separable(fractal_perm(k, n))
            n += 1
    # larger sizes: the tree decomposition alone
    assert separating_tree(fractal_perm(4, 4)) is not None
    assert separating_tree(fractal_perm(2, 10)) is not None

