import random
import tracemalloc
from functools import lru_cache
from itertools import permutations, product

import pytest

from depth2kit.errors import DomainError, PreconditionError, SizeError
from depth2kit.frames import (
    Frame,
    canonical_form,
    classify_extremal,
    cluster_poset,
    converse_frame,
    enumerate_frames,
    frame_condition,
    frame_from_dict,
    make_extremal,
    make_frame,
)
from depth2kit.operators import _set_partitions

F2 = make_frame(2, [(0, 0), (0, 1), (1, 1)])


# Independent brute-force oracle used to validate the enumerator: walk
# every relation matrix, keep reflexive-transitive ones, and reduce by
# relabeling over explicit edge sets.  Kept free of the frames module's
# own canonicalization machinery on purpose.


def oracle_quasiorder_classes(n):
    worlds = range(n)
    cells = [(x, y) for x in worlds for y in worlds]
    classes = set()
    for bits in product((0, 1), repeat=n * n):
        rel = {cell for cell, bit in zip(cells, bits) if bit}
        if not all((x, x) in rel for x in worlds):
            continue
        if not all(
            (x, z) in rel
            for (x, y) in rel
            for (w, z) in rel
            if y == w
        ):
            continue
        canon = min(
            tuple(sorted((p[x], p[y]) for (x, y) in rel))
            for p in permutations(worlds)
        )
        classes.add(canon)
    return classes


# Reference for canonical_form: the earlier brute-force labelling, the
# least relabeled row tuple over all n! world permutations.  It induces
# the isomorphism partition; canonical_form must induce the same one.


def ref_relabel(rows, perm):
    out = [0] * len(rows)
    for x, mask in enumerate(rows):
        out[perm[x]] = sum(1 << perm[y] for y in range(len(rows)) if mask >> y & 1)
    return tuple(out)


@lru_cache(maxsize=None)
def ref_mask_images(n):
    # per permutation: the inverse, and the image of every world mask
    return [(tuple(sorted(range(n), key=perm.__getitem__)),
             [sum(1 << perm[y] for y in range(n) if mask >> y & 1)
              for mask in range(1 << n)])
            for perm in permutations(range(n))]


def ref_canonical_form(frame):
    rows = frame.rows
    return min(tuple(image[rows[x]] for x in inverse)
               for inverse, image in ref_mask_images(frame.n_worlds))


def assert_same_partition(frames):
    # the two forms must determine each other on the given frames
    pairs = {(canonical_form(f).rows, ref_canonical_form(f)) for f in frames}
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def edge_canon(frame):
    return min(
        tuple(sorted((p[x], p[y]) for (x, y) in frame.edges()))
        for p in permutations(range(frame.n_worlds))
    )


# Reference for the quasiorder generator: the earlier enumerator, which
# pairs every set partition of the worlds (the clusters) with every
# labeled partial order on its blocks and keeps the distinct canonical
# forms, sorted by rows.


def ref_labeled_posets(k):
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = []
    for choice in product((0, 1, 2), repeat=len(pairs)):
        rows = [1 << i for i in range(k)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        if all(
            not rows[y] & ~rows[x]
            for x in range(k)
            for y in range(k)
            if rows[x] >> y & 1
        ):
            out.append(tuple(rows))
    return out


def ref_quasiorders_up_to_iso(n):
    seen = set()
    for part in _set_partitions(tuple(range(n))):
        blocks = [sum(1 << w for w in b) for b in part]
        block_of = {w: idx for idx, b in enumerate(part) for w in b}
        for poset_rows in ref_labeled_posets(len(blocks)):
            rows = tuple(
                sum(blocks[j] for j in range(len(blocks))
                    if poset_rows[block_of[x]] >> j & 1)
                for x in range(n)
            )
            seen.add(canonical_form(Frame(n, rows)).rows)
    return [Frame(n, rows) for rows in sorted(seen)]


def test_make_frame():
    single = make_frame(1, [(0, 0)])
    assert single.rows == (1,)
    assert F2.rows == (0b11, 0b10)
    with pytest.raises(DomainError):
        make_frame(2, [(0, 2)])
    with pytest.raises(SizeError):
        make_frame(13, [])


def test_frame_dict_round_trip():
    assert frame_from_dict(F2.to_dict()) == F2


@pytest.mark.parametrize("data", [
    {"worlds": True, "edges": [[0, 0]]},
    {"worlds": 2.0, "edges": []},
    {"worlds": 2, "edges": [[0.5, 1]]},
    {"worlds": 2, "edges": [[True, 1]]},
    {"worlds": 2, "edges": [[0, "1"]]},
    {"worlds": 2, "edges": [[0]]},
    {"worlds": 2, "edges": [[0, 1, 1]]},
    {"worlds": 2, "edges": [[-1, 0]]},
    {"worlds": 2, "edges": [1]},
    [2, [[0, 0]]],
])
def test_frame_from_dict_refuses_out_of_domain(data):
    with pytest.raises(DomainError):
        frame_from_dict(data)


def test_conditions_basic():
    identity3 = make_frame(3, [(i, i) for i in range(3)])
    assert frame_condition(identity3, "reflexive")[0]
    universal2 = make_frame(2, [(x, y) for x in range(2) for y in range(2)])
    assert frame_condition(universal2, "symmetric")[0]
    assert frame_condition(F2, "b2")[0]
    assert frame_condition(F2, "m")[0]
    assert not frame_condition(F2, "symmetric")[0]
    assert frame_condition(F2, "symmetric")[1] == (0, 1)
    with pytest.raises(KeyError):
        frame_condition(F2, "no_such_condition")


def test_condition_witnesses():
    chain3 = make_frame(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    ok, witness = frame_condition(chain3, "b2")
    assert not ok and witness == (0, 1, 2)
    loopless = make_frame(2, [(0, 1)])
    assert frame_condition(loopless, "serial") == (False, (1,))
    assert frame_condition(loopless, "reflexive") == (False, (0,))


def test_quasiorder_gated_conditions():
    not_quasi = make_frame(2, [(0, 1)])
    for name in ("dum", "grz", "m"):
        with pytest.raises(PreconditionError):
            frame_condition(not_quasi, name)


def test_dum_condition_nontrivial():
    # a simple root under both a proper cluster and a simple point:
    # every non-maximal cluster is simple, yet the proper cluster can be
    # escaped, so the dum condition must fail
    frame = make_frame(4, [(0, 0), (1, 1), (2, 2), (3, 3),
                           (3, 0), (3, 1), (3, 2), (1, 2), (2, 1)])
    assert not frame_condition(frame, "dum")[0]
    # tack: proper cluster at the bottom, simple point above
    tack = make_extremal("ui", 2, 1)
    assert not frame_condition(tack, "dum")[0]
    # proper cluster only at the top is fine
    assert frame_condition(make_extremal("iu", 2, 2), "dum")[0]
    assert frame_condition(make_extremal("uu", 1, 2), "dum")[0]


def test_grz_condition():
    assert frame_condition(make_extremal("ii", 2, 2), "grz")[0]
    assert not frame_condition(make_extremal("uu", 2, 1), "grz")[0]


def test_cluster_poset_examples():
    universal3 = make_frame(3, [(x, y) for x in range(3) for y in range(3)])
    poset = cluster_poset(universal3)
    assert poset.depth == 1 and len(poset.clusters) == 1
    assert not poset.is_simple(0)

    poset = cluster_poset(F2)
    assert poset.depth == 2
    assert all(poset.is_simple(i) for i in range(2))

    poset = cluster_poset(make_extremal("ui", 2, 3))
    assert poset.depth == 2
    assert [poset.levels[i] for i in range(len(poset.clusters))] == [1, 2, 2, 2]
    assert not poset.is_simple(0)
    assert all(poset.is_simple(i) for i in (1, 2, 3))


def test_cluster_poset_requires_quasiorder():
    with pytest.raises(PreconditionError):
        cluster_poset(make_frame(2, [(0, 1)]))


def test_classify_extremal():
    frame = make_frame(3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)])
    kinds = {kind for kind, _, _ in classify_extremal(frame)}
    # with a single simple lower cluster the ii and ui relations coincide
    assert kinds == {"ii", "ui"}
    matches = {m for m in classify_extremal(frame)}
    assert matches == {("ii", 0b001, 0b110), ("ui", 0b001, 0b110)}

    # two-world chain: all four relation forms coincide on singletons
    kinds = {kind for kind, _, _ in classify_extremal(F2)}
    assert kinds == {"ii", "iu", "ui", "uu"}

    universal = make_frame(2, [(x, y) for x in range(2) for y in range(2)])
    assert classify_extremal(universal) == frozenset()


def test_make_extremal_round_trip():
    for kind in ("ii", "iu", "ui", "uu"):
        for u_size, v_size in ((1, 1), (1, 3), (2, 2), (3, 1)):
            frame = make_extremal(kind, u_size, v_size)
            kinds = {k for k, _, _ in classify_extremal(frame)}
            assert kind in kinds
            for condition in ("reflexive", "transitive", "b2"):
                assert frame_condition(frame, condition)[0], (kind, condition)


def test_make_extremal_shapes():
    assert make_extremal("uu", 1, 1).rows == F2.rows
    fig1 = make_extremal("iu", 2, 2)  # two simple points under one cluster
    poset = cluster_poset(fig1)
    assert poset.depth == 2
    assert sorted(len(c) for c in poset.clusters) == [1, 1, 2]
    with pytest.raises(DomainError):
        make_extremal("iu", 0, 2)
    with pytest.raises(SizeError):
        make_extremal("iu", 7, 6)


def test_extremal_inclusions():
    # for fixed levels: ii below iu and ui, both below uu, row by row
    for u_size, v_size in ((1, 1), (2, 1), (2, 3)):
        frames = {
            kind: make_extremal(kind, u_size, v_size).rows
            for kind in ("ii", "iu", "ui", "uu")
        }
        for low, high in (("ii", "iu"), ("ii", "ui"), ("iu", "uu"), ("ui", "uu")):
            assert all(
                a & b == a for a, b in zip(frames[low], frames[high])
            ), (low, high, u_size, v_size)


def test_converse():
    assert converse_frame(F2).rows == (0b01, 0b11)
    assert converse_frame(converse_frame(F2)) == F2
    identity = make_frame(3, [(i, i) for i in range(3)])
    assert converse_frame(identity) == identity
    # the converse of a two-level identity/universal frame swaps its kind
    iu = make_extremal("iu", 2, 2)
    kinds = {k for k, _, _ in classify_extremal(canonical_form(converse_frame(iu)))}
    assert "ui" in kinds


def test_canonical_form():
    relabeled = make_frame(2, [(1, 1), (1, 0), (0, 0)])
    assert canonical_form(relabeled) == canonical_form(F2)
    identity = make_frame(3, [(i, i) for i in range(3)])
    assert canonical_form(identity) == identity
    # moving the lower level around does not change the canonical form
    a = make_frame(3, [(0, 0), (1, 1), (2, 2), (2, 0), (2, 1)])
    b = make_frame(3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)])
    assert canonical_form(a) == canonical_form(b)
    with pytest.raises(SizeError):
        canonical_form(Frame(8, tuple(1 << i for i in range(8))))


def test_canonical_form_partition_matches_reference():
    for n in range(1, 4):
        assert_same_partition(
            Frame(n, tuple(m >> x * n & (1 << n) - 1 for x in range(n)))
            for m in range(1 << n * n))
    # every labeled quasiorder is a relabeling of an enumerated class
    for n in range(1, 6):
        classes = enumerate_frames(n, quasiorder=True)
        assert_same_partition(classes)
        for frame in classes:
            form = canonical_form(frame)
            for perm in permutations(range(n)):
                assert canonical_form(Frame(n, ref_relabel(frame.rows, perm))) == form


def test_canonical_form_separates_the_six_world_classes():
    classes = enumerate_frames(6, quasiorder=True)
    assert len({ref_canonical_form(f) for f in classes}) == len(classes) == 718


def test_canonical_form_is_invariant_under_relabeling():
    rng = random.Random(20231)
    identity7 = Frame(7, tuple(1 << x for x in range(7)))
    star7 = Frame(7, (0b1111111,) + tuple(1 << x for x in range(1, 7)))
    frames = [identity7, star7]  # a single colour cell of 7 and one of 6
    frames += rng.sample(enumerate_frames(6, quasiorder=True), 40)
    for n in range(4, 8):
        frames += [Frame(n, tuple(rng.randrange(1 << n) for _ in range(n)))
                   for _ in range(15)]
    for frame in frames:
        form = canonical_form(frame)
        assert sorted(map(int.bit_count, form.rows)) == sorted(
            map(int.bit_count, frame.rows))
        for _ in range(3):
            perm = list(range(frame.n_worlds))
            rng.shuffle(perm)
            assert canonical_form(Frame(frame.n_worlds, ref_relabel(frame.rows, perm))) \
                == form, (frame, perm)


def test_canonical_form_streams_the_relabelings():
    # one colour cell of 7 worlds has 5,040 orders, tried one at a time;
    # the first call fills the interpreter's free lists outside the trace
    identity7 = Frame(7, tuple(1 << x for x in range(7)))
    canonical_form(identity7)
    tracemalloc.start()
    try:
        canonical_form(identity7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_enumeration_against_oracle():
    for n, expected in ((1, 1), (2, 3), (3, 9)):
        oracle = oracle_quasiorder_classes(n)
        assert len(oracle) == expected
        frames = enumerate_frames(n, quasiorder=True)
        assert len(frames) == expected
        assert {edge_canon(f) for f in frames} == oracle


# Reference for the general enumerator: the earlier version, which marks
# each orbit by relabeling a mask one bit at a time.


def ref_all_frames_up_to_iso(n):
    perms = list(permutations(range(n)))
    bit_maps = []
    for p in perms:
        bit_maps.append([p[x] * n + p[y] for x in range(n) for y in range(n)])
    total = 1 << (n * n)
    visited = bytearray(total)
    out = []
    for m in range(total):
        if visited[m]:
            continue
        rows = tuple((m >> (x * n)) & ((1 << n) - 1) for x in range(n))
        out.append(Frame(n, rows))
        for bm in bit_maps:
            image = 0
            rest = m
            while rest:
                low = rest & -rest
                image |= 1 << bm[low.bit_length() - 1]
                rest ^= low
            visited[image] = 1
    return out


def test_enumeration_counts():
    assert [len(enumerate_frames(n, quasiorder=True)) for n in range(1, 7)] == [
        1, 3, 9, 33, 139, 718]
    assert len(enumerate_frames(3, quasiorder=True, max_depth=2)) == 8
    assert [len(enumerate_frames(n)) for n in range(1, 4)] == [2, 10, 104]
    assert len(enumerate_frames(4)) == 3044  # OEIS A000595


def test_enumeration_matches_reference():
    # same classes, same representatives, same order
    for n in range(1, 6):
        assert enumerate_frames(n, quasiorder=True) == ref_quasiorders_up_to_iso(n)
    for n in range(1, 5):
        assert enumerate_frames(n) == ref_all_frames_up_to_iso(n)


def test_enumeration_returns_a_fresh_list():
    for kwargs in ({}, {"max_depth": 2}):
        first = enumerate_frames(4, quasiorder=True, **kwargs)
        expected = list(first)
        first.clear()
        assert enumerate_frames(4, quasiorder=True, **kwargs) == expected


def test_enumeration_no_duplicates():
    frames = enumerate_frames(4, quasiorder=True)
    canons = {canonical_form(f).rows for f in frames}
    assert len(canons) == len(frames)
    for frame in frames:
        assert frame_condition(frame, "quasiorder")[0]


def test_enumeration_bounds():
    with pytest.raises(SizeError):
        enumerate_frames(8, quasiorder=True)
    with pytest.raises(SizeError):
        enumerate_frames(5)
    with pytest.raises(DomainError):
        enumerate_frames(3, max_depth=2)


@pytest.mark.parametrize("n_worlds, max_depth", [
    (3, 0), (3, -2), (3, True), (3, 1.0), (3, "2"), (True, None), (2.0, None),
    (0, None),
])
def test_enumeration_refuses_out_of_domain(n_worlds, max_depth):
    with pytest.raises(DomainError):
        enumerate_frames(n_worlds, quasiorder=True, max_depth=max_depth)


def test_enumeration_depth_one():
    frames = enumerate_frames(3, quasiorder=True, max_depth=1)
    assert frames and all(cluster_poset(f).depth == 1 for f in frames)
