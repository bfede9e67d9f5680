"""Root systems, Weyl groups, and the subsystem classification."""

import itertools
from fractions import Fraction as Q

import pytest

from gometrics import rootsys
from gometrics.exactlinalg import dot


def g2():
    return rootsys.build_g2()


def a2():
    return rootsys.build_a2()


def test_cardinalities_and_rank():
    assert len(rootsys.build_a1().roots) == 2
    assert len(a2().roots) == 6
    assert len(g2().roots) == 12
    assert g2().rank == 2
    assert a2().rank == 2


def test_root_sets_are_symmetric_and_closed_in_system():
    for rs in (rootsys.build_a1(), a2(), g2()):
        roots = set(rs.roots)
        for r in roots:
            assert tuple(-c for c in r) in roots
        # sum of two roots is either a root, zero, or leaves the system
        full = rootsys.RootSubsystem(parent=rs, roots=frozenset(rs.roots))
        assert all(tuple(-c for c in r) in full.roots for r in full.roots) and full.closed


def test_g2_has_two_root_lengths_ratio_three():
    rs = g2()
    lengths = sorted({dot(r, r) for r in rs.roots})
    assert len(lengths) == 2
    assert lengths[1] == 3 * lengths[0]
    long_labels = {rs.label(r) for r in rs.roots if dot(r, r) == lengths[1]}
    assert long_labels == {
        "alpha",
        "-alpha",
        "alpha+3beta",
        "-alpha+3beta",
        "2alpha+3beta",
        "-2alpha+3beta",
    }


def test_minus_b_normalization_identity():
    # the defining identity: inverse of the form equals twice the sum of
    # rank-one squares of positive roots, on the root span
    for rs in (a2(), g2()):
        n = len(rs.roots[0])
        for r in rs.positive:
            image = [
                2 * sum(a[i] * dot(a, r) for a in rs.positive) for i in range(n)
            ]
            assert image == [x / rs.scale for x in r]


def test_weyl_group_orders():
    assert len(rootsys.weyl_group(rootsys.build_a1())) == 2
    assert len(rootsys.weyl_group(a2())) == 6
    assert len(rootsys.weyl_group(g2())) == 12


def test_weyl_group_permutes_roots():
    rs = g2()
    roots = set(rs.roots)
    for w in rootsys.weyl_group(rs):
        image = {rootsys._mat_apply(w, r) for r in roots}
        assert image == roots


def test_weyl_group_is_built_once_per_classification(monkeypatch):
    calls = []
    original = rootsys.weyl_group

    def counted(rs):
        calls.append(rs)
        return original(rs)

    monkeypatch.setattr(rootsys, "weyl_group", counted)
    rs = g2()
    classes = rootsys.enumerate_closed_symmetric_subsystems(rs)
    assert len(calls) == 1
    assert rootsys.subsystems_equivalent(rs, classes[1].roots, classes[1].roots)
    assert not rootsys.subsystems_equivalent(rs, classes[1].roots, classes[2].roots)
    assert len(calls) == 1


def brute_force_classes(rs):
    """Independent enumeration: every proper subset of roots that is
    symmetric and closed, grouped into Weyl classes by pairwise testing.
    """
    n = len(rs.positive)
    subsystems = []
    for k in range(n + 1):
        for chosen in itertools.combinations(rs.positive, k):
            roots = frozenset(
                list(chosen) + [tuple(-c for c in r) for r in chosen]
            )
            if len(roots) == len(rs.roots):
                continue  # proper only
            sub = rootsys.RootSubsystem(parent=rs, roots=roots)
            if all(tuple(-c for c in r) in sub.roots for r in sub.roots) and sub.closed:
                subsystems.append(roots)
    classes = []
    for roots in subsystems:
        for cls in classes:
            if rootsys.subsystems_equivalent(rs, cls[0], roots):
                cls.append(roots)
                break
        else:
            classes.append([roots])
    return classes


def test_g2_subsystem_classification_matches_brute_force():
    rs = g2()
    got = rootsys.enumerate_closed_symmetric_subsystems(rs)
    oracle = brute_force_classes(rs)
    assert len(got) == len(oracle) == 5
    assert sorted(len(s.roots) for s in got) == [0, 2, 2, 4, 6]
    # match one-to-one up to Weyl equivalence
    used = set()
    for sub in got:
        hit = next(
            i
            for i, cls in enumerate(oracle)
            if i not in used and rootsys.subsystems_equivalent(rs, cls[0], sub.roots)
        )
        used.add(hit)
    assert len(used) == 5


def test_a2_subsystem_classification():
    rs = a2()
    got = rootsys.enumerate_closed_symmetric_subsystems(rs)
    oracle = brute_force_classes(rs)
    assert len(got) == len(oracle) == 2
    assert sorted(len(s.roots) for s in got) == [0, 2]


def test_g2_long_roots_form_the_six_element_class():
    rs = g2()
    classes = rootsys.enumerate_closed_symmetric_subsystems(rs)
    biggest = max(classes, key=lambda s: len(s.roots))
    lengths = {dot(r, r) for r in biggest.roots}
    assert len(lengths) == 1
    assert max(dot(r, r) for r in rs.roots) in lengths


def test_subsystems_equivalent_distinguishes_lengths():
    rs = g2()
    long_pair = [r for r in rs.roots if dot(r, r) == 6][:1]
    short_pair = [r for r in rs.roots if dot(r, r) == 2][:1]
    a = long_pair + [tuple(-c for c in long_pair[0])]
    b = short_pair + [tuple(-c for c in short_pair[0])]
    assert not rootsys.subsystems_equivalent(rs, a, b)
    assert rootsys.subsystems_equivalent(rs, a, a)


def test_json_document_shape():
    doc = rootsys.to_json_dict(g2())
    assert doc["schema"] == "1"
    assert doc["name"] == "G2"
    assert doc["rank"] == 2
    assert len(doc["roots"]) == 12
    import json

    json.dumps(doc)


def test_labels_round_trip():
    rs = g2()
    for r in rs.positive:
        lab = rs.label(r)
        assert not lab.startswith("-")
        assert rs.label(tuple(-c for c in r)) == "-" + lab
