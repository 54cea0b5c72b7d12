"""The package surface: lazily resolved public names, and the value classes'
equality, hashing, repr, immutability, pickling and copying."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

import sparsity_forge as sf
from sparsity_forge import sparsity


def test_every_public_name_resolves_to_its_module_object():
    for name in sf.__all__:
        value = getattr(sf, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("sparsity_forge."), name
        assert vars(home)[name] is value, name
    assert set(sf.__all__) <= set(dir(sf))
    namespace = {}
    exec("from sparsity_forge import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(sf.__all__)
    with pytest.raises(AttributeError):
        sf.no_such_name


def test_lazy_names_follow_a_patch_and_its_undo(monkeypatch):
    original = sparsity.is_sparse
    assert sf.is_sparse is original

    def patched(g, params):
        return original(g, params)

    monkeypatch.setattr(sparsity, "is_sparse", patched)
    assert sf.is_sparse is patched
    monkeypatch.undo()
    assert sf.is_sparse is original
    assert "is_sparse" not in vars(sf)  # nothing is cached in the package


K4 = sf.complete_graph(4)
FULL = sf.full_edge_set(K4)
PATH = sf.EdgeSet(K4, [0, 3, 5])  # (0, 1), (1, 2), (2, 3)
REST = sf.EdgeSet(K4, [1, 2, 4])
PARAMS = sf.SparsityParams(Fraction(5, 2), -1)
FIVE_HALVES = sparsity._plan(Fraction(5, 2))

# class -> (positional args, keyword args, repr text of the instance)
VALUES = {
    "Graph": (
        sf.Graph,
        (4, [(1, 0), (2, 3)]),
        {"n": 4, "edges": [(0, 1), (2, 3)]},
        "Graph(n=4, e=2)",
    ),
    "VertexSet": (sf.VertexSet, (K4, [2, 0]), {"host": K4, "ids": {0, 2}}, "VertexSet([0, 2])"),
    "EdgeSet": (sf.EdgeSet, (K4, [5, 1]), {"host": K4, "ids": {1, 5}}, "EdgeSet([1, 5])"),
    "SparsityParams": (
        sf.SparsityParams,
        (Fraction(5, 2), -1),
        {"a": Fraction(5, 2), "b": Fraction(-1)},
        "SparsityParams(5/2, -1)",
    ),
    "SparsityCertificate": (
        sf.SparsityCertificate,
        (True, sf.VertexSet(K4, [0, 1]), Fraction(-3), Fraction(4), PARAMS),
        {
            "sparse": True,
            "witness": sf.VertexSet(K4, [0, 1]),
            "max_violation": Fraction(-3),
            "min_potential": Fraction(4),
            "params": PARAMS,
        },
        "SparsityCertificate(sparse=True, witness=VertexSet([0, 1]), "
        "max_violation=Fraction(-3, 1), min_potential=Fraction(4, 1), "
        "params=SparsityParams(5/2, -1))",
    ),
    "_Plan": (
        sparsity._Plan,
        (2, "large_m_case_D3", 1, FIVE_HALVES.gate, FIVE_HALVES.final, True),
        {
            "k": 2,
            "case": "large_m_case_D3",
            "s": 1,
            "gate": FIVE_HALVES.gate,
            "final": FIVE_HALVES.final,
            "forest_first": True,
        },
        "_Plan(k=2, case='large_m_case_D3', s=1, gate=SparsityParams(5/2, 0), "
        "final=SparsityParams(5/2, -4), forest_first=True)",
    ),
    "CountMatroidOracle": (
        sf.CountMatroidOracle,
        (K4, 1, -1, "lorea"),
        {"host": K4, "a": 1, "b": -1, "validity_class": "lorea"},
        "CountMatroidOracle(a=1, b=-1, lorea)",
    ),
    "PartitionResult": (
        sf.PartitionResult,
        (True, PATH, REST),
        {"success": True, "e1": PATH, "e2": REST},
        "PartitionResult(success=True, e1=EdgeSet([0, 3, 5]), e2=EdgeSet([1, 2, 4]), "
        "deficiency=None, r1=None, r2=None)",
    ),
    "Decomposition": (
        sf.Decomposition,
        (K4, PATH, REST, Fraction(5, 2), "large_m_case_D3"),
        {"host": K4, "F": PATH, "Gp": REST, "m": Fraction(5, 2), "trace": "large_m_case_D3"},
        "Decomposition(host=Graph(n=4, e=6), F=EdgeSet([0, 3, 5]), Gp=EdgeSet([1, 2, 4]), "
        "m=Fraction(5, 2), trace='large_m_case_D3')",
    ),
    "VerificationReport": (
        sf.VerificationReport,
        (False, ("F contains a cycle",)),
        {"ok": False, "problems": ("F contains a cycle",)},
        "VerificationReport(ok=False, problems=('F contains a cycle',))",
    ),
    "ForestPartition": (
        sf.ForestPartition,
        (K4, PATH, REST),
        {"host": K4, "F": PATH, "R": REST},
        "ForestPartition(host=Graph(n=4, e=6), F=EdgeSet([0, 3, 5]), R=EdgeSet([1, 2, 4]))",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_keep_their_behaviour(name):
    cls, args, kwargs, text = VALUES[name]
    value, twin = cls(*args), cls(**kwargs)
    assert repr(value) == repr(twin) == text
    mutable = cls is sf.CountMatroidOracle  # identity equality, mutable cache
    if mutable:
        assert value == value and value != twin and hash(value) == hash(value)
        value.validity_class = "renamed"
        assert value.validity_class == "renamed"
        value.validity_class = "lorea"
    else:
        assert value == twin and hash(value) == hash(twin)
        assert value != object()
        field = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is cls and repr(clone) == text
        if mutable:
            assert clone.host == K4 and (clone.a, clone.b) == (1, -1)
        else:
            assert clone == value and hash(clone) == hash(value)


def test_forest_partition_still_validates():
    with pytest.raises(ValueError, match="overlap"):
        sf.ForestPartition(K4, PATH, FULL)
    with pytest.raises(ValueError, match="cover"):
        sf.ForestPartition(K4, PATH, sf.EdgeSet(K4, [1]))
    with pytest.raises(ValueError, match="cycle"):
        sf.ForestPartition(K4, sf.EdgeSet(K4, [0, 1, 3]), sf.EdgeSet(K4, [2, 4, 5]))
    with pytest.raises(ValueError, match="host"):
        sf.ForestPartition(sf.complete_graph(5), PATH, REST)
