"""Tests for the labelled-quotient-graph state (stored roots and offsets)."""

import copy
import dataclasses
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelen import CandidateEdge, QuotientState, quotient
from bridgelen.quotient import FOREST, ZERO_CYCLE, EdgeOutcome


def edge(source, dest, translation, length=1.0):
    return CandidateEdge(length, source, dest, tuple(translation))


class ForestOracle:
    """Independent reference: explicit adjacency forest, path sums by BFS."""

    def __init__(self, m, n):
        self.adj = {v: [] for v in range(m)}
        self.n = n

    def add_edge(self, s, d, vec):
        self.adj[s].append((d, np.asarray(vec)))
        self.adj[d].append((s, -np.asarray(vec)))

    def path_sum(self, u, w):
        seen = {u: np.zeros(self.n, dtype=np.int64)}
        queue = [u]
        while queue:
            v = queue.pop()
            if v == w:
                return seen[v]
            for nxt, vec in self.adj[v]:
                if nxt not in seen:
                    seen[nxt] = seen[v] + vec
                    queue.append(nxt)
        return seen.get(w)


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The former ``quotient._add``, which ``reference_classify`` relabels
    with."""
    return tuple(map(operator.add, a, b))


def reference_classify(self, e: CandidateEdge) -> EdgeOutcome:
    """The former ``QuotientState.classify_edge``, kept as an oracle: it
    builds the whole cycle sum for every edge.  It checks a translation's
    length on a join only."""
    if not (0 <= e.source < self.m and 0 <= e.dest < self.m):
        raise IndexError("edge endpoint out of range")
    rs, rd = self._root[e.source], self._root[e.dest]
    c = tuple(
        [
            a - b - int(t)
            for a, b, t in zip(self._offset[e.source], self._offset[e.dest], e.translation)
        ]
    )
    if rs == rd:
        if not any(c):
            return ZERO_CYCLE
        return EdgeOutcome(kind="cycle", cycle_sum=c)
    # checked on a join only (m - 1 per structure, not one per edge): zip
    # cut c to the shorter length, and a stored offset must have n entries;
    # a nonzero cycle sum of the wrong length is refused by OnlineSnfState.add
    if len(e.translation) != self.n:
        raise ValueError(f"translation of length {len(e.translation)} in {self.n}-D")
    # relabel the smaller side so that offset(source) - offset(dest) == v
    if len(self._members[rs]) >= len(self._members[rd]):
        keep, gone, shift = rs, rd, c
    else:
        keep, gone, shift = rd, rs, tuple(-x for x in c)
    moved = self._members.pop(gone)
    for u in moved:
        self._root[u] = keep
        self._offset[u] = _add(self._offset[u], shift)
    self._members[keep].extend(moved)
    return FOREST


def snapshot(state):
    return copy.deepcopy((state._root, state._offset, state._members))


def path_sum(state, u, w):
    """Forest path sum u -> w read from the stored offsets; None when u and
    w lie in different components."""
    if state._root[u] != state._root[w]:
        return None
    return np.array([a - b for a, b in zip(state._offset[u], state._offset[w])], dtype=np.int64)


def component_count(state):
    return len(set(state._root))


class TestBasics:
    def test_new_state_is_disconnected(self):
        state = QuotientState(3, 3)
        assert component_count(state) == 3
        assert not state.connected()

    def test_single_vertex_connected(self):
        assert QuotientState(1, 2).connected()

    def test_two_vertices_not_connected(self):
        assert not QuotientState(2, 2).connected()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            QuotientState(0, 2)
        with pytest.raises(IndexError):
            QuotientState(2, 2).classify_edge(edge(0, 5, (0, 0)))


class TestClassify:
    def test_fig3_trace(self):
        state = QuotientState(2, 2)
        green = state.classify_edge(edge(0, 1, (0, 1)))
        assert green.kind == "forest"
        assert state.connected()
        blue = state.classify_edge(edge(0, 1, (0, 0)))
        assert blue.kind == "cycle"
        assert blue.cycle_sum == (0, 1)
        orange = state.classify_edge(edge(0, 1, (1, 1)))
        assert orange.kind == "cycle"
        assert orange.cycle_sum == (-1, 0)

    def test_duplicate_forest_edge_is_zero_cycle(self):
        state = QuotientState(2, 2)
        state.classify_edge(edge(0, 1, (2, -1)))
        out = state.classify_edge(edge(0, 1, (2, -1)))
        assert out.kind == "zero_cycle"

    def test_self_loop_cycle_sum_is_own_label(self):
        state = QuotientState(1, 3)
        out = state.classify_edge(edge(0, 0, (1, 0, -2)))
        assert out.kind == "cycle"
        assert out.cycle_sum == (-1, 0, 2)

    def test_cycle_never_changes_connectivity(self):
        state = QuotientState(3, 2)
        state.classify_edge(edge(0, 1, (1, 0)))
        before = component_count(state)
        state.classify_edge(edge(0, 1, (0, 1)))
        assert component_count(state) == before

    @pytest.mark.parametrize(
        "source, dest, translation", [(0, 1, (0,)), (0, 1, (0, 0, 1, 5)), (0, 0, (0, 0))]
    )
    def test_one_component_refuses_a_translation_of_the_wrong_length(
        self, source, dest, translation
    ):
        # each one cut to the shorter length would sum to zero
        state = QuotientState(2, 3)
        state.classify_edge(edge(0, 1, (0, 0, 1)))
        before = snapshot(state)
        with pytest.raises(ValueError, match="in 3-D"):
            state.classify_edge(edge(source, dest, translation))
        assert snapshot(state) == before

    @pytest.mark.parametrize("translation", [(1,), (1, 0, 0, 0)])
    def test_join_refuses_a_translation_of_the_wrong_length(self, translation):
        state = QuotientState(3, 3)
        state.classify_edge(edge(1, 2, (0, 0, 1)))
        roots, offsets = list(state._root), list(state._offset)
        with pytest.raises(ValueError, match="in 3-D"):
            state.classify_edge(edge(0, 1, translation))
        assert state._root == roots
        assert state._offset == offsets


    @pytest.mark.parametrize("translation", [(0.5, 0), [0.5, 0], np.array([0.5, 0.0])])
    def test_non_integer_translation_is_refused(self, translation):
        # truncated, (0.5, 0) joined with offset (0, 0); a cycle sum too
        state = QuotientState(3, 2)
        state.classify_edge(edge(1, 2, (0, 1)))
        before = snapshot(state)
        for source, dest in ((0, 1), (1, 2)):
            with pytest.raises(TypeError):
                state.classify_edge(CandidateEdge(1.0, source, dest, translation))
            assert snapshot(state) == before


class TestPathSum:
    def test_reflexive_is_zero(self):
        state = QuotientState(2, 2)
        assert np.array_equal(path_sum(state, 0, 0), [0, 0])

    def test_forest_edge_orientation(self):
        state = QuotientState(2, 2)
        state.classify_edge(edge(0, 1, (0, 1)))
        assert tuple(path_sum(state, 0, 1)) == (0, 1)
        assert tuple(path_sum(state, 1, 0)) == (0, -1)

    def test_none_across_components(self):
        state = QuotientState(3, 2)
        state.classify_edge(edge(0, 1, (1, 0)))
        assert path_sum(state, 0, 2) is None

    def test_antisymmetry(self):
        rng = np.random.default_rng(31)
        state = QuotientState(6, 3)
        for _ in range(5):
            s, d = rng.integers(0, 6, size=2)
            state.classify_edge(edge(int(s), int(d), tuple(rng.integers(-2, 3, size=3))))
        for u in range(6):
            for w in range(6):
                puw = path_sum(state, u, w)
                pwu = path_sum(state, w, u)
                if puw is None:
                    assert pwu is None
                else:
                    assert np.array_equal(puw, -pwu)

    def test_fuzz_against_adjacency_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(10_000):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 4))
            state = QuotientState(m, n)
            oracle = ForestOracle(m, n)
            for _ in range(int(rng.integers(0, 2 * m + 2))):
                s = int(rng.integers(0, m))
                d = int(rng.integers(0, m))
                vec = tuple(int(x) for x in rng.integers(-3, 4, size=n))
                out = state.classify_edge(edge(s, d, vec))
                if out.kind == "forest":
                    oracle.add_edge(s, d, vec)
            u = int(rng.integers(0, m))
            w = int(rng.integers(0, m))
            expected = oracle.path_sum(u, w)
            got = path_sum(state, u, w)
            if expected is None:
                assert got is None
            else:
                assert np.array_equal(got, expected)


class TestEdgeTypes:
    def test_candidate_edge_sorts_by_length_source_dest_translation(self):
        edges = [
            edge(1, 2, (0, 1), length=1.0),
            edge(0, 2, (0, 1), length=1.0),
            edge(0, 1, (1, 0), length=1.0),
            edge(0, 1, (0, 1), length=1.0),
            edge(0, 0, (1, 0), length=0.5),
        ]
        # listed in descending (length, source, dest, translation) order
        assert sorted(edges) == edges[::-1]

    def test_candidate_edge_is_an_immutable_tuple(self):
        e = edge(0, 1, (1, -1), length=2.0)
        assert e == (2.0, 0, 1, (1, -1))
        assert hash(e) == hash((2.0, 0, 1, (1, -1)))
        with pytest.raises(AttributeError):
            e.length = 3.0
        with pytest.raises(AttributeError):
            e.extra = 1

    def test_numpy_and_python_translations_classify_alike(self):
        got = []
        for cast in (int, np.int32, np.int64):
            state = QuotientState(2, 2)
            outs = [
                state.classify_edge(edge(s, d, tuple(cast(x) for x in t)))
                for s, d, t in ((0, 1, (0, 1)), (1, 0, (2, 0)), (0, 1, (0, 1)))
            ]
            got.append(outs)
            assert all(type(x) is int for x in outs[1].cycle_sum)
        assert got[0] == got[1] == got[2]
        assert [o.kind for o in got[0]] == ["forest", "cycle", "zero_cycle"]
        assert got[0][1].cycle_sum == (-2, -1)  # path (0, -1) less (2, 0)

    def test_shared_outcomes_are_immutable(self):
        state = QuotientState(2, 1)
        forest = state.classify_edge(edge(0, 1, (0,)))
        zero = state.classify_edge(edge(0, 1, (0,)))
        assert forest is quotient.FOREST and zero is quotient.ZERO_CYCLE
        for outcome in (forest, zero):
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.kind = "cycle"
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.cycle_sum = (1,)
        assert (forest.kind, forest.cycle_sum) == ("forest", None)
        assert (zero.kind, zero.cycle_sum) == ("zero_cycle", None)


# translations in every form a library caller may pass: tuples of Python
# and NumPy integers, lists and 1-D arrays
_FORMS = (
    lambda t: tuple(t),
    lambda t: tuple(np.int32(x) for x in t),
    lambda t: tuple(np.int64(x) for x in t),
    lambda t: list(t),
    lambda t: np.array(t, dtype=np.int64),
    lambda t: np.array(t, dtype=np.int32),
)


@st.composite
def edge_sequences(draw):
    """A state size and edges for it: self-loops and repeated pairs
    included, and now and then an endpoint out of range or a translation
    of the wrong length."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, m - 1) | st.sampled_from([-1, m])
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    edges = []
    for _ in range(draw(st.integers(0, 24))):
        s, d = draw(st.sampled_from(pairs) | st.tuples(vertex, vertex))
        size = draw(st.sampled_from([n] * 8 + [max(n - 1, 0), n + 1]))
        t = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        edges.append((s, d, draw(st.sampled_from(_FORMS))(t)))
    return m, n, edges


class TestAgainstTheReference:
    @settings(max_examples=400, deadline=None)
    @given(edge_sequences())
    def test_same_outcomes_and_state_as_the_reference(self, case):
        m, n, edges = case
        state, reference = QuotientState(m, n), QuotientState(m, n)
        for s, d, t in edges:
            e = CandidateEdge(1.0, s, d, t)
            before = snapshot(state)
            try:
                want = reference_classify(reference, e)
            except (IndexError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    state.classify_edge(e)
                assert snapshot(state) == before
                continue
            if len(t) != n:
                # the reference cut the sum short and changed nothing; this
                # is refused
                with pytest.raises(ValueError, match=f"in {n}-D"):
                    state.classify_edge(e)
                assert snapshot(state) == before
                continue
            got = state.classify_edge(e)
            assert (got.kind, got.cycle_sum) == (want.kind, want.cycle_sum)
            if got.kind != "cycle":
                assert got is want
            else:
                assert all(type(x) is int for x in got.cycle_sum)
            assert snapshot(state) == snapshot(reference)
