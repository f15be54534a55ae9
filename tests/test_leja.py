from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adaleja import leja
from adaleja.distributions import _KINDS
from adaleja.errors import ContractError

from adaleja import (IdentityMap, LejaSequence, SausageMap, beta33,
                     leja_nodes, uniform)
from adaleja.leja import _TIE_SLACK, GRID_POINTS, _golden_max


class TestGreedySteps:
    def test_uniform_first_nodes(self):
        nodes = leja_nodes(uniform(-1, 1), 6)
        assert nodes[0] == 0.0
        assert nodes[1] == -1.0
        assert nodes[2] == 1.0
        assert_allclose(nodes[3], -1.0 / np.sqrt(3.0), atol=1e-4)
        assert_allclose(nodes[4], 0.65870659, atol=1e-6)
        assert_allclose(nodes[5], -0.83925418, atol=1e-6)

    def test_beta33_second_node(self):
        # maximizer of sqrt(rho)|y| with rho ~ (1-y^2)^3 is 1/sqrt(1+3) = 1/2;
        # the tie against +1/2 breaks toward the smaller abscissa
        nodes = leja_nodes(beta33(-1, 1), 2)
        assert_allclose(nodes[1], -0.5, atol=1e-6)

    def test_beta33_first_six(self):
        nodes = leja_nodes(beta33(-1, 1), 6)
        expected = [0.0, -0.5, 0.5821599, -0.77150765, 0.80926622, 0.27091825]
        assert_allclose(nodes, expected, atol=1e-6)

    def test_nodes_distinct(self):
        nodes = leja_nodes(uniform(-1, 1), 40)
        assert len(np.unique(np.round(nodes, 12))) == 40

    def test_nodes_in_interval(self):
        for law in (uniform(-1, 1), beta33(-1, 1)):
            nodes = leja_nodes(law, 30)
            assert nodes.min() >= -1.0 and nodes.max() <= 1.0

    def test_greedy_optimality_on_grid(self):
        """Each appended node beats every grid candidate on the objective."""
        law = uniform(-1, 1)
        nodes = leja_nodes(law, 8)
        grid = np.linspace(-1, 1, 10_001)
        for k in range(1, 8):
            prev = nodes[:k]
            weight = np.array([np.sqrt(law.pdf(law.from_canonical(g))) for g in grid])
            objective = weight * np.prod(np.abs(grid[:, None] - prev[None, :]), axis=1)
            chosen_w = np.sqrt(law.pdf(law.from_canonical(nodes[k])))
            chosen = chosen_w * np.prod(np.abs(nodes[k] - prev))
            assert chosen >= objective.max() * (1.0 - 1e-9)


class TestNestedness:
    def test_prefix_property(self):
        for law in (uniform(-1, 1), beta33(-1, 1)):
            short = leja_nodes(law, 10)
            long = leja_nodes(law, 20)
            assert_allclose(long[:10], short, atol=1e-12)

    def test_determinism(self):
        a = IdentityMap().forward(leja_nodes(uniform(-1, 1), 7))
        b = IdentityMap().forward(leja_nodes(uniform(-1, 1), 7))
        assert_allclose(a, b, rtol=0)

    def test_cache_returns_copies(self):
        a = leja_nodes(uniform(-1, 1), 5)
        a[0] = 99.0
        b = leja_nodes(uniform(-1, 1), 5)
        assert b[0] == 0.0


class TestTransplanted:
    def test_identity_first_three(self):
        assert_allclose(IdentityMap().forward(leja_nodes(uniform(-1, 1), 3)),
                        [0.0, -1.0, 1.0], rtol=0)

    def test_fixed_points_survive_any_map(self):
        seq = SausageMap(3).forward(leja_nodes(uniform(-1, 1), 3))
        assert_allclose(seq, [0.0, -1.0, 1.0], atol=1e-15)

    def test_sausage9_fourth_node(self):
        seq = SausageMap(9).forward(leja_nodes(uniform(-1, 1), 4))
        assert_allclose(seq[3], -0.46738946, atol=1e-6)

    def test_transplant_is_forward_of_canonical(self):
        m = SausageMap(9)
        raw = leja_nodes(uniform(-1, 1), 6)
        seq = m.forward(leja_nodes(uniform(-1, 1), 6))
        assert_allclose(seq, [m.forward(y) for y in raw], rtol=0, atol=1e-15)


class TestSequenceObject:
    def test_extend_to(self):
        s = LejaSequence(uniform(-1, 1))
        s.extend_to(4)
        assert len(s.nodes) == len(s) == 4
        s.extend_to(2)
        assert len(s.nodes) == len(s) == 4

    def test_counts_are_integers(self):
        # 2.5 failed inside a slice, -1 with a plain ValueError
        for count in (2.5, 2.0, True, "3", -1, None):
            with pytest.raises(ContractError):
                leja_nodes(uniform(-1, 1), count)
            with pytest.raises(ContractError):
                LejaSequence(uniform(-1, 1)).extend_to(count)
        assert len(leja_nodes(uniform(-1, 1), np.int64(3))) == 3

    def test_next_node_appends(self):
        s = LejaSequence(uniform(-1, 1))
        s.extend_to(1)
        val = s.next_node()
        assert val == s.nodes[-1] == -1.0


class ListLeja:
    """The greedy step with fresh grid temporaries, a node list and the
    array density: a reference for the sequence's own bookkeeping."""

    def __init__(self, law):
        self._law = law.canonical()
        self._grid = np.linspace(-1.0, 1.0, GRID_POINTS)
        with np.errstate(divide="ignore"):
            self._half_log_w = 0.5 * np.log(self._law.pdf(self._grid))
        self._nodes = [0.0]
        with np.errstate(divide="ignore"):
            self._log_prod = np.log(np.abs(self._grid))

    def _objective(self, y):
        w = self._law.pdf(np.array([y]))[0]
        if w <= 0.0:
            return -np.inf
        d = np.abs(y - np.array(self._nodes))
        if np.any(d == 0.0):
            return -np.inf
        return 0.5 * np.log(w) + float(np.sum(np.log(d)))

    def next_node(self):
        obj = self._half_log_w + self._log_prod
        top = np.max(obj)
        ties = np.flatnonzero(obj >= top - _TIE_SLACK)
        i = int(ties[0])
        lo = self._grid[max(i - 1, 0)]
        hi = self._grid[min(i + 1, GRID_POINTS - 1)]
        y = _golden_max(self._objective, lo, hi)
        if self._objective(y) < obj[i]:
            y = float(self._grid[i])
        self._nodes.append(y)
        with np.errstate(divide="ignore"):
            self._log_prod += np.log(np.abs(self._grid - y))
        return y


class TestAgainstListOracle:
    @pytest.mark.parametrize("law", [uniform(-1, 1), beta33(-1, 1)],
                             ids=["uniform", "beta33"])
    def test_sixty_nodes_bit_for_bit(self, law):
        oracle = ListLeja(law)
        for _ in range(59):
            oracle.next_node()
        want = np.array(oracle._nodes)
        assert np.array_equal(LejaSequence(law).extend_to(60).nodes, want)

    def test_no_grid_scratch_is_kept(self):
        seq = LejaSequence(beta33(-1, 1)).extend_to(12)
        grid_sized = {name for name, value in vars(seq).items()
                      if isinstance(value, np.ndarray) and value.size == GRID_POINTS}
        assert grid_sized == {"_grid", "_half_log_w", "_log_prod"}


class TestLebesgueGrowth:
    def test_subexponential(self):
        """log Lebesgue constant grows with slope < 0.05 per node."""
        nodes = leja_nodes(uniform(-1, 1), 40)
        grid = np.linspace(-1, 1, 10_000)
        logs = []
        for m in range(2, 41):
            pts = nodes[:m]
            lam = np.zeros_like(grid)
            for i in range(m):
                li = np.ones_like(grid)
                for k in range(m):
                    if k != i:
                        li *= (grid - pts[k]) / (pts[i] - pts[k])
                lam += np.abs(li)
            logs.append(np.log(lam.max()))
        slope = np.polyfit(np.arange(2, 41), logs, 1)[0]
        assert slope < 0.05


def refuse_sequences(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Leja sequence was generated")
    monkeypatch.setattr(LejaSequence, "__init__", refuse)
    monkeypatch.setattr(LejaSequence, "next_node", refuse)


class TestShippedNodes:
    @pytest.mark.parametrize("law", [uniform(-1, 1), beta33(-1, 1)])
    def test_shipped_nodes_are_the_generators_output(self, law):
        shipped = leja._shipped()
        assert sorted(shipped) == sorted(_KINDS)
        want = LejaSequence(law).extend_to(leja._SHIPPED).nodes
        assert shipped[law.kind].tobytes() == want.tobytes()

    @pytest.mark.parametrize("law", [uniform(-1, 1), beta33(-1, 1)])
    def test_counts_past_the_shipped_nodes_are_refused(self, law, monkeypatch):
        refuse_sequences(monkeypatch)
        for count in (leja._SHIPPED + 1, leja._SHIPPED + 12, 10 ** 9):
            with pytest.raises(ContractError, match=f"count must be at most 512, the "
                                                    f"shipped Leja nodes per law, got {count}"):
                leja_nodes(law, count)

    def test_shipped_counts_build_no_sequence(self, monkeypatch):
        refuse_sequences(monkeypatch)
        leja._shipped.cache_clear()     # the file is read without generating
        for law in (uniform(-1, 1), beta33(0, 2)):
            full = leja_nodes(law, leja._SHIPPED)
            for count in (0, 1, 7, leja._SHIPPED):
                nodes = leja_nodes(law, count)
                assert nodes.tobytes() == full[:count].tobytes()
                nodes[:] = 99.0     # the caller's own array
            assert leja_nodes(law, leja._SHIPPED).tobytes() == full.tobytes()

    def test_data_file_is_declared_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        assert "leja_nodes.json" in package_data["adaleja"]
        assert (root / "src" / "adaleja" / "leja_nodes.json").is_file()
