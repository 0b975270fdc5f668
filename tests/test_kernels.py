"""Batch kernels: the backend knob and the metering-parity contract.

The contract under test (see :mod:`repro.sim.kernels`): the ``backend``
knob is provenance, not physics.  Scalar and numpy dispatch must produce
byte-identical rows, serialized metrics, and final algorithm state —
across the whole scenario catalog, both engines, the fault plane, any
worker count, and resume (a store written under one backend resumes
under the other).  On a numpy-less interpreter every ``"numpy"`` request
resolves to scalar, so this entire module passes unchanged there — that
graceful-fallback leg is what the CI no-numpy matrix job runs.
"""

import pytest

from repro import graphs
from repro.api import SweepSpec, run_sweep_spec
from repro.core.boruvka import BoruvkaNode, _BoruvkaKernel
from repro.graphs.indexed import IndexedGraph
from repro.sim import Metrics, Mode, NodeAlgorithm, Runner, SimulationError
from repro.sim import kernels
from repro.sim.experiments import run_scenario
from repro.sim.kernels import (
    WAKE_HALT,
    BatchKernel,
    available_backends,
    current_backend,
    default_backend,
    kernel_for,
    set_backend,
    use_backend,
)


def _graph(n=18, seed=3):
    g = graphs.random_connected_graph(n, extra_edge_prob=0.2, seed=seed)
    return graphs.random_weights(g, 9, seed=seed)


def _forest_state(n=18, seed=3, backend="scalar", **runner_kwargs):
    """Metrics and final per-node state of one Boruvka run (it has a kernel)."""
    g = _graph(n, seed)
    algs = {u: BoruvkaNode(u, n) for u in g.nodes()}
    metrics = Metrics()
    with use_backend(backend):
        Runner(g, algs, Mode.CONGEST, metrics=metrics, **runner_kwargs).run()
    return metrics.to_dict(), {
        u: (a.parent, sorted(a.children, key=repr), a.fragment, a.depth,
            a.complete, a._decision)
        for u, a in algs.items()
    }


# ----------------------------------------------------------------------
# the knob
# ----------------------------------------------------------------------
class TestBackendKnob:
    def test_default_tracks_numpy_availability(self):
        expected = "numpy" if kernels.numpy_or_none() is not None else "scalar"
        assert default_backend() == expected
        assert set(available_backends()) <= {"scalar", "numpy"}
        assert "scalar" in available_backends()

    def test_set_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cuda")

    def test_use_backend_restores_the_previous_request(self):
        before = current_backend()
        with use_backend("scalar"):
            assert current_backend() == "scalar"
        assert current_backend() == before

    def test_numpy_request_without_numpy_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        with use_backend("numpy"):
            assert current_backend() == "scalar"
        assert available_backends() == ("scalar",)
        assert default_backend() == "scalar"

    def test_spec_validates_backend_spelling(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="backend"):
            SweepSpec(backend="cuda").validate()
        # "numpy" stays a VALID spec even without numpy — availability is
        # resolved at run time, so one spec file serves the whole matrix.
        assert SweepSpec(backend="numpy").validate().backend == "numpy"


# ----------------------------------------------------------------------
# dispatch gates
# ----------------------------------------------------------------------
class TestKernelGates:
    def _runner(self, **kwargs):
        g = _graph(12, seed=1)
        algs = {u: BoruvkaNode(u, 12) for u in g.nodes()}
        return Runner(g, algs, Mode.CONGEST, **kwargs)

    def test_scalar_backend_disables_kernels(self):
        with use_backend("scalar"):
            assert kernel_for(self._runner()) is None

    def test_numpy_backend_builds_a_kernel(self):
        if kernels.numpy_or_none() is None:
            pytest.skip("no numpy: backend resolves to scalar")
        with use_backend("numpy"):
            assert kernel_for(self._runner()) is not None

    def test_fault_plane_closes_the_gate(self):
        if kernels.numpy_or_none() is None:
            pytest.skip("no numpy: backend resolves to scalar")
        with use_backend("numpy"):
            assert kernel_for(self._runner()) is not None  # control: no plane
            assert kernel_for(self._runner(faults="drop:0.1")) is None

    def test_edge_capacity_is_not_a_gate(self):
        """A kernel runs at ``edge_capacity > 1`` and keeps backend parity."""
        if kernels.numpy_or_none() is not None:
            with use_backend("numpy"):
                assert kernel_for(self._runner(edge_capacity=2)) is not None
        assert (_forest_state(backend="scalar", edge_capacity=2)
                == _forest_state(backend="numpy", edge_capacity=2))

    def test_kernel_capacity_breach_raises(self):
        """Kernel sends are checked against the edge capacity like scalar ones."""
        if kernels.numpy_or_none() is None:
            pytest.skip("no numpy: backend resolves to scalar")

        class DoubleSend(BatchKernel):
            def on_round_batch(self, r, awake, inboxes,
                               out_ports, out_payloads, bcast_src, bcast_payloads):
                out_ports.extend((0, 0))  # port 0 is the edge 0 -> 1
                out_payloads.extend(("a", "b"))
                return [WAKE_HALT] * len(awake)

        class Stub(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.halt()

            @classmethod
            def batch_kernel(cls, runner):
                return DoubleSend()

        g = graphs.path_graph(2)
        with use_backend("numpy"), pytest.raises(
            SimulationError,
            match=r"^edge capacity exceeded: 0->1 sent 2 messages in round 0 \(capacity 1\)$",
        ):
            Runner(g, {u: Stub() for u in g.nodes()}, Mode.CONGEST).run()

    def test_heterogeneous_roster_gate(self):
        g = graphs.path_graph(6)

        class Other(BoruvkaNode):
            pass

        algs = {u: BoruvkaNode(u, 6) for u in g.nodes()}
        if kernels.numpy_or_none() is not None:
            with use_backend("numpy"):  # control: the same roster, uniform
                assert kernel_for(Runner(g, algs, Mode.CONGEST)) is not None
        algs[0] = Other(0, 6)
        with use_backend("numpy"):
            assert kernel_for(Runner(g, algs, Mode.CONGEST)) is None


class TestKernelsEngage:
    """The kernel steps rounds of a catalog cell, so the parity suite
    below compares a kernel path with the scalar one, not scalar twice."""

    @pytest.mark.parametrize("kernel, scenario, n", [
        (_BoruvkaKernel, "boruvka/er", 18),
    ], ids=["boruvka"])
    def test_kernel_steps_a_round_of_the_cell(self, kernel, scenario, n,
                                              monkeypatch):
        if kernels.numpy_or_none() is None:
            pytest.skip("no numpy: backend resolves to scalar")
        stepped = []
        step = kernel.on_round_batch

        def counted(self, r, *columns):
            codes = step(self, r, *columns)
            if codes is not None:
                stepped.append(r)
            return codes

        monkeypatch.setattr(kernel, "on_round_batch", counted)
        with use_backend("numpy"):
            run_scenario(scenario, n, seed=0)
        assert stepped


# ----------------------------------------------------------------------
# wake-code booking: one code for a whole round, or mixed codes
# ----------------------------------------------------------------------
def _script(r, index):
    """``(wake code, unicast?, broadcast?)`` of node ``index`` at round ``r``.

    Rounds 0, 1, 4 and 5/6/8 give every awake node one code (the next
    round ``r + 1``, absolute, ``r + 1`` into an existing bucket, halt);
    round 3 mixes all of them.  The halting rounds broadcast, so a node
    that failed to halt would hear them.  CONGEST wakes receivers on
    arrival, so its awake sets differ from SLEEPING's; each mode still
    meets every kind.
    """
    if r == 0:
        return 1, False, True
    if r == 1:
        return 3, False, False
    if r == 3:
        return (4, 5, WAKE_HALT, 8)[index % 4], True, False
    if r == 4:
        return 5, False, False
    return WAKE_HALT, False, r in (5, 6, 8)


def _kind(r, codes):
    if len(set(codes)) > 1:
        return "mixed"
    return {r + 1: "next", WAKE_HALT: "halt"}.get(codes[0], "absolute")


class _ScriptKernel(BatchKernel):
    """The batch twin of :class:`_Scripted`; logs each round's code kind."""

    def __init__(self, runner):
        self.algs = runner._algorithms_by_index
        self.indptr = runner.indexed.indptr
        self.kinds = []

    def on_round_batch(self, r, awake, inboxes,
                       out_ports, out_payloads, bcast_src, bcast_payloads):
        codes = []
        for i in awake:
            alg = self.algs[i]
            alg.steps.append((r, list(inboxes[i])))
            code, unicast, broadcast = _script(r, i)
            if unicast:
                out_ports.append(self.indptr[i])
                out_payloads.append(("u", r, i))
            if broadcast:
                bcast_src.append(i)
                bcast_payloads.append(("b", r, i))
            codes.append(code)
        self.kinds.append(_kind(r, codes))
        return codes


class _Scripted(NodeAlgorithm):
    kernels = []

    def __init__(self, index):
        self.index = index
        self.steps = []

    def on_round(self, ctx, inbox):
        r = ctx.round
        self.steps.append((r, list(inbox)))
        code, unicast, broadcast = _script(r, self.index)
        if unicast:
            ctx.send(ctx.neighbors[0], ("u", r, self.index))
        if broadcast:
            ctx.broadcast(("b", r, self.index))
        if code == WAKE_HALT:
            ctx.halt()
        else:
            ctx.wake_at(code)

    @classmethod
    def batch_kernel(cls, runner):
        kernel = _ScriptKernel(runner)
        cls.kernels.append(kernel)
        return kernel


class TestWakeCodeBooking:
    """A round whose codes all agree is booked in bulk; it must equal the
    scalar path node for node, as must a round of mixed codes."""

    @staticmethod
    def _run(mode, backend):
        g = graphs.random_connected_graph(23, extra_edge_prob=0.15, seed=2)
        labels = IndexedGraph.of(g).labels
        algs = {u: _Scripted(i) for i, u in enumerate(labels)}
        metrics = Metrics()
        _Scripted.kernels.clear()
        with use_backend(backend):
            Runner(g, algs, mode, metrics=metrics).run()
        kinds = [kind for kernel in _Scripted.kernels for kind in kernel.kinds]
        return metrics.to_dict(), {u: a.steps for u, a in algs.items()}, kinds

    @pytest.mark.parametrize("mode", [Mode.CONGEST, Mode.SLEEPING])
    def test_bulk_and_mixed_codes_match_the_scalar_path(self, mode):
        if kernels.numpy_or_none() is None:
            pytest.skip("no numpy: backend resolves to scalar")
        scalar_metrics, scalar_steps, scalar_kinds = self._run(mode, "scalar")
        kernel_metrics, kernel_steps, kinds = self._run(mode, "numpy")
        assert scalar_kinds == []
        assert set(kinds) == {"next", "absolute", "halt", "mixed"}
        assert kernel_metrics == scalar_metrics
        assert kernel_steps == scalar_steps
        if mode is Mode.SLEEPING:
            assert scalar_metrics["lost_messages"] > 0


# ----------------------------------------------------------------------
# metering parity: the differential contract
# ----------------------------------------------------------------------
def _sweep_store(tmp_path, tag, **fields):
    """Run a sweep into a JSONL store; return (rows, store bytes)."""
    out = tmp_path / f"{tag}.jsonl"
    rows = run_sweep_spec(SweepSpec(output=str(out), **fields))
    return rows, out.read_bytes()


class TestBackendParity:
    CATALOG = dict(scenarios=None, sizes=(12, 18), seeds=(0,), workers=1)

    def test_runner_state_and_metrics_identical(self):
        assert _forest_state(backend="scalar") == _forest_state(backend="numpy")

    def test_full_catalog_stores_are_byte_identical(self, tmp_path):
        _, scalar = _sweep_store(tmp_path, "scalar", backend="scalar",
                                 **self.CATALOG)
        _, vector = _sweep_store(tmp_path, "numpy", backend="numpy",
                                 **self.CATALOG)
        assert scalar == vector

    def test_event_engine_stores_are_byte_identical(self, tmp_path):
        fields = dict(self.CATALOG, engine="event", sizes=(12,))
        _, scalar = _sweep_store(tmp_path, "ev-scalar", backend="scalar",
                                 **fields)
        _, vector = _sweep_store(tmp_path, "ev-numpy", backend="numpy",
                                 **fields)
        assert scalar == vector

    def test_fault_plane_stores_are_byte_identical(self, tmp_path):
        # Kernels gate themselves out for fault models that draw per
        # delivered message; the knob must still be a no-op on rows.
        fields = dict(self.CATALOG, fault_model="drop:0.1", sizes=(12,))
        _, scalar = _sweep_store(tmp_path, "fault-scalar", backend="scalar",
                                 **fields)
        _, vector = _sweep_store(tmp_path, "fault-numpy", backend="numpy",
                                 **fields)
        assert scalar == vector

    def test_worker_counts_do_not_leak_into_rows(self, tmp_path):
        fields = dict(scenarios=("sssp/path", "bfs/grid", "boruvka/er"),
                      sizes=(12, 18), seeds=(0,))
        rows1, _ = _sweep_store(tmp_path, "w1", backend="numpy",
                                workers=1, **fields)
        rows3, _ = _sweep_store(tmp_path, "w3", backend="numpy",
                                workers=3, **fields)
        rows3s, _ = _sweep_store(tmp_path, "w3s", backend="scalar",
                                 workers=3, **fields)
        assert rows1 == rows3 == rows3s

    def test_resume_crosses_backends(self, tmp_path):
        # backend is never digested: cells written under scalar are reused
        # verbatim when the sweep resumes under numpy, and the stitched
        # table equals a single-backend run.
        out = tmp_path / "resume.jsonl"
        fields = dict(scenarios=("sssp/path", "labeled-bfs/grid"),
                      sizes=(12, 18), workers=1, output=str(out))
        run_sweep_spec(SweepSpec(seeds=(0,), backend="scalar", **fields))
        resumed = run_sweep_spec(
            SweepSpec(seeds=(0, 1), backend="numpy", **fields))
        fresh = run_sweep_spec(
            SweepSpec(seeds=(0, 1), backend="scalar",
                      **{**fields, "output": None}))
        assert resumed == fresh
