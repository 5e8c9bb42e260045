"""The scheme hook protocol, enforced where a scheme is defined.

``CheckpointScheme`` checks every subclass body against the hook kinds of
``vocabulary.SCHEME_HOOKS`` when the class is created, ``MeteorShowerBase``
cannot be instantiated without an ``initiate_round``, and ``Operator``
keeps ``snapshot`` / ``restore`` paired — on the real class hierarchy,
wherever the class lives (these classes live in a test module).
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core import MeteorShowerBase, MSSrc
from repro.core.ms_ap import MSSrcAP as AP
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.operator import Operator
from repro.dsps.runtime import CheckpointScheme
from repro.dsps.testing import make_chain_graph
from repro.simulation import Environment
from repro.vocabulary import SCHEME_HOOKS


class TokenCountingScheme(MSSrc):
    """A plug-in scheme defined outside ``src/``: MS-src that counts the
    tokens its HAUs handle."""

    name = "token-counting"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tokens_handled = 0

    def handle_token(self, hau, edge_idx, token):
        self.tokens_handled += 1
        yield from super().handle_token(hau, edge_idx, token)


def test_plug_in_scheme_defined_in_a_test_module_runs():
    scheme = TokenCountingScheme(checkpoint_times=[1.0])
    g, _ = make_chain_graph()
    env = Environment()
    rt = DSPSRuntime(
        env, StreamApplication(name="t", graph=g), scheme,
        RuntimeConfig(seed=7, cluster=ClusterSpec(workers=6, spares=6, racks=2)),
    )
    rt.start()
    env.run(until=10.0)
    assert [log.complete for log in scheme.checkpoint_logs()] == [True]
    assert scheme.tokens_handled == len(rt.app.graph.edges)


def test_aliased_base_plug_in_is_checked():
    # the base is reached through an import alias: no name-based scan
    # resolves it, the class itself does
    with pytest.raises(TypeError, match=r"AliasedBase\.handle_token is a generator hook"):

        class AliasedBase(AP):
            def handle_token(self, hau, edge_idx, token):
                return None


def test_generator_hook_written_as_plain_is_rejected():
    with pytest.raises(TypeError, match=r"BadScheme\.handle_token .* generator function"):

        class BadScheme(CheckpointScheme):
            def handle_token(self, hau, edge_idx, token):
                return token


def test_yield_in_plain_hook_is_rejected():
    with pytest.raises(TypeError, match=r"BadScheme\.on_token_arrival is a plain hook"):

        class BadScheme(CheckpointScheme):
            def on_token_arrival(self, hau, edge_idx, token):
                yield token


def test_from_config_must_be_a_classmethod():
    with pytest.raises(TypeError, match=r"BadScheme\.from_config .* classmethod"):

        class BadScheme(CheckpointScheme):
            def from_config(self, cfg):
                return self


def test_return_yield_idiom_counts_as_a_generator():
    class GoodScheme(CheckpointScheme):
        def on_control(self, hau, message):
            return
            yield  # pragma: no cover

    assert GoodScheme().on_control(None, None) is not None


def test_ms_variant_without_initiate_round_cannot_be_instantiated():
    class HalfVariant(MeteorShowerBase):
        def write_checkpoint(self, hau, payload, billed_size=None):
            yield from ()

    with pytest.raises(TypeError, match="HalfVariant"):
        HalfVariant()


def test_abstract_intermediate_variant_is_accepted():
    class AbstractVariant(MeteorShowerBase):
        pass

    class Concrete(AbstractVariant):
        def initiate_round(self):
            yield from ()

    assert isinstance(Concrete(), AbstractVariant)
    with pytest.raises(TypeError, match="AbstractVariant"):
        AbstractVariant()


def test_operator_snapshot_without_restore_is_rejected():
    with pytest.raises(TypeError, match=r"HalfOp overrides `snapshot` without `restore`"):

        class HalfOp(Operator):
            def snapshot(self):
                return {}

    with pytest.raises(TypeError, match=r"OtherHalfOp overrides `restore` without `snapshot`"):

        class OtherHalfOp(Operator):
            def restore(self, snap):
                pass

    class FullOp(Operator):
        def snapshot(self):
            return {}

        def restore(self, snap):
            pass

    assert FullOp().snapshot() == {}


def test_every_scheme_hook_is_defined_on_the_protocol():
    # the table lists no hook the protocol lacks
    for hook, (kind, driven_from) in SCHEME_HOOKS.items():
        assert any(hook in vars(cls) for cls in (CheckpointScheme, MeteorShowerBase)), hook
        assert kind in ("generator", "work", "plain", "classmethod"), hook
        assert driven_from, hook
