from commham import verifier
from commham.lattice import LatticeSpec
from commham.model import gen_toric


def test_tracer_patches_and_restores_every_attribute(tracing):
    # every (module, attribute) the benchmark tracer patches must exist, be
    # wrapped inside the context and be the original function after it
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]
    with tracing.Tracer() as tracer:
        for (module, attr, _, _), fn in zip(tracing.PATCHES, originals):
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr}"
        verifier.prepare(gen_toric(LatticeSpec(3, 3)))
    assert not tracer.active
    for (module, attr, _, _), fn in zip(tracing.PATCHES, originals):
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"
    assert tracer.totals()["verifier.prepare"]["calls"] == 1
    assert tracer.counters["split_vertices"] == 2
