"""E8: polymorphic regular types vs simple types (§4 "Richer types").

Shape: the hex pipeline — and a family like it — verifies with
polymorphic signatures and FAILS with information-losing simple
signatures; crossover is exactly at stages whose output embeds their
input.
"""

from conftest import emit

from repro.rlang import Regex
from repro.rtypes import (
    StreamType,
    apply_signature,
    check_pipeline,
    identity,
    prefix_sig,
    simple,
    suffix_sig,
)

#: (name, pipeline argvs, simple signature for the middle stage)
CASES = [
    (
        "hex (paper §4)",
        [["grep", "-oE", "[0-9a-f]+"], ["sed", "s/^/0x/"], ["sort", "-g"]],
        simple(".*", "0x.*", label="sed (simple)"),
    ),
    (
        "decimal ids",
        [["grep", "-oE", "[0-9]+"], ["sed", "s/^/+/"], ["sort", "-g"]],
        simple(".*", "\\+.*", label="sed (simple)"),
    ),
    (
        "numbered listing",
        [["grep", "-oE", "[0-9]+"], ["sed", "s/$/ ok/"], ["sort", "-n"]],
        simple(".*", ".* ok", label="sed (simple)"),
    ),
]


def test_poly_vs_simple_table():
    rows = []
    for name, argvs, simple_sig in CASES:
        poly = check_pipeline(argvs)
        simple_result = check_pipeline(
            argvs, signatures=[None, simple_sig, None]
        )
        assert not poly.errors(), (name, [i.message for i in poly.issues])
        assert simple_result.errors(), name
        rows.append(
            f"{name:22} polymorphic: PASS   simple: FAIL "
            f"({simple_result.errors()[0].message[:48]}...)"
        )
    emit("E8 (polymorphic vs simple regular types)", rows)


def test_polymorphic_application_cost(benchmark):
    sig = prefix_sig("0x", "sed")
    input_type = StreamType.of("[0-9a-f]+")
    out = benchmark(apply_signature, sig, input_type)
    assert out.admits("0xff")


def test_bounded_identity_cost(benchmark):
    sig = identity("sort -g", bound=Regex.compile("0x[0-9a-f]+.*"))
    input_type = StreamType.of("0x[0-9a-f]+")
    benchmark(apply_signature, sig, input_type)


def test_pipeline_end_to_end_cost(benchmark):
    argvs = [["grep", "-oE", "[0-9a-f]+"], ["sed", "s/^/0x/"], ["sort", "-g"]]
    result = benchmark(check_pipeline, argvs)
    assert not result.issues
