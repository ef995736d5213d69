"""Seeded values of the exact form kernels, pinned by the SHA-256 of their
serialized outputs.

The suite goldens print only pass/fail verdicts, so a kernel that changed
its values but kept every identity (antisymmetry, Jacobi, d o d = 0) would
pass them.  These pins hold each kernel to the values it computed when they
were recorded, on R^4, R^7 and the toroidal T^3 (d^c: R^4 and R^6, the
even-dimensional affine spaces it is defined on).
"""

import hashlib
from random import Random

import pytest

from fncalc.bracket import fn_bracket, lie_tensor, nijenhuis_lie
from fncalc.dolbeault import dc
from fncalc.exterior import (
    affine_space,
    coefficient_deriv,
    ext_deriv,
    hodge_star,
    insert_vector,
    torus_space,
    wedge,
)
from fncalc.grammar import serialize_form, serialize_vvform
from fncalc.sampling import random_form, random_vector_field, random_vvform

SPACES = {
    "R4": affine_space(4),
    "R6": affine_space(6),
    "R7": affine_space(7),
    "T3": torus_space(3),
}
SAMPLES = 40


def form(space, rng, low=0, high=None):
    """A random form of degree low..high (default: below the top degree, so
    that d, d^c and wedges with it need not vanish for degree reasons)."""
    high = space.dim - 1 if high is None else high
    return random_form(space, rng.randint(low, high), rng, max_terms=3)


KERNELS = {
    "wedge": lambda s, rng: serialize_form(wedge(form(s, rng, 0, 2), form(s, rng, 0, 2))),
    "ext_deriv": lambda s, rng: serialize_form(ext_deriv(form(s, rng))),
    "insert_vector": lambda s, rng: serialize_form(
        insert_vector(random_vector_field(s, rng), form(s, rng, 1, s.dim))
    ),
    # insert_vector along a tangent-valued form, under its pinned name
    "insert_vvform": lambda s, rng: serialize_form(
        insert_vector(random_vvform(s, rng, max_degree=2), form(s, rng, 1))
    ),
    "hodge_star": lambda s, rng: serialize_form(hodge_star(form(s, rng, 0, s.dim))),
    "coefficient_deriv": lambda s, rng: (
        lambda a: " ; ".join(serialize_form(coefficient_deriv(a, j)) for j in range(1, s.dim + 1))
    )(form(s, rng)),
    "fn_bracket": lambda s, rng: serialize_vvform(
        fn_bracket(random_vvform(s, rng), random_vvform(s, rng))
    ),
    "nijenhuis_lie": lambda s, rng: serialize_form(
        nijenhuis_lie(random_vvform(s, rng, max_degree=2), form(s, rng, 0, 2))
    ),
    "lie_tensor": lambda s, rng: serialize_vvform(
        lie_tensor(random_vector_field(s, rng), random_vvform(s, rng))
    ),
    "dc": lambda s, rng: serialize_form(dc(form(s, rng))),
}

PINS = {
    ("wedge", "R4"): "4297f63feed3a23189db6dc63140d931483908476130c1326612d0460cec073d",
    ("wedge", "R7"): "067c47eff0d51fcd756d891ef075a9f54527636ae9534b4730a96481c59af329",
    ("wedge", "T3"): "cf46c4ea2671232331a8e7a464e178e6afc7395bbb17afc973d18c7db9e53da6",
    ("ext_deriv", "R4"): "8a73a1f5ea9aeb3d790bd253c5815fe4fd6eb1bb8f8172617e4bdbe3b2d685c5",
    ("ext_deriv", "R7"): "efdfb4e4beab22f20400cdc847e55567a8aeba0d948213698e432dea0f84740d",
    ("ext_deriv", "T3"): "7d79dbc35a3ed3d62bd0d43d37b2f687d863429e402f58f6a1495c1c2f978f32",
    ("insert_vector", "R4"): "b58433e5cc87fb8b7a1972f1e4d73f8766bc2eb72a563dc52aa35d5291a23063",
    ("insert_vector", "R7"): "9302140bff1cbf7f57821019b0058cb75b65c09a3c11dfd9c17c11d7b54ebc28",
    ("insert_vector", "T3"): "08c139d3594a01c747645efa56a818e2e79269e55cc2dd51842bf12d051064ee",
    ("insert_vvform", "R4"): "56f91248eb196ca15b121a652c07e48ae94eb060d8c947cbaa7f4577dd72257c",
    ("insert_vvform", "R7"): "39016e89821867ae9079187743d818b54fa6da75ed2121d414a76f9b55bb2ba2",
    ("insert_vvform", "T3"): "b12d58de951558a0f1b2eac1605c87ad6de2b329fe2d6bee8a9a4bb3f2f10917",
    ("hodge_star", "R4"): "e38400d5d387f8fad7f12ff4214c201f52a6a32f32abd0fbcf9d58214149e9c2",
    ("hodge_star", "R7"): "91e6d9f418f8fb8e72b40430647aab85e687972659e0d4b3024f4196681cbaaa",
    ("hodge_star", "T3"): "293a3449f3b91f9dbae8a4f50a51f42a109e3037d29ac80a97be5329945f4847",
    ("coefficient_deriv", "R4"): "2a0badadccc9e8c914ef6a318d9c79937070fbb99d2ffae89a0f448bd8108738",
    ("coefficient_deriv", "R7"): "ed3b6ad01aa6c85471db659d343eefd6fd242d97767e4ac334daa0174b95461b",
    ("coefficient_deriv", "T3"): "fff52c408f40c8c538b0334b107effba411c803a4460ab20fa2ffb5b40a214fc",
    ("fn_bracket", "R4"): "38ebaaf9d31a3c3e8fbd19b620832d1000a5b632e241364c30f0bb4d7543954b",
    ("fn_bracket", "R7"): "c6ef634315b4a83813ee67fe18ccce6a5bed317ce004aea829d90234db0eba3d",
    ("fn_bracket", "T3"): "f66b9d4f03313783640e8d3eeaf99a4b742e888fb82e10db0676763bb84e6059",
    ("nijenhuis_lie", "R4"): "fcb21c90d9892ece003fb99998006b3adcff58063e7e4d68270b6ee6a352c83c",
    ("nijenhuis_lie", "R7"): "0fc6c7aee028c7a11ca78c5b1ea9eea4b24fbf8dc84b02af8afd045a58e9eaea",
    ("nijenhuis_lie", "T3"): "64d687073c08bbce11e318bfd816dd94addbe7ced7d1c173c6b5dba954f84c93",
    ("lie_tensor", "R4"): "d57d0ce11963143023f61a4cf0f5a4f0a3afb9536afb92facb2017bb40d3ebb6",
    ("lie_tensor", "R7"): "8e1c3d917c2dc5964f569b0efdabab10b6744fcb0dd82dae8aad06e3447f862b",
    ("lie_tensor", "T3"): "29c98c381e8937cf8d93d4f128c361fd470fbf599140d14cb899a6771667779e",
    ("dc", "R4"): "f62c66dd553d8920d7f1b7a749356ea08dcb1b12fc72164168d58f671e25d5c5",
    ("dc", "R6"): "383262d478ff1820e2d3e6a33639ab789353d7815a51ad01fccc315ec807b13d",
}


def kernel_digest(kernel: str, space: str) -> str:
    """SHA-256 of the serialized outputs of SAMPLES seeded calls, one a line."""
    rng = Random(f"{kernel}/{space}")
    lines = [KERNELS[kernel](SPACES[space], rng) for _ in range(SAMPLES)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("kernel, space", sorted(PINS), ids=[f"{k}-{s}" for k, s in sorted(PINS)])
def test_kernel_values_are_pinned(kernel, space):
    assert kernel_digest(kernel, space) == PINS[kernel, space]


def test_every_kernel_is_pinned_on_each_of_its_spaces():
    toroidal = {k for k in KERNELS if k != "dc"}
    expected = {(k, s) for k in toroidal for s in ("R4", "R7", "T3")}
    expected |= {("dc", "R4"), ("dc", "R6")}
    assert set(PINS) == expected
