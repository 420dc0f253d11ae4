"""Property tests: permutation invariance and Schur concavity under hypothesis.

Every test runs derandomized and without the example database, so tier-1
stays deterministic.  Hypothesis still caches the constants it reads from
the package's source in its home directory, and its pytest plugin does so
while collecting, so this module moves that home to the system's temporary
directory when it is imported: no .hypothesis directory is written into the
working tree.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from entrokit.audit import DEFAULT_FUNCTIONAL_SPECS, INEQ_TOL
from entrokit.classical import apply_bistochastic, bistochastic_from_unitary, entropy_finite
from entrokit.functionals import functional_from_spec
from entrokit.rand import random_unitary

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "entrokit-hypothesis")

FUNCTIONALS = [functional_from_spec(spec) for spec in DEFAULT_FUNCTIONAL_SPECS]
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Nonnegative weights with a positive total; exact zeros are kept, as phi(0) is an edge.
weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=12).filter(
    lambda w: sum(w) > 0
)


def normalized(w) -> np.ndarray:
    w = np.array(w)
    return w / w.sum()


@PROPERTY
@given(weights, st.data())
def test_entropy_finite_is_bitwise_invariant_under_permutation(w, data):
    p = normalized(w)
    order = np.array(data.draw(st.permutations(range(len(p)))))
    for F in FUNCTIONALS:
        value, permuted = entropy_finite(p, F).value, entropy_finite(p[order], F).value
        assert np.float64(value).view(np.int64) == np.float64(permuted).view(np.int64), F.name


@PROPERTY
@given(weights, st.integers(0, 2**32 - 1))
def test_bistochastic_mixing_never_lowers_the_entropy(w, seed):
    p = normalized(w)
    Q = bistochastic_from_unitary(random_unitary(len(p), seed))
    mixed = apply_bistochastic(Q, p)
    for F in FUNCTIONALS:
        assert entropy_finite(mixed, F).value >= entropy_finite(p, F).value - INEQ_TOL, F.name
