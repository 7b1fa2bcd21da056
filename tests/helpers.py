"""Test-side helpers that several test modules share: a SubAlgebra from
N x N labels and values, and checks of a measuring process and of its
dilation payload."""

import numpy as np

from measurelab._linalg import unitary_residual
from measurelab.algebra import SubAlgebra
from measurelab.dilation import kraus_rank


def frame(labels, values, coef=None):
    """The SubAlgebra whose element labels[i, j] holds values[i, j] at
    (i, j), the label -1 marking an entry of no element: its live entries,
    the labelled ones in ascending flat index, read off the N x N arrays."""
    labels, values = np.asarray(labels), np.asarray(values)
    idx = np.flatnonzero(labels >= 0)
    return SubAlgebra(len(labels), idx, labels.ravel()[idx], values.ravel()[idx], coef)


def assert_valid_process(p):
    """The interaction is an isometry and the probe vector a unit vector,
    to the d x d residual scale, and the meter names an outcome for each
    probe basis vector."""
    assert unitary_residual(p.isometry) <= 1e-12 * np.sqrt(p.observed_dim)
    assert abs(np.linalg.norm(p.probe_vector) - 1.0) <= 1e-11
    assert p.meter.shape == (p.probe_dim,) and p.meter.dtype.kind == "i"
    assert 0 <= p.meter.min() and p.meter.max() < p.outcomes


def assert_payload_holds(obj, p):
    """The dilation payload obj, decoded field by field, holds the process
    p: the isometry and omega pairs bit for bit, and p's dimensions, meter,
    labels and Kraus rank (absent unless the meter is a slab meter)."""
    for key, a in (("isometry", p.isometry),
                   ("omega", p.probe_vector.reshape(-1, 1))):
        assert (obj[key]["rows"], obj[key]["cols"]) == a.shape
        pairs = np.array(obj[key]["data"], dtype=float)
        assert pairs.tobytes() == np.ascontiguousarray(a, dtype=complex).tobytes()
    assert (obj["observed_dim"], obj["probe_dim"]) == (p.observed_dim, p.probe_dim)
    assert obj["meter"] == p.meter.tolist()
    assert obj["labels"] == list(p.labels)
    try:
        rank = kraus_rank(p)
    except ValueError:
        rank = None
    assert obj.get("kraus_rank") == rank
