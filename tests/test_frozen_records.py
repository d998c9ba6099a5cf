"""Every array a result record holds refuses in-place writes and is its own
copy, so no array outside the record can change it."""

from dataclasses import fields

import numpy as np
import pytest

from gpattack.data import Dataset, generate_two_moons
from gpattack.evasion import gpfgs
from gpattack.gp import fit_classification_laplace, fit_regression
from gpattack.kernels import RBF, KernelSpec
from gpattack.membership import MEAN, MembershipDataset
from gpattack.secure import build_secure_classifier


@pytest.fixture(scope="module")
def records():
    data = generate_two_moons(20, 0.1, 0)
    spec = KernelSpec(RBF, lengthscale=0.5)
    classifier = fit_classification_laplace(spec, data)
    return {
        "Dataset": data,
        "TrainedGP-regression": fit_regression(spec, data),
        "TrainedGP-classification": classifier,
        "MembershipDataset": MembershipDataset(np.array([[0.1], [0.2]]), np.array([1, 0]), (MEAN,)),
        "SecureClassifier": build_secure_classifier(np.array([[0.0, 0.0], [100.0, 0.0]]), [1.0, -1.0], 0.4, spec),
        "AdversarialResult": gpfgs(classifier, data.features[0], 0.1),
    }


@pytest.mark.parametrize(
    "name",
    [
        "Dataset",
        "TrainedGP-regression",
        "TrainedGP-classification",
        "MembershipDataset",
        "SecureClassifier",
        "AdversarialResult",
    ],
)
def test_array_fields_are_read_only(records, name):
    record = records[name]
    arrays = {f.name: getattr(record, f.name) for f in fields(record) if isinstance(getattr(record, f.name), np.ndarray)}
    assert arrays
    for field_name, array in arrays.items():
        assert not array.flags.writeable, field_name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_record_copies_its_input():
    base = np.zeros((4, 2))
    labels = np.array([1.0, -1.0])
    data = Dataset(base[:2], labels)
    base[0, 0] = 7.0
    labels[0] = -1.0
    assert data.features[0, 0] == 0.0 and data.labels[0] == 1.0
    assert base.flags.writeable and labels.flags.writeable
